package client

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestStragglerReapSurfacesTypedError runs the retention governor end to
// end through the session API: a sleeper session traps a victim past the
// watermark, a later submission's governor pass reaps it, and the session's
// next operation must surface ErrStragglerAborted — still matching
// ErrTxnAborted for legacy branches — with the stable wire code
// "straggler-aborted". An older PriorityHigh sleeper pins the victim too:
// the governor must pass it over, reap the normal one, and leave the high
// one's session live. Run under -race in CI.
func TestStragglerReapSurfacesTypedError(t *testing.T) {
	db := open(t, Config{
		Shards:             1,
		Policy:             "greedy-c1",
		RetentionWatermark: 1, // one hostage is one too many
	})
	ctx := context.Background()

	// The high sleeper begins first, so it is the oldest active: the
	// governor, reaping oldest first, would take it but for its priority.
	high, err := db.Begin(ctx, WithFootprint(0), WithPriority(PriorityHigh))
	if err != nil {
		t.Fatal(err)
	}
	if err := high.Read(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// The sleeper reads entity 2 and then stalls forever.
	sleeper, err := db.Begin(ctx, WithFootprint(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := sleeper.Read(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// The victim writes entity 2 and completes — trapped: each sleeper is
	// an active tight predecessor and no witness can ever appear. Retained
	// hits the watermark, and the shard asks for a governor pass, which the
	// next submission runs: one of the sleeper's own reads below.
	victim, err := db.Begin(ctx, WithFootprint(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Write(ctx, 2); err != nil {
		t.Fatalf("victim commit: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var opErr error
	for {
		opErr = sleeper.Read(ctx, 4)
		if opErr != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("governor never reaped the sleeper")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if !errors.Is(opErr, ErrStragglerAborted) {
		t.Fatalf("post-reap op err = %v, want ErrStragglerAborted", opErr)
	}
	if !errors.Is(opErr, ErrTxnAborted) {
		t.Fatalf("post-reap op err = %v, must still match ErrTxnAborted", opErr)
	}
	if code := ErrorCode(opErr); code != "straggler-aborted" {
		t.Fatalf("ErrorCode = %q, want \"straggler-aborted\"", code)
	}
	// The session is terminal with the same error.
	if err := sleeper.Err(); !errors.Is(err, ErrStragglerAborted) {
		t.Fatalf("session Err = %v, want ErrStragglerAborted", err)
	}
	if s := db.Stats(); s.Reaped < 1 {
		t.Fatalf("Stats.Reaped = %d, want >= 1", s.Reaped)
	}
	// The governor passed over the high sleeper: its session is live, its
	// next read is accepted, and it commits.
	if err := high.Read(ctx, 4); err != nil {
		t.Fatalf("high-priority read after the reap: %v, want accepted", err)
	}
	if err := high.Write(ctx, 6); err != nil {
		t.Fatalf("high-priority commit after the reap: %v", err)
	}
}
