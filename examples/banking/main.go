// Banking: the motivating scenario from the paper's introduction, on the
// sharded engine through the txdel/client session API. Accounts are
// hash-partitioned over 4 shards. One long-running AUDIT session scans
// shard 0's accounts in order while short transfer sessions run two kinds
// of traffic: transfers among already-audited shard-0 balances (the
// paper's worst case — every one keeps the audit as an active
// predecessor), and cross-shard transfers among shards 1–3 that commit
// through the two-phase protocol. Under Lemma 1 the audited shard retains
// essentially its whole history until the audit commits; condition C1
// forgets a transfer as soon as later transfers overwrite the balances it
// touched, which is why greedy-c1 keeps the graph small even mid-audit.
//
// (A cross-partition audit is possible too — WithShards(0,1,2,3) — but a
// long-lived cross transaction gates deletion of everything its
// cross-ancestor labels reach, so a production audit scans shard by
// shard; see the package docs of repro/internal/core on label gating.)
//
// Run with: go run ./examples/banking
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"

	"repro/txdel/client"
)

const (
	shards    = 4
	accounts  = 128 // total accounts; shard-0 account k is entity shards*k
	transfers = 400
)

func main() {
	fmt.Println("scenario: an audit scanning shard 0 + local and cross-shard transfers")
	fmt.Printf("%-16s %12s %12s %12s %12s %8s\n", "policy", "peak kept", "avg kept", "deleted", "aborts", "cross")
	for _, policy := range []string{"nogc", "lemma1", "noncurrent-safe", "greedy-c1"} {
		st, auditOK := run(policy)
		fmt.Printf("%-16s %12d %12.1f %12d %12d %8d   audit committed: %v\n",
			policy, st.Merged.PeakKept, st.Merged.AvgKept(), st.Deleted, st.Aborted, st.CrossTxns, auditOK)
	}
	fmt.Println()
	fmt.Println("every shard-0 transfer keeps the audit as an active predecessor until")
	fmt.Println("the audit commits, so Lemma 1 retains that shard's history like NoGC.")
	fmt.Println("Condition C1 forgets a transfer once later transfers overwrite the")
	fmt.Println("balances it touched. Cross-shard transfers (shards 1-3) commit through")
	fmt.Println("the 2PC path, retire from the cross-arc registry, and are reclaimed too.")
}

type transfer struct {
	txn      *client.Txn
	from, to client.Entity
	stage    int
}

// auditedAccount returns shard-0 account k (entity 4k).
func auditedAccount(k int) client.Entity { return client.Entity(shards * k) }

func run(policy string) (client.Stats, bool) {
	db, err := client.Open(client.Config{
		Shards: shards,
		Policy: policy,
		Verify: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))

	// The audit roams all of shard 0 without a declared entity set.
	audit, err := db.Begin(ctx, client.WithShards(0))
	if err != nil {
		log.Fatal(err)
	}
	auditAlive := true
	nextAudit := 0 // next shard-0 account the audit will read
	perShard := accounts / shards

	beginTransfer := func() *transfer {
		var from, to client.Entity
		if rng.Intn(3) == 0 {
			// Cross-shard transfer between two of shards 1-3.
			a := 1 + rng.Intn(shards-1)
			b := 1 + rng.Intn(shards-1)
			for b == a {
				b = 1 + rng.Intn(shards-1)
			}
			from = client.Entity(a + shards*rng.Intn(perShard))
			to = client.Entity(b + shards*rng.Intn(perShard))
		} else {
			// Shard-0 transfer among already-audited accounts (the OLTP
			// traffic trails the scan, so the audit never reads a stale
			// balance and survives to commit).
			from = auditedAccount(rng.Intn(nextAudit))
			to = auditedAccount(rng.Intn(nextAudit))
		}
		txn, err := db.Begin(ctx, client.WithFootprint(from, to))
		if err != nil {
			if errors.Is(err, client.ErrProtocol) {
				log.Fatal(err)
			}
			return nil
		}
		return &transfer{txn: txn, from: from, to: to}
	}

	var live []*transfer
	for done := 0; done < transfers || len(live) > 0; {
		// Interleave the audit's scan: one account read every few steps.
		if auditAlive && nextAudit < perShard && rng.Intn(4) == 0 {
			if err := audit.Read(ctx, auditedAccount(nextAudit)); err != nil {
				auditAlive = false // the audit itself aborted (rare)
			}
			nextAudit++
			continue
		}
		if done < transfers && len(live) < 3 && nextAudit > 0 && rng.Intn(2) == 0 {
			done++
			if tr := beginTransfer(); tr != nil {
				live = append(live, tr)
			}
			continue
		}
		if len(live) == 0 {
			continue
		}
		// Advance a random live transfer: read from, read to, write both.
		i := rng.Intn(len(live))
		tr := live[i]
		switch tr.stage {
		case 0:
			err = tr.txn.Read(ctx, tr.from)
		case 1:
			err = tr.txn.Read(ctx, tr.to)
		default:
			err = tr.txn.Write(ctx, tr.from, tr.to)
		}
		tr.stage++
		if err != nil || tr.stage > 2 {
			live = append(live[:i], live[i+1:]...)
		}
	}
	// Finish the audit: scan the rest, then a read-only commit.
	for auditAlive && nextAudit < perShard {
		if err := audit.Read(ctx, auditedAccount(nextAudit)); err != nil {
			auditAlive = false
			break
		}
		nextAudit++
	}
	if auditAlive {
		if err := audit.Write(ctx); err != nil { // empty write set: read-only
			auditAlive = false
		}
	}
	stats := db.Stats()
	if err := db.Close(); err != nil {
		log.Fatalf("policy %s: CSR verification failed: %v", policy, err)
	}
	return stats, auditAlive
}
