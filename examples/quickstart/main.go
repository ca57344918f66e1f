// Quickstart: the paper's Example 1 driven through the public
// txdel/client session API over the sharded engine.
//
// A long-running reader T1 holds entity x open while two sessions serially
// read-modify-write x. Without deletion the conflict graph only grows;
// with the GreedyC1 policy the engine forgets completed transactions as
// soon as Theorem 1's condition C1 allows. The example then shows the
// typed-error contract: a cycle-closing write fails with ErrCycle, a stray
// access with ErrMisroute, and operations on the dead session with
// ErrTxnAborted — all matched with errors.Is, never string parsing.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/txdel/client"
)

func main() {
	for _, policy := range []string{"nogc", "greedy-c1"} {
		fmt.Printf("== policy %s ==\n", policy)
		run(policy)
		fmt.Println()
	}
	errorTaxonomy()
}

func run(policy string) {
	db, err := client.Open(client.Config{
		Shards: 1,
		Policy: policy,
		Verify: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	const x = client.Entity(0)

	// T1: the long-running reader (still active while others commit).
	reader, err := db.Begin(ctx, client.WithFootprint(x))
	if err != nil {
		log.Fatal(err)
	}
	if err := reader.Read(ctx, x); err != nil {
		log.Fatal(err)
	}
	// Two serial read-modify-writes of x.
	for i := 0; i < 2; i++ {
		txn, err := db.Begin(ctx, client.WithFootprint(x))
		if err != nil {
			log.Fatal(err)
		}
		if err := txn.Read(ctx, x); err != nil {
			log.Fatal(err)
		}
		if err := txn.Write(ctx, x); err != nil {
			log.Fatal(err)
		}
		s := db.Stats()
		fmt.Printf("  T%d committed; retained completed now %d (deleted so far: %d)\n",
			txn.ID(), s.Merged.Completed-s.Deleted, s.Deleted)
	}
	if err := reader.Write(ctx); err != nil { // read-only commit
		log.Fatal(err)
	}
	s := db.Stats()
	fmt.Printf("  peak retained completed: %d, deleted by GC: %d\n", s.Merged.PeakKept, s.Deleted)
	if err := db.Close(); err != nil {
		log.Fatalf("CSR verification failed: %v", err)
	}
	fmt.Println("  verify OK: accepted schedule is conflict serializable")
}

func errorTaxonomy() {
	fmt.Println("== typed errors ==")
	db, err := client.Open(client.Config{Shards: 2, Policy: "greedy-c1"})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	// Two transactions racing on entities 0 and 2 (both shard 0): the
	// second final write would close a cycle and is rejected.
	a, _ := db.Begin(ctx, client.WithFootprint(0, 2))
	b, _ := db.Begin(ctx, client.WithFootprint(0, 2))
	_ = a.Read(ctx, 0)
	_ = b.Read(ctx, 2)
	_ = b.Write(ctx, 0)
	err = a.Write(ctx, 2)
	fmt.Printf("  cycle-closing write: errors.Is(err, ErrCycle) = %v\n", errors.Is(err, client.ErrCycle))
	err = a.Read(ctx, 0)
	fmt.Printf("  read on dead session: errors.Is(err, ErrTxnAborted) = %v\n", errors.Is(err, client.ErrTxnAborted))

	// A session declared on shard 0 straying onto shard 1.
	m, _ := db.Begin(ctx, client.WithFootprint(0))
	err = m.Read(ctx, 1)
	fmt.Printf("  foreign access: errors.Is(err, ErrMisroute) = %v\n", errors.Is(err, client.ErrMisroute))
}
