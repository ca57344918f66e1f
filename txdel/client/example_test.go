package client_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/txdel/client"
)

// Example_session opens a sharded DB, runs one read-modify-write session,
// and shows the typed-error contract: a nil Write means committed, and a
// failed operation is classified by errors.Is.
func Example_session() {
	db, err := client.Open(client.Config{Shards: 2, Policy: "greedy-c1"})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	txn, err := db.Begin(ctx, client.WithFootprint(0))
	if err != nil {
		log.Fatal(err)
	}
	if err := txn.Read(ctx, 0); err != nil {
		log.Fatal(err)
	}
	if err := txn.Write(ctx, 0); err == nil {
		fmt.Println("committed T", txn.ID())
	}

	// A dead session answers every operation with ErrTxnAborted.
	ghost, _ := db.Begin(ctx, client.WithFootprint(0))
	_ = ghost.Abort()
	err = ghost.Read(ctx, 0)
	fmt.Println("after abort:", errors.Is(err, client.ErrTxnAborted))
	// Output:
	// committed T 1
	// after abort: true
}

// Example_crossShard runs a transaction whose footprint spans two
// partitions: its reads apply immediately on their owning shards and the
// final Write commits through the cross-shard two-phase protocol (one
// PREPARE per participant, then COMMIT).
func Example_crossShard() {
	db, err := client.Open(client.Config{Shards: 4, Policy: "greedy-c1"})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	// Entities 0 and 1 live on different shards: a cross-partition session.
	txn, err := db.Begin(ctx, client.WithFootprint(0, 1))
	if err != nil {
		log.Fatal(err)
	}
	if err := txn.Read(ctx, 0); err != nil {
		log.Fatal(err)
	}
	if err := txn.Read(ctx, 1); err != nil {
		log.Fatal(err)
	}
	if err := txn.Write(ctx, 0, 1); err != nil {
		log.Fatal(err)
	}
	s := db.Stats()
	fmt.Println("cross transactions:", s.CrossTxns)
	fmt.Println("prepares:", s.Prepares)
	// Output:
	// cross transactions: 1
	// prepares: 2
}
