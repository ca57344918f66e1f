// Command txgc-trace runs a synthetic workload through the conflict-graph
// scheduler under a chosen deletion policy and prints a per-step trace of
// graph size, retained completed transactions, and deletions — the raw
// series behind experiment E7's retention table.
//
// Usage:
//
//	txgc-trace -policy greedy-c1 -txns 100 -entities 16 -every 10
//	txgc-trace -policy nogc -straggler 20 -csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

func main() {
	var (
		policyName = flag.String("policy", "greedy-c1", "deletion policy: nogc, lemma1, greedy-c1, greedy-c1-newest, max-safe, noncurrent-safe, commit-gc-unsafe")
		entities   = flag.Int("entities", 16, "database size")
		txns       = flag.Int("txns", 100, "transactions to issue")
		maxActive  = flag.Int("active", 5, "max concurrent active transactions")
		straggler  = flag.Int("straggler", 0, "reads performed by one long-running straggler (0 = none)")
		hotFrac    = flag.Float64("hot", 0, "hotspot fraction (0 = uniform)")
		zipf       = flag.Float64("zipf", 0, "zipf skew s > 1 (0 = disabled)")
		seed       = flag.Int64("seed", 1, "workload seed")
		every      = flag.Int("every", 1, "print every Nth step")
		csv        = flag.Bool("csv", false, "CSV output")
	)
	flag.Parse()

	var policy core.Policy // nil (nogc) never deletes
	if *policyName == "commit-gc-unsafe" {
		policy = core.CommitGC{} // the negative control is known only here
	} else if mk, ok := core.PolicyByName(*policyName); !ok {
		fmt.Fprintf(os.Stderr, "txgc-trace: unknown policy %q\n", *policyName)
		os.Exit(2)
	} else if mk != nil {
		policy = mk()
	}
	s := core.NewScheduler(core.Config{Policy: policy})
	gen := workload.New(workload.Config{
		Entities: *entities, Txns: *txns, MaxActive: *maxActive,
		ReadsMin: 1, ReadsMax: 4, WritesMin: 1, WritesMax: 2,
		Straggler: *straggler, HotFrac: *hotFrac, ZipfS: *zipf, Seed: *seed,
	})

	if *csv {
		fmt.Println("step,kind,txn,accepted,nodes,active,completed,arcs,deleted_total")
	} else {
		fmt.Printf("%6s  %-18s %-8s %6s %7s %10s %6s %8s\n",
			"step", "input", "outcome", "nodes", "active", "completed", "arcs", "deleted")
	}
	var n int
	for {
		step, ok := gen.Next()
		if !ok {
			break
		}
		res, err := s.Apply(step)
		if err != nil {
			fmt.Fprintf(os.Stderr, "txgc-trace: %v\n", err)
			os.Exit(1)
		}
		if !res.Accepted {
			gen.NotifyAbort(step.Txn)
		}
		n++
		if n%*every != 0 {
			continue
		}
		st := s.Stats()
		if *csv {
			fmt.Printf("%d,%s,%d,%v,%d,%d,%d,%d,%d\n",
				n, step.Kind, step.Txn, res.Accepted,
				s.Graph().NumNodes(), s.NumActive(), s.NumCompleted(),
				s.Graph().NumArcs(), st.Deleted)
		} else {
			outcome := "ok"
			if !res.Accepted {
				outcome = "ABORT"
			}
			fmt.Printf("%6d  %-18s %-8s %6d %7d %10d %6d %8d\n",
				n, step.String(), outcome,
				s.Graph().NumNodes(), s.NumActive(), s.NumCompleted(),
				s.Graph().NumArcs(), st.Deleted)
		}
	}
	st := s.Stats()
	fmt.Fprintf(os.Stderr,
		"done: %d steps, %d accepted, %d aborts, %d completed, %d deleted, peak kept %d, avg kept %.2f\n",
		n, st.Accepted, st.Aborts, st.Completed, st.Deleted, st.PeakKept, st.AvgKept())
	_ = model.NoTxn
}
