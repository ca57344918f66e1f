package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// suiteRun is one pass over every workload.
type suiteRun map[string]*result

// runWorkloads runs every workload once: tracing off, and (if traced) the
// traced run with its ladder as well. It reports whether every output
// check held.
func runWorkloads(e *env, seed int64, seconds float64, traced bool) (suiteRun, bool) {
	out, ok := suiteRun{}, true
	for i := range specs {
		sp := &specs[i]
		modes := []bool{false}
		if traced {
			modes = append(modes, true)
		}
		for _, tr := range modes {
			res, err := runOne(e, sp, seed, seconds, tr, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.Name, err)
				ok = false
				continue
			}
			printResult(os.Stdout, sp.Name, res)
			if err := writeOutputs(e, sp.Name, seed, tr, res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.Name, err)
				ok = false
			}
			ok = ok && len(res.problems) == 0
			if !tr {
				out[sp.Name] = res
			}
		}
	}
	return out, ok
}

// runSuite is `go run ./benchmark -seed N`: every workload end to end with
// tracing off, then traced with the ladder; every metric printed by name
// and unit; non-zero exit if any output check failed.
func runSuite(e *env, seed int64, seconds float64) int {
	if _, ok := runWorkloads(e, seed, seconds, true); !ok {
		fmt.Println("FAIL: an output check did not hold")
		return 1
	}
	fmt.Println("ok: every output check held")
	return 0
}

// bounds reads each end-to-end metric's bound from BENCHMARK.json, the one
// place they are recorded.
func bounds(e *env) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("-aa reads the bounds from BENCHMARK.json: %w", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	b := map[string]float64{}
	for _, m := range doc.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b, nil
}

// runAA runs the end-to-end suite twice on one seed and once on the next,
// and holds every metric × workload pair of the same code against the
// metric's bound: a benchmark that cannot agree with itself cannot judge
// a change.
func runAA(e *env, seed int64, seconds float64) int {
	bound, err := bounds(e)
	if err != nil {
		fatal(err)
	}
	a, okA := runWorkloads(e, seed, seconds, false)
	b, okB := runWorkloads(e, seed, seconds, false)
	c, okC := runWorkloads(e, seed+1, seconds, false)
	bad := !okA || !okB || !okC
	fmt.Printf("%-16s %-14s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "A", "B(same seed)", "C(seed+1)", "|A-B|/A", "|A-C|/A", "bound")
	for i := range specs {
		name := specs[i].Name
		if a[name] == nil || b[name] == nil || c[name] == nil {
			continue
		}
		for _, m := range e2eMetrics {
			va, vb, vc := a[name].metrics[m.Name], b[name].metrics[m.Name], c[name].metrics[m.Name]
			dab, dac := math.Abs(va-vb)/math.Max(math.Abs(va), 1e-12), math.Abs(va-vc)/math.Max(math.Abs(va), 1e-12)
			flag := ""
			if dab > bound[m.Name] || dac > bound[m.Name] {
				flag = "  DISAGREE"
				// A suite-only workload carries no bound: shown, not gated.
				bad = bad || !specs[i].SuiteOnly
			}
			fmt.Printf("%-16s %-14s %12.4f %12.4f %12.4f %8.3f %8.3f %6.2f%s\n", name, m.Name, va, vb, vc, dab, dac, bound[m.Name], flag)
		}
	}
	if bad {
		fmt.Println("FAIL: two sets of runs of the same code disagree by more than a bound, or a check failed")
		return 1
	}
	fmt.Println("ok: every end-to-end pair agrees within its bound")
	return 0
}
