package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON is the shape of the contract file at the repository root.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameMetrics holds one BENCHMARK.json list against the program's own.
func sameMetrics(t *testing.T, list string, got []benchMetric, want []metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", list, len(got), len(want))
	}
	byName := map[string]benchMetric{}
	for _, m := range got {
		byName[m.Name] = m
	}
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: bad metric name %q", list, m.Name)
		}
		if b := byName[m.Name]; b.Unit != m.Unit || b.Better != m.better() {
			t.Errorf("%s: %s is {%s, %s} in the program, {%s, %s} in BENCHMARK.json", list, m.Name, m.Unit, m.better(), b.Unit, b.Better)
		}
	}
}

// TestSmoke runs every workload — tracing off, then traced with every
// ladder rung — for one short window on a temp dir, and holds the names it
// emits against BENCHMARK.json: none missing, none extra.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "end_to_end", doc.EndToEnd, e2eMetrics)
	sameMetrics(t, "per_layer", doc.PerLayer, layerMetrics)
	var gated []string
	for i := range specs {
		if !nameRE.MatchString(specs[i].Name) {
			t.Errorf("bad workload name %q", specs[i].Name)
		}
		if !specs[i].SuiteOnly {
			gated = append(gated, specs[i].Name)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program gates %v", len(doc.Workloads), gated)
	}
	for i, w := range doc.Workloads {
		if i < len(gated) && w.Name != gated[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, gated[i])
		}
		if sp := specByName(w.Name); sp != nil && sp.Why != w.Why {
			t.Errorf("%s: the why sentences differ", w.Name)
		}
	}

	work := t.TempDir()
	e, err := newEnv(root, work, filepath.Join(work, "out"))
	if err != nil {
		t.Fatal(err)
	}
	e.setups = 1
	for i := range specs {
		sp := specs[i] // a copy, scaled down to a fraction of a second
		sp.Warmup = 200
		sp.LadderTxns /= 40
		sp.SegmentTxns = min(sp.SegmentTxns, sp.LadderTxns)
		for _, traced := range []bool{false, true} {
			res, err := runOne(e, &sp, 1, 0.4, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.Name, traced, err)
			}
			for _, p := range res.problems {
				t.Errorf("%s traced=%v: check failed: %s", sp.Name, traced, p)
			}
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int64                      `json:"attempted"`
				Failed    int64                      `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(res, traced)), &line); err != nil {
				t.Fatal(err)
			}
			want := doc.EndToEnd
			if traced {
				want = doc.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", sp.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := line.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: %s is in BENCHMARK.json and was not emitted", sp.Name, traced, m.Name)
				}
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.Name, traced, line.Correct, line.Attempted, line.Failed)
			}
			if err := writeOutputs(e, sp.Name, 1, traced, res); err != nil {
				t.Error(err)
			}
		}
		if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+sp.Name+".jsonl")); err != nil {
			t.Errorf("%s: span log not written: %v", sp.Name, err)
		}
	}
}
