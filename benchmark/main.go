// Command benchmark is the repository's benchmark: four named workloads
// driven end to end through both doors users have (a real txgc-serve
// process over loopback TCP, and txdel/client embedded in this process),
// plus a traced ladder run that times each module's public calls from
// outside: graph → core → ring → store → engine → client → serve.
//
//	bash benchmark/run.sh -seed 7                        # every workload, traced and untraced
//	bash benchmark/run.sh -workload wal-batch -trace 0   # one run, as the driver makes it
//	bash benchmark/run.sh -workload wal-batch -trace 1 -rung store
//	bash benchmark/run.sh -aa                            # two sets of runs must agree
//
// The package is a module of its own (go.mod beside this file replaces
// repro with the parent directory), so the repository's build and tests do
// not depend on it. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print one JSON result line (empty: the whole suite)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 56, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and the layer ladder")
		rung         = flag.String("rung", "", "with -workload and -trace 1: run only this ladder rung (graph, core, ring, store, engine, emit, client, serve)")
		aa           = flag.Bool("aa", false, "run the suite twice on -seed and once on seed+1 and compare every end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	e, err := newEnv(root, filepath.Join(root, ".bench_build"), filepath.Join(root, "benchmark", "out"))
	if err != nil {
		fatal(err)
	}
	switch {
	case *aa:
		os.Exit(runAA(e, *seed, *seconds))
	case *workloadName == "":
		os.Exit(runSuite(e, *seed, *seconds))
	}
	sp := specByName(*workloadName)
	if sp == nil {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	res, err := runOne(e, sp, *seed, *seconds, *trace == 1, *rung)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stderr, sp.Name, res)
	if err := writeOutputs(e, sp.Name, *seed, *trace == 1, res); err != nil {
		fatal(err)
	}
	fmt.Println(driverLine(res, *trace == 1))
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// repoRoot finds the repository from the two places the program is started
// in: the root itself (run.sh) and benchmark/ (go run, go test).
func repoRoot() (string, error) {
	for _, d := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(d, "cmd", "txgc-serve")); err == nil {
			return filepath.Abs(d)
		}
	}
	return "", errors.New("start the benchmark from the repository root or from benchmark/")
}

// newEnv prepares the scratch and output directories and builds the
// server from the source under root.
func newEnv(root, workDir, outDir string) (*env, error) {
	for _, d := range []string{workDir, outDir} {
		if err := os.MkdirAll(d, 0o777); err != nil {
			return nil, err
		}
	}
	bin, err := buildServer(root, workDir)
	if err != nil {
		return nil, err
	}
	return &env{root: root, workDir: workDir, outDir: outDir, serverBin: bin, setups: 5}, nil
}

// runOne is one run of one workload: the end-to-end run with tracing off,
// or the traced end-to-end run followed by the ladder.
func runOne(e *env, sp *spec, seed int64, seconds float64, traced bool, rung string) (*result, error) {
	run := runTCP
	if sp.Door == "embedded" {
		run = runEmbedded
	}
	if !traced {
		return run(e, sp, seed, seconds, false)
	}
	// The traced run splits its time: half for the end-to-end phases with
	// spans on, the rest for the ladder's fixed-count rungs.
	res, err := run(e, sp, seed, seconds/2, true)
	if err != nil {
		return nil, err
	}
	if err := runLadder(e, sp, seed, rung, res); err != nil {
		return nil, err
	}
	return res, nil
}

// driverLine is the one-line JSON result the benchmark contract asks for.
func driverLine(res *result, traced bool) string {
	list := e2eMetrics
	if traced {
		list = layerMetrics
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: len(res.problems) == 0, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]mv{}}
	for _, m := range list {
		out.Metrics[m.Name] = mv{Value: res.metrics[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// printResult prints every metric the run produced, by name, with unit
// and sample count, then the checks that failed.
func printResult(w *os.File, name string, res *result) {
	fmt.Fprintf(w, "== %s\n", name)
	for _, list := range [][]metric{e2eMetrics, layerMetrics} {
		for _, m := range list {
			v, ok := res.metrics[m.Name]
			if !ok {
				continue
			}
			n := ""
			if c := res.samples[m.Name]; c > 0 {
				n = fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Fprintf(w, "  %-28s %14.4f %-6s%s\n", m.Name, v, m.Unit, n)
		}
	}
	for _, s := range res.notes {
		fmt.Fprintf(w, "  NOTE: %s\n", s)
	}
	for _, s := range res.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", s)
	}
}

// hostBlock describes the machine, so the shared-core caveat travels with
// every number.
func hostBlock(e *env) map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goversion":  runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(b))
	}
	h["data_dir_fs"] = fsTypeOf(e.workDir)
	return h
}

// fsTypeOf finds the filesystem type of the longest mount point that
// prefixes path.
func fsTypeOf(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// writeOutputs writes the run's result file and, for a traced run, the
// sampled span log.
func writeOutputs(e *env, name string, seed int64, traced bool, res *result) error {
	type mv struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Layer   string  `json:"layer,omitempty"`
		Samples int64   `json:"samples,omitempty"`
		Moves   string  `json:"predicted_to_move,omitempty"`
	}
	metrics := map[string]mv{}
	for _, list := range [][]metric{e2eMetrics, layerMetrics} {
		for _, m := range list {
			if v, ok := res.metrics[m.Name]; ok {
				metrics[m.Name] = mv{v, m.Unit, m.Layer, res.samples[m.Name], m.Moves}
			}
		}
	}
	sort.Strings(res.problems)
	doc := map[string]any{
		"workload": specByName(name),
		"seed":     seed,
		"traced":   traced,
		"host":     hostBlock(e),
		"metrics":  metrics,
		"correct":  len(res.problems) == 0,
		"problems": res.problems,
		"notes":    res.notes,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if traced {
		mode = "traced"
		if err := res.log.writeJSONL(filepath.Join(e.outDir, "trace-"+name+".jsonl")); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(e.outDir, fmt.Sprintf("result-%s-%s.json", name, mode)), append(b, '\n'), 0o666)
}
