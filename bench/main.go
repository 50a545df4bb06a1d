// Command bench is the repository's one live benchmark. It runs five
// workloads on the real stack — broker on loopback TCP, manager, neuron
// modules, a recipe deployed through the manager — and reports end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
//
// One workload, one run (what BENCHMARK.json's command does):
//
//	go run ./bench --workload fig9_paced --seed 1 --seconds 15 --trace 0
//
// Every workload, each run in a fresh child process, into one result file:
//
//	go run ./bench -reps 3 -out bench/out/result.json
//
// See README.md in this directory for the metrics, the workloads and why
// they were chosen, and bench/compare for judging two result files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/ifot-middleware/ifot/bench/benchfmt"
)

// runBudget is how long one run may take, repeats included: a run whose
// open-loop generator ran late is repeated while another attempt fits.
const runBudget = 150 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (empty = every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds  = flag.Int("seconds", 15, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
		reps     = flag.Int("reps", 1, "suite: repetitions, workloads interleaved; medians and quartiles are recorded")
		out      = flag.String("out", "", "suite: result file (default <out-dir>/result.json)")
		outDir   = flag.String("out-dir", filepath.Join("bench", "out"), "directory for spans, profiles, per-run files and durable stores")
	)
	flag.Parse()
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *workload != "" {
		os.Exit(runOne(*workload, *seed, *seconds, *trace != 0, *outDir))
	}
	if *out == "" {
		*out = filepath.Join(*outDir, "result.json")
	}
	if err := runSuite(*seed, *seconds, *reps, *outDir, *out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func runFile(outDir, workload string, traced bool, seed int64) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-%s-seed%d.json", workload, kind, seed))
}

// runOne measures one workload in this process, prints every metric by
// name and unit, writes the full run next to the other outputs, and ends
// standard output with the result line. An invalid run — an output check
// failed, or the generator still ran late on the last attempt that fits
// runBudget — is not reported: no result line, exit code 1, and a run
// file that holds the reason and no numbers.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) int {
	def := findWorkload(name)
	if def == nil {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	cfg := runConfig{workload: name, seed: seed, window: time.Duration(seconds) * time.Second, warmup: warmup,
		outDir: outDir, scratch: filepath.Join(outDir, fmt.Sprintf("stores-%d", os.Getpid()))}
	defer os.RemoveAll(cfg.scratch) // each stack removes its stores; this takes the rest
	var run *benchfmt.Run
	for cfg.began = procStart; ; cfg.began = time.Now() {
		var err error
		if traced {
			run, err = tracedRun(def, cfg)
		} else {
			run, err = untracedRun(def, cfg)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if !run.Repeat || time.Since(procStart)+time.Since(cfg.began) > runBudget {
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %s; repeating the run\n", name, run.Invalid)
	}
	printRun(run)
	if run.Invalid != "" {
		run.Metrics = nil
	}
	if data, err := json.MarshalIndent(run, "", "  "); err == nil {
		_ = os.WriteFile(runFile(outDir, name, traced, seed), append(data, '\n'), 0o644) // the result line below is what counts
	}
	if run.Invalid != "" {
		return 1
	}
	line, err := json.Marshal(benchfmt.Line{Correct: true, Attempted: run.Attempted, Failed: run.Failed, Metrics: lineMetrics(run)})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return 0
}

// lineMetrics fills the result line: the benchmark contract wants every
// listed metric on every run, so a metric that does not apply to the
// workload gets a stand-in there and only there (the report prints it as
// n/a, and run and result files leave it out). broker_relay has no learner
// and no judge: its train_ and predict_ timings repeat flow_, the latency
// to its only sink. A per-layer metric that does not apply reads 0.
func lineMetrics(r *benchfmt.Run) map[string]benchfmt.Metric {
	order := endToEnd
	if r.Traced {
		order = perLayer
	}
	out := make(map[string]benchfmt.Metric, len(order))
	for _, sm := range order {
		m, ok := r.Metrics[sm.Name]
		if !ok && !r.Traced {
			_, percentile, _ := strings.Cut(sm.Name, "_")
			m, ok = r.Metrics["flow_"+percentile]
		}
		if !ok {
			m = benchfmt.Metric{Unit: sm.Unit}
		}
		out[sm.Name] = m
	}
	return out
}

// printRun lists every metric by name with its unit, then the checks.
func printRun(r *benchfmt.Run) {
	kind := "untraced, end-to-end metrics"
	order := endToEnd
	if r.Traced {
		kind, order = "traced, per-layer metrics", perLayer
	}
	fmt.Printf("== %s  seed %d  window %.2f s  (%s)\n", r.Workload, r.Seed, r.WindowS, kind)
	for _, sm := range order {
		if m, ok := r.Metrics[sm.Name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", sm.Name, m.Value, m.Unit)
		} else {
			fmt.Printf("  %-34s %14s\n", sm.Name, "n/a")
		}
	}
	fmt.Printf("  %-34s %14d of %d\n", "failed", r.Failed, r.Attempted)
	keys := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  detail.%-27s %14.4f %s\n", k, r.Detail[k].Value, r.Detail[k].Unit)
	}
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("  check %-22s %s  %s\n", c.Name, verdict, c.Detail)
	}
	if r.Invalid != "" {
		fmt.Printf("  INVALID: %s\n", r.Invalid)
	}
}

// runSuite runs every workload reps times, interleaved so that drift on
// the host spreads over all of them, each run in a fresh child process of
// this binary, and writes one result file.
func runSuite(seed int64, seconds, reps int, outDir, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runs := map[string][]benchfmt.Run{}
	failed := false
	for rep := 0; rep < reps; rep++ {
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				run, err := runChild(self, w.name, seed+int64(rep), seconds, traced, outDir)
				if err != nil {
					return err
				}
				failed = failed || run.Invalid != ""
				runs[w.name] = append(runs[w.name], *run)
			}
		}
	}
	file := benchfmt.File{Host: hostInfo(), Seed: seed, WindowS: float64(seconds), WarmupS: warmup.Seconds(), Reps: reps}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, benchfmt.Summaries(w.name, w.why, runs[w.name]))
	}
	if err := benchfmt.WriteFile(out, file); err != nil {
		return err
	}
	printSuite(file)
	fmt.Printf("result file: %s\n", out)
	if failed {
		return errors.New("a run was invalid; see the INVALID runs above")
	}
	return nil
}

// runChild runs one workload once in a child process and reads back the
// run it recorded. The child's own report goes to standard error.
func runChild(self, name string, seed int64, seconds int, traced bool, outDir string) (*benchfmt.Run, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	path := runFile(outDir, name, traced, seed)
	_ = os.Remove(path) // a stale file must not stand in for a child that died
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", trace, "--out-dir", outDir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: child left no result (%v): %w", name, runErr, err)
	}
	var run benchfmt.Run
	if err := json.Unmarshal(data, &run); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &run, nil
}

// printSuite prints each workload's medians with quartile spread.
func printSuite(f benchfmt.File) {
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s, kernel %s, commit %s\n", f.Host.NProc, f.Host.GOMAXPROCS, f.Host.GoVersion, f.Host.Kernel, f.Host.Commit)
	fmt.Printf("transport: %s\nseed %d, window %.0f s after %.0f s warm-up, %d repetition(s)\n", f.Host.Transport, f.Seed, f.WindowS, f.WarmupS, f.Reps)
	row := func(name string, s benchfmt.Summary) {
		fmt.Printf("  %-34s %14.4f %-6s q1 %.4f  q3 %.4f  spread %.2f%%  n=%d\n", name, s.Median, s.Unit, s.Q1, s.Q3, 100*s.Spread(), len(s.Values))
	}
	for _, w := range f.Workloads {
		fmt.Printf("== %s\n", w.Name)
		for _, sm := range endToEnd {
			if s, ok := w.EndToEnd[sm.Name]; ok {
				row(sm.Name, s)
			}
		}
		row("loss_ratio", w.LossRatio)
		for _, sm := range perLayer {
			if s, ok := w.PerLayer[sm.Name]; ok {
				row(sm.Name, s)
			}
		}
		for _, r := range w.Runs {
			if r.Invalid != "" {
				fmt.Printf("  INVALID run (seed %d, traced %v): %s\n", r.Seed, r.Traced, r.Invalid)
			}
		}
	}
}
