// Command compare judges two result files of the benchmark against the
// bounds in BENCHMARK.json:
//
//	go run ./bench/compare base.json head.json
//
// It prints one row per (metric, workload) pairing with both medians, the
// ratio and its base, and the verdict: REGRESSION when head is worse than
// base by more than the metric's bound and the run-to-run quartile spread
// recorded in either file; unresolved when that spread is wider than the
// bound and head is not worse by more than it, so that a change of the
// bound's size could not be told from noise; ok otherwise. BENCHMARK.json
// is read from the working directory, the repository root. It exits
// non-zero on a regression, a missing pairing, or a loss_ratio that rose by
// more than benchfmt.LossBound.
package main

import (
	"fmt"
	"os"

	"github.com/ifot-middleware/ifot/bench/benchfmt"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare base.json head.json")
		os.Exit(2)
	}
	spec, err := benchfmt.ReadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	base, err := benchfmt.ReadFile(os.Args[1])
	if err != nil {
		fatal(err)
	}
	head, err := benchfmt.ReadFile(os.Args[2])
	if err != nil {
		fatal(err)
	}
	if base.Host.Kernel != head.Host.Kernel || base.Host.NProc != head.Host.NProc || base.WindowS != head.WindowS {
		fmt.Printf("warning: the files differ in host or window (%d CPUs %s %.0f s vs %d CPUs %s %.0f s); numbers from different hosts are not comparable\n",
			base.Host.NProc, base.Host.Kernel, base.WindowS, head.Host.NProc, head.Host.Kernel, head.WindowS)
	}
	rows, failed := benchfmt.Compare(spec, base, head)
	fmt.Printf("base %s (commit %s, %d reps)   head %s (commit %s, %d reps)\n",
		os.Args[1], base.Host.Commit, base.Reps, os.Args[2], head.Host.Commit, head.Reps)
	fmt.Printf("%-14s %-18s %14s %14s %-5s %10s %9s %8s %8s  %s\n",
		"workload", "metric", "base", "head", "unit", "head/base", "worse by", "bound", "spread", "verdict")
	unresolved := 0
	for _, r := range rows {
		if r.Status == benchfmt.StatusUnresolved {
			unresolved++
		}
		if r.Status == benchfmt.StatusMissing {
			fmt.Printf("%-14s %-18s %14s %14s %-5s %10s %9s %8.3f %8s  %s\n", r.Workload, r.Metric, "-", "-", r.Unit, "-", "-", r.Bound, "-", r.Status)
			continue
		}
		worse := fmt.Sprintf("%+.2f%%", 100*r.WorseBy)
		if r.Metric == "loss_ratio" {
			worse = fmt.Sprintf("%+.5f", r.WorseBy) // absolute, see benchfmt.LossBound
		}
		fmt.Printf("%-14s %-18s %14.4f %14.4f %-5s %10.4f %9s %8.3f %7.2f%%  %s\n",
			r.Workload, r.Metric, r.Base, r.Head, r.Unit, r.Ratio, worse, r.Bound, 100*r.Spread, r.Status)
	}
	fmt.Printf("%d pairings, %d unresolved\n", len(rows), unresolved)
	if failed {
		fmt.Println("FAIL: a pairing regressed, is missing, or lost more flows")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}
