package benchfmt

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	f := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {95, 4.8}, {100, 5}, {25, 2}, {-3, 1}, {140, 5},
	} {
		if got := Percentile(f, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v, %v) = %v, want %v", f, c.p, got, c.want)
		}
	}
	ns := []int64{10, 20, 40}
	if got := Percentile(ns, 75); !near(got, 30) {
		t.Errorf("Percentile(int64, 75) = %v, want 30", got)
	}
	if got := Percentile([]int64(nil), 50); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
}

// The highest reported percentile must leave at least ten samples beyond
// it, whatever the sample size.
func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}, {1_000_000, 99.999},
	} {
		got := TopPercentile(c.n)
		if got != c.want {
			t.Errorf("TopPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 && float64(c.n)*(100-got)/100 < 10-1e-6 {
			t.Errorf("TopPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}

// Quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the benchmark driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Errorf("Quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = Quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if !near(q1, 1.75) || !near(med, 3.5) || !near(q3, 5.25) {
		t.Errorf("Quartiles(unsorted) = %v %v %v, want 1.75 3.5 5.25", q1, med, q3)
	}
	// Two values: Python extrapolates beyond the data, and so must we.
	q1, med, q3 = Quartiles([]float64{10, 20})
	if !near(q1, 7.5) || !near(med, 15) || !near(q3, 22.5) {
		t.Errorf("Quartiles(10,20) = %v %v %v, want 7.5 15 22.5", q1, med, q3)
	}
	if q1, med, q3 = Quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("Quartiles(single) = %v %v %v", q1, med, q3)
	}
}

func TestSpread(t *testing.T) {
	s := Summarize("ms", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; !near(s.Spread(), want) {
		t.Errorf("Spread = %v, want %v", s.Spread(), want)
	}
	if got := Summarize("ratio", []float64{0, 0, 0}).Spread(); got != 0 {
		t.Errorf("Spread of constant zeros = %v, want 0", got)
	}
	if got := Summarize("ratio", []float64{0, 0, 0, 0, 1, 2}).Spread(); !math.IsInf(got, 1) {
		t.Errorf("Spread with a zero median and a tail = %v, want +Inf", got)
	}
}

func TestWorseByAndJudge(t *testing.T) {
	if got := WorseBy("lower", 100, 112); !near(got, 0.12) {
		t.Errorf("lower-is-better 100→112: worse by %v, want 0.12", got)
	}
	if got := WorseBy("higher", 100, 88); !near(got, 0.12) {
		t.Errorf("higher-is-better 100→88: worse by %v, want 0.12", got)
	}
	if got := WorseBy("higher", 100, 130); !near(got, -0.30) {
		t.Errorf("higher-is-better 100→130: worse by %v, want -0.30", got)
	}
	for _, c := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.05, 0.02, 0.10, StatusOK},
		{0.10, 0.02, 0.10, StatusOK}, // the bound itself is allowed
		{0.11, 0.02, 0.10, StatusRegression},
		{-0.40, 0.02, 0.10, StatusOK},
		{0.02, 0.15, 0.10, StatusUnresolved},
		{0.15, 0.15, 0.10, StatusUnresolved}, // past the bound but inside the noise decides nothing
		{0.50, 0.15, 0.10, StatusRegression}, // past the bound and the noise is a regression however noisy
	} {
		if got := Judge(c.worse, c.spread, c.bound); got != c.want {
			t.Errorf("Judge(%v, %v, %v) = %s, want %s", c.worse, c.spread, c.bound, got, c.want)
		}
	}
}

func testFile(flows, p50 []float64, failed int64) File {
	var runs []Run
	for i := range flows {
		runs = append(runs, Run{Workload: "w", Correct: true, Attempted: 1000, Failed: failed, Metrics: map[string]Metric{
			"flows_per_s": {Value: flows[i], Unit: "1/s"},
			"flow_p50_ms": {Value: p50[i], Unit: "ms"},
		}})
	}
	return File{Reps: len(flows), Workloads: []Workload{Summaries("w", "why", runs)}}
}

func TestCompare(t *testing.T) {
	spec := Spec{
		Workloads: []SpecWorkload{{Name: "w"}},
		EndToEnd: []SpecMetric{
			{Name: "flows_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "flow_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		},
	}
	base := testFile([]float64{1000, 1010, 990}, []float64{2.0, 2.02, 1.98}, 0)
	status := func(rows []Row) map[string]string {
		m := map[string]string{}
		for _, r := range rows {
			m[r.Metric] = r.Status
		}
		return m
	}

	rows, failed := Compare(spec, base, base)
	if failed {
		t.Errorf("a file compared with itself failed: %+v", rows)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want flows_per_s, flow_p50_ms and loss_ratio", len(rows))
	}

	slower := testFile([]float64{850, 860, 840}, []float64{2.0, 2.02, 1.98}, 0)
	rows, failed = Compare(spec, base, slower)
	if got := status(rows); !failed || got["flows_per_s"] != StatusRegression || got["flow_p50_ms"] != StatusOK {
		t.Errorf("15%% fewer flows/s: failed=%v statuses=%v", failed, got)
	}

	noisy := testFile([]float64{1000, 1010, 990}, []float64{1.0, 2.0, 3.0}, 0)
	rows, failed = Compare(spec, base, noisy)
	if got := status(rows); failed || got["flow_p50_ms"] != StatusUnresolved {
		t.Errorf("spread wider than the bound: failed=%v statuses=%v", failed, got)
	}

	// Noise does not excuse a head three times worse.
	tripled := testFile([]float64{1000, 1010, 990}, []float64{3.0, 6.0, 9.0}, 0)
	rows, failed = Compare(spec, base, tripled)
	if got := status(rows); !failed || got["flow_p50_ms"] != StatusRegression {
		t.Errorf("3x the latency inside a wide spread: failed=%v statuses=%v", failed, got)
	}

	// A metric neither file reports does not apply to the workload: no row.
	wider := spec
	wider.EndToEnd = append(wider.EndToEnd[:2:2], SpecMetric{Name: "train_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10})
	rows, failed = Compare(wider, base, base)
	if _, has := status(rows)["train_p50_ms"]; failed || has || len(rows) != 3 {
		t.Errorf("a metric absent from both files: failed=%v rows=%+v", failed, rows)
	}
	onlyBase := testFile([]float64{1000, 1010, 990}, []float64{2.0, 2.02, 1.98}, 0)
	onlyBase.Workloads[0].EndToEnd["train_p50_ms"] = Summarize("ms", []float64{1, 1, 1})
	rows, failed = Compare(wider, onlyBase, base)
	if got := status(rows); !failed || got["train_p50_ms"] != StatusMissing {
		t.Errorf("a metric only the base reports: failed=%v statuses=%v", failed, got)
	}

	lossy := testFile([]float64{1000, 1010, 990}, []float64{2.0, 2.02, 1.98}, 5)
	rows, failed = Compare(spec, base, lossy)
	if got := status(rows); !failed || got["loss_ratio"] != StatusRegression {
		t.Errorf("0.5%% loss where there was none: failed=%v statuses=%v", failed, got)
	}

	rows, failed = Compare(spec, base, File{})
	if got := status(rows); !failed || got["flows_per_s"] != StatusMissing {
		t.Errorf("a missing workload: failed=%v statuses=%v", failed, got)
	}
}

func TestSummariesSkipInvalidRuns(t *testing.T) {
	runs := []Run{
		{Correct: true, Attempted: 10, Metrics: map[string]Metric{"m": {Value: 1, Unit: "ms"}}},
		{Correct: true, Attempted: 10, Invalid: "generator ran late"},
		{Correct: true, Attempted: 10, Traced: true, Metrics: map[string]Metric{"layer.x": {Value: 4, Unit: "ns"}}},
	}
	w := Summaries("w", "why", runs)
	if got := w.EndToEnd["m"].Values; len(got) != 1 || got[0] != 1 {
		t.Errorf("end-to-end values = %v, want the one valid untraced run", got)
	}
	if got := w.PerLayer["layer.x"].Values; len(got) != 1 || got[0] != 4 {
		t.Errorf("per-layer values = %v, want the traced run", got)
	}
	if len(w.LossRatio.Values) != 1 || len(w.Runs) != 3 {
		t.Errorf("loss values %v, runs kept %d", w.LossRatio.Values, len(w.Runs))
	}
}
