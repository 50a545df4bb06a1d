package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ifot_test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := reg.Counter("ifot_test_total", "a counter"); again != c {
		t.Fatal("Counter is not get-or-create")
	}

	g := reg.Gauge("ifot_test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	reg.GaugeFunc("ifot_test_fn", "computed", func() float64 { return 42 })
	fn := reg.Gauge("ifot_test_fn", "computed")
	if got := fn.Value(); got != 42 {
		t.Fatalf("gauge func = %v, want 42", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("ifot_pub_total", "per topic", L("topic", "a"))
	b := reg.Counter("ifot_pub_total", "per topic", L("topic", "b"))
	if a == b {
		t.Fatal("different labels must create different series")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatal("label series share state")
	}
	if n := reg.SeriesCount("ifot_pub_total"); n != 2 {
		t.Fatalf("SeriesCount = %d, want 2", n)
	}
}

// TestConcurrentUpdates exercises every instrument from many goroutines;
// run with -race (the CI workflow does) to prove the registry is
// synchronization-clean.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	h := NewLogHistogram()
	RegisterQuantileGauges(reg, "ifot_conc_seconds", "h", h)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("ifot_conc_total", "c").Inc()
				reg.Gauge("ifot_conc_gauge", "g").Add(1)
				h.Observe(time.Duration(i) * time.Millisecond)
				if i%100 == 0 {
					var sb strings.Builder
					if err := reg.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("ifot_conc_total", "c").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("ifot_conc_gauge", "g").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ifot_msgs_total", "messages processed", L("topic", `weird"topic\n`)).Add(7)
	reg.Gauge("ifot_temp", "temperature").Set(21.5)
	h := NewLogHistogram()
	h.Observe(300 * time.Millisecond)
	RegisterQuantileGauges(reg, "ifot_lat_seconds", "latency", h)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP ifot_msgs_total messages processed\n",
		"# TYPE ifot_msgs_total counter\n",
		`ifot_msgs_total{topic="weird\"topic\\n"} 7` + "\n",
		"# TYPE ifot_temp gauge\n",
		"ifot_temp 21.5\n",
		"# TYPE ifot_lat_seconds gauge\n",
		`ifot_lat_seconds{quantile="max"} 0.3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && f[3] != "counter" && f[3] != "gauge" {
			t.Errorf("family %s has type %s; every family is a counter or a gauge", f[2], f[3])
		}
	}
	if parsed := parsePrometheus(t, out); len(parsed) == 0 {
		t.Fatal("parser found no samples")
	}
}

func TestSamplesWalk(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ifot_a_total", "a").Add(3)
	reg.Gauge("ifot_b", "b").Set(1.25)
	h := NewLogHistogram()
	h.Observe(500 * time.Millisecond)
	RegisterQuantileGauges(reg, "ifot_c_seconds", "c", h)
	samples := reg.Samples()
	got := make(map[string]float64, len(samples))
	for _, s := range samples {
		name := s.Name
		for _, l := range s.Labels {
			name += "/" + l.Value
		}
		got[name] = s.Value
	}
	for name, want := range map[string]float64{
		"ifot_a_total":       3,
		"ifot_b":             1.25,
		"ifot_c_seconds/max": 0.5,
	} {
		if got[name] != want {
			t.Errorf("sample %s = %v, want %v (all: %v)", name, got[name], want, got)
		}
	}
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid metric name")
		}
	}()
	NewRegistry().Counter("9bad name", "")
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ifot_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for kind mismatch")
		}
	}()
	reg.Gauge("ifot_x", "")
}
