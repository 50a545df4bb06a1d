package telemetry

import (
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
)

func TestTracerSpansAndTraces(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	tr := NewTracer(clk, 16)
	key := TraceKey{Recipe: "heatstroke", TaskID: "t1", Seq: 7}

	start := clk.Now()
	clk.Advance(5 * time.Millisecond)
	tr.ObserveStage(key, "publish", "sensor-0", start, clk.Now())

	tr.ObserveStage(key, "broker", "broker", clk.Now(), clk.Now().Add(2*time.Millisecond))
	clk.Advance(2 * time.Millisecond)
	tr.ObserveStage(key, "analyze", "learn-0", clk.Now(), clk.Now().Add(10*time.Millisecond))

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	trace := traces[0]
	if trace.Key != key {
		t.Fatalf("key = %+v", trace.Key)
	}
	if len(trace.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(trace.Spans))
	}
	if got := trace.Spans[0].Stage; got != "publish" {
		t.Fatalf("first span stage = %s (want publish, spans sorted by start)", got)
	}
	if got, want := trace.Duration(), 17*time.Millisecond; got != want {
		t.Fatalf("trace duration = %v, want %v", got, want)
	}
	if got, want := trace.Spans[0].Duration(), 5*time.Millisecond; got != want {
		t.Fatalf("publish span duration = %v, want %v", got, want)
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(clock.NewVirtual(time.Unix(0, 0)), 4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Key: TraceKey{Seq: uint32(i)}, Stage: "s"})
	}
	if got := tr.TotalSpans(); got != 10 {
		t.Fatalf("TotalSpans = %d, want 10", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained = %d, want capacity 4", len(spans))
	}
	for i, s := range spans {
		if want := uint32(6 + i); s.Key.Seq != want {
			t.Fatalf("span[%d].Seq = %d, want %d (oldest-first after wrap)", i, s.Key.Seq, want)
		}
	}
	// Stage stats survive eviction: they aggregate over all 10 spans.
	stats := tr.StageStats()
	if len(stats) != 1 || stats[0].Count != 10 {
		t.Fatalf("stage stats = %+v, want one stage with count 10", stats)
	}
}

func TestTracerStageStats(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	tr := NewTracer(clk, 8)
	base := clk.Now()
	tr.ObserveStage(TraceKey{Seq: 1}, "publish", "", base, base.Add(2*time.Millisecond))
	tr.ObserveStage(TraceKey{Seq: 2}, "publish", "", base, base.Add(4*time.Millisecond))
	tr.ObserveStage(TraceKey{Seq: 1}, "broker", "", base, base.Add(1*time.Millisecond))

	stats := tr.StageStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Stage != "publish" || stats[1].Stage != "broker" {
		t.Fatalf("stage order = %v, want first-seen order", []string{stats[0].Stage, stats[1].Stage})
	}
	if stats[0].Count != 2 || stats[0].Mean != 3*time.Millisecond || stats[0].Max != 4*time.Millisecond {
		t.Fatalf("publish stats = %+v", stats[0])
	}

	tr.Reset()
	if len(tr.StageStats()) != 0 || tr.TotalSpans() != 0 || len(tr.Spans()) != 0 {
		t.Fatal("Reset did not clear tracer")
	}
}

func TestTracerNegativeDurationClamped(t *testing.T) {
	tr := NewTracer(nil, 2)
	now := time.Now()
	tr.ObserveStage(TraceKey{}, "skewed", "", now, now.Add(-time.Second))
	if d := tr.Spans()[0].Duration(); d != 0 {
		t.Fatalf("duration = %v, want clamped to 0", d)
	}
}

// TestTracerConcurrent hammers Record/Spans/Traces/StageStats/Drain from
// many goroutines with a ring small enough to wrap constantly; meaningful
// under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(nil, 8)
	tr.SetExportBuffer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := TraceKey{TaskID: "t", Seq: uint32(id)}
			for i := 0; i < 500; i++ {
				tr.ObserveStage(key, "stage", "mod", tr.Now(), tr.Now())
				if i%50 == 0 {
					_ = tr.Spans()
					_ = tr.Traces()
					_ = tr.StageStats()
					_ = tr.Drain()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.TotalSpans(); got != 8*500 {
		t.Fatalf("TotalSpans = %d, want %d", got, 8*500)
	}
	if got := len(tr.Spans()); got != 8 {
		t.Fatalf("retained = %d, want 8", got)
	}
}

func TestNewTracerDefaults(t *testing.T) {
	tr := NewTracer(nil, 0)
	if tr.Capacity() != DefaultTraceCapacity {
		t.Fatalf("capacity = %d, want %d", tr.Capacity(), DefaultTraceCapacity)
	}
	if tr.Now().IsZero() {
		t.Fatal("nil clock should fall back to wall clock")
	}
}

func TestTracerExportQueue(t *testing.T) {
	tr := NewTracer(clock.NewVirtual(time.Unix(0, 0)), 8)
	s := Span{Key: TraceKey{Recipe: "r"}, Stage: "publish"}
	tr.Record(s) // export off: recorded, not queued
	tr.SetExportBuffer(2)
	for i := 0; i < 4; i++ {
		tr.Record(s) // the last two overflow: dropped, not blocking
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	if spans := tr.Drain(); len(spans) != 2 {
		t.Fatalf("Drain = %d spans, want 2", len(spans))
	}
	if spans := tr.Drain(); spans != nil {
		t.Fatalf("second Drain = %v, want nil (Drain empties the queue)", spans)
	}
	// Export shedding never touches the ring or the stage table.
	if got := len(tr.Spans()); got != 5 {
		t.Fatalf("ring retained %d, want all 5", got)
	}
	if stats := tr.StageStats(); len(stats) != 1 || stats[0].Count != 5 {
		t.Fatalf("stage stats = %+v, want one stage with count 5", stats)
	}
	// The queue accepts again after a drain; the drop counter is cumulative.
	tr.Record(s)
	payload := tr.ExportBatch("modA", time.Unix(9, 0))
	batch, err := DecodeSpanBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Module != "modA" || batch.Dropped != 2 || len(batch.Spans) != 1 {
		t.Fatalf("export batch = %+v, want 1 span from modA with dropped=2", batch)
	}
	if tr.ExportBatch("modA", time.Unix(10, 0)) != nil {
		t.Fatal("ExportBatch with nothing pending should be nil")
	}
}

// TestTracerLateBindRegistersSeenStages binds the registry after a stage
// already has spans: its gauges must appear at bind time, not wait for a
// stage that never comes again.
func TestTracerLateBindRegistersSeenStages(t *testing.T) {
	tr := NewTracer(clock.NewVirtual(time.Unix(0, 0)), 8)
	base := time.Unix(0, 0)
	tr.ObserveStage(TraceKey{Seq: 1}, "judge", "", base, base.Add(3*time.Millisecond))
	reg := NewRegistry()
	tr.BindRegistry(reg, "")
	got := scrape(t, reg)
	for _, q := range []string{"0.5", "0.95", "0.99", "max"} {
		if v, ok := got[DefaultStageMetric+"{quantile="+q+",stage=judge}"]; !ok || v <= 0 {
			t.Fatalf("quantile %s gauge = %v (present %v), want > 0; got %v", q, v, ok, got)
		}
	}
	if n := reg.SeriesCount(DefaultStageMetric); n != 4 {
		t.Fatalf("series = %d, want 4", n)
	}
}
