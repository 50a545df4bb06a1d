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

// TestTracerConcurrent hammers Record/Spans/Traces/StageStats/ExportBatch
// from many goroutines with a ring small enough to wrap constantly;
// meaningful under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(nil, 8)
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
					_ = tr.ExportBatch("mod", tr.Now())
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
	tr := NewTracer(clock.NewVirtual(time.Unix(0, 0)), 4)
	span := func(seq uint32) Span { return Span{Key: TraceKey{Recipe: "r", Seq: seq}, Stage: "publish"} }
	// A span recorded before the exporter's first read still ships:
	// export starts at the ring's first span.
	tr.Record(span(0))
	batch := decodeSpans(t, tr.ExportBatch("modA", time.Unix(9, 0)))
	if batch.Module != "modA" || batch.Dropped != 0 || len(batch.Spans) != 1 || batch.Spans[0].Key.Seq != 0 {
		t.Fatalf("first batch = %+v, want span 0 from modA, nothing dropped", batch)
	}
	if tr.ExportBatch("modA", time.Unix(10, 0)) != nil {
		t.Fatal("ExportBatch with no new span should be nil")
	}
	// Six spans into a 4-slot ring between reads: the two oldest are
	// overwritten before export and counted, the rest ship in order.
	for seq := uint32(1); seq <= 6; seq++ {
		tr.Record(span(seq))
	}
	batch = decodeSpans(t, tr.ExportBatch("modA", time.Unix(11, 0)))
	if batch.Dropped != 2 || len(batch.Spans) != 4 || batch.Spans[0].Key.Seq != 3 || batch.Spans[3].Key.Seq != 6 {
		t.Fatalf("batch after wrap = %+v, want spans 3..6 with dropped=2", batch)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	// Export never takes spans out of the ring or the stage table, and
	// the drop count is cumulative across batches.
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("ring retained %d, want 4", got)
	}
	if stats := tr.StageStats(); len(stats) != 1 || stats[0].Count != 7 {
		t.Fatalf("stage stats = %+v, want one stage with count 7", stats)
	}
	tr.Record(span(7))
	if batch = decodeSpans(t, tr.ExportBatch("modA", time.Unix(12, 0))); batch.Dropped != 2 || len(batch.Spans) != 1 {
		t.Fatalf("batch after one more span = %+v, want 1 span with dropped=2", batch)
	}
	// Reset rewinds the cursor with the ring: new spans ship again.
	tr.Reset()
	tr.Record(span(8))
	if batch = decodeSpans(t, tr.ExportBatch("modA", time.Unix(13, 0))); len(batch.Spans) != 1 || batch.Spans[0].Key.Seq != 8 {
		t.Fatalf("batch after Reset = %+v, want span 8", batch)
	}
}

// TestTracerExportConcurrent races recorders against an exporter on a ring
// that wraps many times over: every span must either ship exactly once,
// in recording order per recorder, or be counted as dropped.
func TestTracerExportConcurrent(t *testing.T) {
	const writers, perWriter = 4, 2000
	tr := NewTracer(nil, 16)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(Span{Key: TraceKey{TaskID: string(rune('a' + w)), Seq: uint32(i)}, Stage: "s"})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := map[string]int{}
	var shipped, dropped uint64
	export := func() {
		payload := tr.ExportBatch("mod", time.Time{})
		if payload == nil {
			return
		}
		batch := decodeSpans(t, payload)
		shipped += uint64(len(batch.Spans))
		dropped = batch.Dropped
		for _, s := range batch.Spans {
			prev, seen := last[s.Key.TaskID]
			if seen && int(s.Key.Seq) <= prev {
				t.Fatalf("recorder %s: span %d shipped after %d", s.Key.TaskID, s.Key.Seq, prev)
			}
			last[s.Key.TaskID] = int(s.Key.Seq)
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		export()
	}
	export()
	if total := tr.TotalSpans(); shipped+dropped != total || total != writers*perWriter {
		t.Fatalf("shipped %d + dropped %d != recorded %d (want %d)", shipped, dropped, total, writers*perWriter)
	}
	if tr.Dropped() != dropped {
		t.Fatalf("Dropped() = %d, last batch said %d", tr.Dropped(), dropped)
	}
}

// TestRingCursor pins the ring's numbering: reads from any cursor return
// the retained entries at or after it in arrival order, and count the
// ones overwritten in between.
func TestRingCursor(t *testing.T) {
	r := ring[int]{limit: 3}
	if out, next, lost := r.read(0); len(out) != 0 || next != 0 || lost != 0 {
		t.Fatalf("empty read = %v next %d lost %d", out, next, lost)
	}
	for v := 0; v < 5; v++ {
		r.push(v)
	}
	if cap(r.buf) > 4 {
		t.Fatalf("ring grew to cap %d for limit 3", cap(r.buf))
	}
	for _, c := range []struct {
		cursor     uint64
		want       []int
		next, lost uint64
	}{
		{0, []int{2, 3, 4}, 5, 2},
		{2, []int{2, 3, 4}, 5, 0},
		{4, []int{4}, 5, 0},
		{5, nil, 5, 0},
		{9, nil, 5, 0}, // a cursor past the end resyncs to the end
	} {
		out, next, lost := r.read(c.cursor)
		if len(out) != len(c.want) || next != c.next || lost != c.lost {
			t.Fatalf("read(%d) = %v next %d lost %d, want %v next %d lost %d", c.cursor, out, next, lost, c.want, c.next, c.lost)
		}
		for i := range out {
			if out[i] != c.want[i] {
				t.Fatalf("read(%d) = %v, want %v", c.cursor, out, c.want)
			}
		}
	}
	r.reset()
	r.push(7)
	if out, next, _ := r.read(0); len(out) != 1 || out[0] != 7 || next != 1 {
		t.Fatalf("read after reset = %v next %d", out, next)
	}
}

func decodeSpans(t *testing.T, payload []byte) SpanBatch {
	t.Helper()
	batch, err := DecodeSpanBatch(payload)
	if err != nil {
		t.Fatalf("decode %q: %v", payload, err)
	}
	return batch
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
