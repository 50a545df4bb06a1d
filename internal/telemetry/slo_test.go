package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestLogHistogramQuantiles(t *testing.T) {
	h := NewLogHistogram() // 100µs–100s, ratio 1.25
	// A skewed distribution: 90 fast samples, 9 medium, 1 slow.
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50 * time.Millisecond)
	}
	h.Observe(2 * time.Second)

	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if h.Max() != 2*time.Second {
		t.Fatalf("Max = %v, want exact 2s", h.Max())
	}
	p50 := h.Quantile(0.5)
	p95 := h.Quantile(0.95)
	p99 := h.Quantile(0.99)
	// p50 must land in the 1ms bucket (≤12.5% relative error from the
	// 1.25 growth ratio, so allow a generous band).
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈1ms", p50)
	}
	if p95 < 20*time.Millisecond || p95 > 100*time.Millisecond {
		t.Fatalf("p95 = %v, want ≈50ms", p95)
	}
	// Quantiles are monotone and never exceed the observed max.
	if !(p50 <= p95 && p95 <= p99 && p99 <= h.Max()) {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v max=%v", p50, p95, p99, h.Max())
	}
	if q := h.Quantile(1); q != h.Max() {
		t.Fatalf("Quantile(1) = %v, want Max %v", q, h.Max())
	}
}

func TestLogHistogramEdgeCases(t *testing.T) {
	var nilHist *LogHistogram
	nilHist.Observe(time.Second) // must not panic
	if nilHist.Quantile(0.5) != 0 || nilHist.Count() != 0 || nilHist.Max() != 0 || nilHist.Mean() != 0 {
		t.Fatal("nil histogram should report zeros")
	}

	h := NewLogHistogram()
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(-time.Second) // clamps to 0, lands in underflow bucket
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatalf("negative observe: count=%d max=%v", h.Count(), h.Max())
	}
	// Underflow and overflow samples both clamp to the observed range.
	h2 := NewLogHistogram()
	h2.Observe(10 * time.Microsecond) // below the 100µs lowest bound
	h2.Observe(200 * time.Second)     // above the 100s highest bound
	if q := h2.Quantile(0.99); q > h2.Max() {
		t.Fatalf("quantile %v exceeds observed max %v", q, h2.Max())
	}
	if q := h2.Quantile(0.99); q != h2.Max() {
		t.Fatalf("overflow-bucket quantile %v, want the observed max %v", q, h2.Max())
	}
}

// TestLogHistogramShape pins the literal constants of the one histogram
// shape to the values they are derived from.
func TestLogHistogramShape(t *testing.T) {
	if logHistLogR != math.Log(logHistRatio) {
		t.Fatalf("logHistLogR = %v, want math.Log(%v) = %v", logHistLogR, logHistRatio, math.Log(logHistRatio))
	}
	if n := int(math.Ceil(math.Log(100/logHistMin)/logHistLogR)) + 2; n != logHistBuckets {
		t.Fatalf("logHistBuckets = %d, want %d for 100µs–100s", logHistBuckets, n)
	}
	if upperBound(logHistBuckets-2) < 100 || upperBound(logHistBuckets-3) >= 100 {
		t.Fatalf("the last spanning bucket does not end at or just past 100s: %v", upperBound(logHistBuckets-2))
	}
}

func TestLogHistogramMean(t *testing.T) {
	h := NewLogHistogram()
	h.Observe(1 * time.Second)
	h.Observe(3 * time.Second)
	if m := h.Mean(); m != 2*time.Second {
		t.Fatalf("Mean = %v, want 2s (exact, not bucketed)", m)
	}
}

func TestSpanBatchRoundTrip(t *testing.T) {
	now := time.Unix(100, 0).UTC()
	in := SpanBatch{
		Module:  "moduleE",
		SentAt:  now,
		Dropped: 7,
		Spans: []Span{
			{
				Key:          TraceKey{Recipe: "monitor", TaskID: "sense", Seq: 42},
				Stage:        "judge",
				Module:       "moduleE",
				OriginModule: "moduleA",
				Start:        now.Add(-50 * time.Millisecond),
				End:          now,
			},
		},
	}
	payload, err := EncodeSpanBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSpanBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Module != "moduleE" || out.Dropped != 7 || len(out.Spans) != 1 {
		t.Fatalf("round trip = %+v", out)
	}
	got := out.Spans[0]
	if got.Key != in.Spans[0].Key || got.OriginModule != "moduleA" || !got.End.Equal(now) {
		t.Fatalf("span round trip = %+v", got)
	}
	if _, err := DecodeSpanBatch([]byte("{not json")); err == nil {
		t.Fatal("malformed batch should error")
	}
}

func TestRegisterQuantileGauges(t *testing.T) {
	reg := NewRegistry()
	h := NewLogHistogram()
	RegisterQuantileGauges(reg, "test_latency_quantile_seconds", "help", h, L("stage", "judge"))
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	label := func(ls []Label, name string) string {
		for _, l := range ls {
			if l.Name == name {
				return l.Value
			}
		}
		return ""
	}
	found := map[string]float64{}
	for _, s := range reg.Samples() {
		if s.Name == "test_latency_quantile_seconds" && label(s.Labels, "stage") == "judge" {
			found[label(s.Labels, "quantile")] = s.Value
		}
	}
	for _, q := range []string{"0.5", "0.95", "0.99", "max"} {
		v, ok := found[q]
		if !ok {
			t.Fatalf("quantile %q gauge missing; got %v", q, found)
		}
		if v <= 0 || v > 0.1 {
			t.Fatalf("quantile %q = %v, want ≈0.01", q, v)
		}
	}
}
