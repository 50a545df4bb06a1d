package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestLatencyRecorderBasic(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(10 * time.Millisecond)
	r.Record(20 * time.Millisecond)
	r.Record(30 * time.Millisecond)

	s := r.Snapshot()
	if s.Count != 3 {
		t.Fatalf("Count = %d, want 3", s.Count)
	}
	if s.Mean != 20*time.Millisecond {
		t.Errorf("Mean = %v, want 20ms", s.Mean)
	}
	if s.Min != 10*time.Millisecond || s.Max != 30*time.Millisecond {
		t.Errorf("Min/Max = %v/%v, want 10ms/30ms", s.Min, s.Max)
	}
}

func TestLatencyRecorderClampsNegative(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(-5 * time.Millisecond)
	s := r.Snapshot()
	if s.Min != 0 {
		t.Fatalf("negative sample recorded as %v, want 0", s.Min)
	}
}

func TestLatencyRecorderReset(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(time.Millisecond)
	r.Reset()
	if got := r.Count(); got != 0 {
		t.Fatalf("Count after Reset = %d, want 0", got)
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	r := NewLatencyRecorder()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Count(); got != workers*perWorker {
		t.Fatalf("Count = %d, want %d", got, workers*perWorker)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.Max != 0 {
		t.Fatalf("Summarize(nil) = %+v, want zero summary", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]time.Duration{42 * time.Millisecond})
	if s.Count != 1 || s.Min != 42*time.Millisecond || s.Max != 42*time.Millisecond ||
		s.Mean != 42*time.Millisecond || s.P50 != 42*time.Millisecond {
		t.Fatalf("Summarize single = %+v", s)
	}
	if s.Stddev != 0 {
		t.Errorf("Stddev = %v, want 0", s.Stddev)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []time.Duration{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Summarize mutated its input: %v", in)
	}
}

func TestPercentileKnownValues(t *testing.T) {
	sorted := []time.Duration{10, 20, 30, 40, 50}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{0, 10},
		{50, 30},
		{100, 50},
		{25, 20},
		{-1, 10},
		{101, 50},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil, 50) = %v, want 0", got)
	}
}

// Property: for any sample set, Min <= P50 <= Max, Min <= Mean <= Max.
func TestSummaryInvariants(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v)
		}
		s := Summarize(samples)
		return s.Min <= s.P50 && s.P50 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean of constant samples equals the constant, stddev zero.
func TestSummaryConstantSamples(t *testing.T) {
	f := func(v uint16, n uint8) bool {
		count := int(n%32) + 1
		samples := make([]time.Duration, count)
		for i := range samples {
			samples[i] = time.Duration(v)
		}
		s := Summarize(samples)
		return s.Mean == time.Duration(v) && s.Stddev == 0 && s.Min == s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeStddev(t *testing.T) {
	// Samples 2, 4, 4, 4, 5, 5, 7, 9 have population stddev 2.
	raw := []time.Duration{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(raw)
	if math.Abs(float64(s.Stddev)-2) > 1e-9 {
		t.Fatalf("Stddev = %v, want 2", s.Stddev)
	}
}

func TestMillis(t *testing.T) {
	if got := Millis(1500 * time.Microsecond); got != 1.5 {
		t.Fatalf("Millis(1.5ms) = %v, want 1.5", got)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]time.Duration{time.Millisecond})
	if got := s.String(); got == "" {
		t.Fatal("String() returned empty")
	}
}
