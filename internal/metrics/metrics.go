// Package metrics provides exact latency recording and summary statistics
// for the IFoT experiment harness (the middleware's own bounded-memory
// instruments live in internal/telemetry).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// LatencyRecorder accumulates latency samples and reports summary
// statistics. It is safe for concurrent use.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{}
}

// Record adds one latency sample. Negative samples are clamped to zero so a
// clock skew can never produce a negative latency.
func (r *LatencyRecorder) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.mu.Unlock()
}

// Count reports the number of recorded samples.
func (r *LatencyRecorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Reset discards all recorded samples.
func (r *LatencyRecorder) Reset() {
	r.mu.Lock()
	r.samples = nil
	r.mu.Unlock()
}

// Snapshot computes summary statistics over the samples recorded so far.
func (r *LatencyRecorder) Snapshot() Summary {
	r.mu.Lock()
	samples := make([]time.Duration, len(r.samples))
	copy(samples, r.samples)
	r.mu.Unlock()
	return Summarize(samples)
}

// Summary holds aggregate statistics over a set of latency samples.
type Summary struct {
	Count  int
	Min    time.Duration
	Max    time.Duration
	Mean   time.Duration
	Stddev time.Duration
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
}

// Summarize computes a Summary from raw samples. An empty input yields the
// zero Summary.
func Summarize(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var sum float64
	for _, s := range sorted {
		sum += float64(s)
	}
	mean := sum / float64(len(sorted))

	var sq float64
	for _, s := range sorted {
		d := float64(s) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(sorted)))

	return Summary{
		Count:  len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   time.Duration(mean),
		Stddev: time.Duration(std),
		P50:    Percentile(sorted, 50),
		P95:    Percentile(sorted, 95),
		P99:    Percentile(sorted, 99),
	}
}

// Percentile returns the p-th percentile (0–100) of sorted samples using
// nearest-rank interpolation. The input must already be sorted ascending.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// Millis renders a duration as fractional milliseconds, matching the unit
// the paper's tables use.
func Millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// String renders the summary in a compact single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d avg=%.3fms max=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms",
		s.Count, Millis(s.Mean), Millis(s.Max), Millis(s.P50), Millis(s.P95), Millis(s.P99))
}
