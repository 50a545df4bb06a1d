package telemetry

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// LogHistogram is a latency distribution with logarithmically spaced
// buckets, built for SLO-style quantile queries (p50/p95/p99/max) with
// bounded memory and lock-free recording. Unlike Histogram (fixed,
// hand-picked Prometheus buckets), the log spacing gives a constant
// relative error across six orders of magnitude, so the same instrument
// resolves both a 200µs in-process hop and a 30s saturation stall.
//
// All methods are safe for concurrent use; Observe is a single atomic
// add on the bucket counter.
type LogHistogram struct {
	min    float64 // lower bound of bucket 0, seconds
	ratio  float64 // growth factor between bucket bounds
	logR   float64 // math.Log(ratio), precomputed
	counts []atomic.Int64
	// counts[0] is the underflow bucket (< min); counts[len-1] overflow.
	total    atomic.Int64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
}

// Default LogHistogram shape: 100µs–100s at 25% growth (~58 buckets),
// covering the paper's sub-second pipeline latencies through saturation
// behaviour with <12.5% quantile error.
const (
	defLogHistMin   = 100e-6
	defLogHistMax   = 100.0
	defLogHistRatio = 1.25
)

// NewLogHistogram creates a histogram whose buckets span [min, max]
// seconds with the given growth ratio between bucket bounds. Non-positive
// or degenerate arguments fall back to the defaults (100µs–100s, 1.25).
func NewLogHistogram(min, max, ratio float64) *LogHistogram {
	if min <= 0 || max <= min || ratio <= 1 {
		min, max, ratio = defLogHistMin, defLogHistMax, defLogHistRatio
	}
	n := int(math.Ceil(math.Log(max/min)/math.Log(ratio))) + 2 // + under/overflow
	return &LogHistogram{
		min:    min,
		ratio:  ratio,
		logR:   math.Log(ratio),
		counts: make([]atomic.Int64, n),
	}
}

// bucket maps a sample in seconds to its bucket index.
func (h *LogHistogram) bucket(v float64) int {
	if v < h.min {
		return 0
	}
	i := 1 + int(math.Log(v/h.min)/h.logR)
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// upperBound is the upper edge of bucket i in seconds (+Inf for the
// overflow bucket).
func (h *LogHistogram) upperBound(i int) float64 {
	if i >= len(h.counts)-1 {
		return math.Inf(1)
	}
	return h.min * math.Pow(h.ratio, float64(i))
}

// Observe records one latency sample.
func (h *LogHistogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[h.bucket(d.Seconds())].Add(1)
	h.total.Add(1)
	h.sumNanos.Add(int64(d))
	for {
		old := h.maxNanos.Load()
		if int64(d) <= old || h.maxNanos.CompareAndSwap(old, int64(d)) {
			break
		}
	}
}

// Count reports the number of recorded samples.
func (h *LogHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Mean reports the average of all recorded samples.
func (h *LogHistogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNanos.Load() / n)
}

// Max reports the largest recorded sample (exact, not bucketed).
func (h *LogHistogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.maxNanos.Load())
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) by linear
// interpolation inside the bucket where the cumulative count crosses
// q·total. Estimates are exact at the recorded max (q=1) and otherwise
// carry at most one bucket's relative error.
func (h *LogHistogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	if q < 0 {
		q = 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.upperBound(i - 1)
			}
			hi := h.upperBound(i)
			if math.IsInf(hi, 1) { // overflow bucket: clamp to observed max
				return h.Max()
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			sec := lo + (hi-lo)*frac
			if maxSec := float64(h.maxNanos.Load()) / 1e9; sec > maxSec {
				sec = maxSec // never report beyond the observed max
			}
			return time.Duration(sec * 1e9)
		}
		cum += c
	}
	return h.Max()
}

// CountAbove reports how many recorded samples fell in buckets strictly
// above the one containing d — the violation count for an SLO objective
// of d. Like Quantile, the estimate carries at most one bucket's relative
// error (samples above d inside d's own bucket are not counted).
func (h *LogHistogram) CountAbove(d time.Duration) int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := h.bucket(d.Seconds()) + 1; i < len(h.counts); i++ {
		n += h.counts[i].Load()
	}
	return n
}

// SLOQuantiles are the quantiles exported as gauges by
// RegisterQuantileGauges, labelled "0.5", "0.95", "0.99", and "max".
var SLOQuantiles = []float64{0.5, 0.95, 0.99}

// RegisterQuantileGauges exposes h's p50/p95/p99/max (in seconds) on reg
// as GaugeFuncs named name with a `quantile` label, alongside the given
// extra labels. Values are computed at scrape time, so the gauges always
// reflect the live distribution.
func RegisterQuantileGauges(reg *Registry, name, help string, h *LogHistogram, labels ...Label) {
	if reg == nil || h == nil {
		return
	}
	for _, q := range SLOQuantiles {
		q := q
		ls := append(append([]Label(nil), labels...), L("quantile", trimFloat(q)))
		reg.GaugeFunc(name, help, func() float64 { return h.Quantile(q).Seconds() }, ls...)
	}
	ls := append(append([]Label(nil), labels...), L("quantile", "max"))
	reg.GaugeFunc(name, help, func() float64 { return h.Max().Seconds() }, ls...)
}

func trimFloat(q float64) string { return strconv.FormatFloat(q, 'g', -1, 64) }

// StageSummary is one stage's latency digest in a FlowSummary: running
// count/mean plus SLO quantiles, all in milliseconds for readability.
type StageSummary struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
}

// FlowSummary is the aggregate view served on /flows: how many distinct
// flows (trace keys) are retained, how many spans were ever observed (and
// dropped before export), and the per-stage latency digests. Spans are
// cumulative (start = sensing instant), so the terminal stage's digest is
// the end-to-end latency distribution.
type FlowSummary struct {
	Flows        int            `json:"flows"`
	Spans        uint64         `json:"spans"`
	DroppedSpans uint64         `json:"droppedSpans,omitempty"`
	Stages       []StageSummary `json:"stages"`
}

// SummarizeStage digests one stage's log histogram: its exact count, mean
// and max plus the bucketed quantiles.
func SummarizeStage(stage string, h *LogHistogram) StageSummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return StageSummary{
		Stage:  stage,
		Count:  h.Count(),
		MeanMs: ms(h.Mean()),
		P50Ms:  ms(h.Quantile(0.5)),
		P95Ms:  ms(h.Quantile(0.95)),
		P99Ms:  ms(h.Quantile(0.99)),
		MaxMs:  ms(h.Max()),
	}
}
