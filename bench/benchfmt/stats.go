// Package benchfmt holds what the benchmark harness (bench) and the
// comparison tool (bench/compare) share: the order statistics every
// reported number is built from, the result-file schema, the BENCHMARK.json
// reader, and the bound check that decides whether two result files agree.
//
// The percentile code is deliberately the benchmark's own rather than
// internal/metrics: that package is on the roadmap's deletion list, and a
// benchmark that later changes are judged by must not move with them.
package benchfmt

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0–100) of ascending-sorted
// values, interpolating linearly between the two nearest ranks. An empty
// input yields 0.
func Percentile[T int64 | float64](sorted []T, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case p <= 0:
		return float64(sorted[0])
	case p >= 100:
		return float64(sorted[n-1])
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if frac == 0 {
		return float64(sorted[lo])
	}
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// topLadder lists the percentiles TopPercentile may choose from.
var topLadder = []float64{50, 90, 95, 99, 99.9, 99.99, 99.999}

// TopPercentile returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it — the highest one a sample of
// that size supports. Below twenty samples not even the median qualifies
// and the result is 0.
func TopPercentile(n int) float64 {
	top := 0.0
	for _, p := range topLadder {
		if float64(n)*(100-p)/100 >= 10-1e-6 { // 99.9 is not exact in binary
			top = p
		}
	}
	return top
}

// Quartiles returns the first quartile, median and third quartile of
// values by the exclusive method (what Python's statistics.quantiles(v,
// n=4) computes, which is what the benchmark driver uses). Fewer than two
// values yield that value three times (or zeros).
func Quartiles(values []float64) (q1, median, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// Summary is the run-to-run distribution of one metric on one workload.
type Summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// Summarize builds a Summary from the per-repetition values.
func Summarize(unit string, values []float64) Summary {
	q1, med, q3 := Quartiles(values)
	return Summary{Unit: unit, Median: med, Q1: q1, Q3: q3, Values: values}
}

// Spread is the distance between the quartiles as a share of the median:
// the run-to-run noise a bound has to stand clear of. A zero median with a
// zero spread is 0; a zero median otherwise is +Inf.
func (s Summary) Spread() float64 {
	iqr := s.Q3 - s.Q1
	if iqr == 0 {
		return 0
	}
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(iqr / s.Median)
}
