package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Spec mirrors BENCHMARK.json: the one place the regression bounds live.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

// SpecWorkload names one workload and why it exists.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric names one metric. Bound is the share of the base median by
// which an end-to-end metric may worsen; per-layer metrics have none.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Status of one (metric, workload) pairing.
const (
	StatusOK         = "ok"
	StatusRegression = "REGRESSION"
	StatusUnresolved = "unresolved"
	StatusMissing    = "missing"
)

// Row is one (metric, workload) pairing of two result files.
type Row struct {
	Workload string
	Metric   string
	Unit     string
	Base     float64 // base median: the base of Ratio
	Head     float64
	Ratio    float64 // Head / Base
	WorseBy  float64 // share of Base by which Head is worse (negative = better)
	Bound    float64
	Spread   float64 // the wider of the two files' quartile spreads
	Status   string
}

// WorseBy reports by which share of base the head value is worse, given
// the metric's direction; negative means head is better.
func WorseBy(better string, base, head float64) float64 {
	if base == 0 {
		if head == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (head - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// Judge classifies one pairing. Head worse than base by more than both
// the bound and the run-to-run spread is a regression however noisy the
// metric. Short of that, a spread wider than the bound cannot tell a
// change of the bound's size from noise: the pairing is unresolved, not
// passed.
func Judge(worseBy, spread, bound float64) string {
	switch {
	case worseBy > math.Max(bound, spread):
		return StatusRegression
	case spread > bound:
		return StatusUnresolved
	default:
		return StatusOK
	}
}

// LossBound is the absolute rise in loss_ratio that fails a comparison.
// Loss is gated absolutely because its healthy value is 0, which no
// relative bound can be a share of.
const LossBound = 0.001

// Compare pairs every end-to-end metric of every workload of spec across
// two result files, and adds one loss_ratio row per workload. A metric
// neither file reports for a workload does not apply there and has no
// row; one that only one file reports is missing. failed reports whether
// any pairing regressed, is missing, or lost more flows.
func Compare(spec Spec, base, head File) (rows []Row, failed bool) {
	find := func(f File, name string) *Workload {
		for i := range f.Workloads {
			if f.Workloads[i].Name == name {
				return &f.Workloads[i]
			}
		}
		return nil
	}
	for _, sw := range spec.Workloads {
		bw, hw := find(base, sw.Name), find(head, sw.Name)
		for _, m := range spec.EndToEnd {
			row := Row{Workload: sw.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, Status: StatusMissing}
			if bw != nil && hw != nil {
				bs, bok := bw.EndToEnd[m.Name]
				hs, hok := hw.EndToEnd[m.Name]
				if !bok && !hok && len(bw.EndToEnd) > 0 && len(hw.EndToEnd) > 0 {
					continue
				}
				if bok && hok && len(bs.Values) > 0 && len(hs.Values) > 0 {
					row.Base, row.Head = bs.Median, hs.Median
					row.Ratio = hs.Median / bs.Median
					row.WorseBy = WorseBy(m.Better, bs.Median, hs.Median)
					row.Spread = math.Max(bs.Spread(), hs.Spread())
					row.Status = Judge(row.WorseBy, row.Spread, m.Bound)
				}
			}
			if row.Status == StatusRegression || row.Status == StatusMissing {
				failed = true
			}
			rows = append(rows, row)
		}
		row := Row{Workload: sw.Name, Metric: "loss_ratio", Unit: "ratio", Bound: LossBound, Status: StatusMissing}
		if bw != nil && hw != nil && len(bw.LossRatio.Values) > 0 && len(hw.LossRatio.Values) > 0 {
			row.Base, row.Head = bw.LossRatio.Median, hw.LossRatio.Median
			row.Ratio = math.NaN()
			if row.Base != 0 {
				row.Ratio = row.Head / row.Base
			}
			row.WorseBy = row.Head - row.Base // absolute, see LossBound
			row.Status = StatusOK
			if row.WorseBy > LossBound {
				row.Status = StatusRegression
			}
		}
		if row.Status != StatusOK {
			failed = true
		}
		rows = append(rows, row)
	}
	return rows, failed
}
