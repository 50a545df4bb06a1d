package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// Metric is one measured number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the last line a single run prints: the four keys the benchmark
// driver reads, and nothing else.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Check is one output check of a run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Run is everything one child process measured on one workload. Metrics
// holds the metrics that apply to the workload. An invalid run (generator
// ran late, or a check failed) carries the reason in Invalid and no
// Metrics, so nothing downstream can mistake it for a measurement.
type Run struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	WindowS  float64 `json:"window_s"`
	Correct  bool    `json:"correct"`
	Invalid  string  `json:"invalid,omitempty"`
	// Repeat marks an invalidity that is the generator's or the host's
	// doing (the open loop ran late), which a repetition may cure.
	Repeat    bool              `json:"-"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics,omitempty"`
	// Detail holds the ungated companions of the metrics: p99, max and
	// sample counts of every timing, loss_ratio, generator lateness.
	Detail map[string]Metric `json:"detail,omitempty"`
	Checks []Check           `json:"checks,omitempty"`
}

// Host describes where a result file was measured. Numbers from two
// different hosts are never compared.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
}

// Workload is the run-to-run summary of one workload across repetitions.
type Workload struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	EndToEnd  map[string]Summary `json:"end_to_end"`
	LossRatio Summary            `json:"loss_ratio"`
	PerLayer  map[string]Summary `json:"per_layer,omitempty"`
	Runs      []Run              `json:"runs"`
}

// File is the result file the harness writes and bench/compare reads.
type File struct {
	Host      Host       `json:"host"`
	Seed      int64      `json:"seed"`
	WindowS   float64    `json:"window_s"`
	WarmupS   float64    `json:"warmup_s"`
	Reps      int        `json:"reps"`
	Workloads []Workload `json:"workloads"`
}

// ReadFile loads a result file.
func ReadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// WriteFile stores a result file, indented for reading.
func WriteFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Summaries folds the valid runs of one workload into per-metric
// summaries. Traced runs feed PerLayer, untraced runs EndToEnd and
// LossRatio; invalid runs are kept in Runs but contribute no values.
func Summaries(name, why string, runs []Run) Workload {
	w := Workload{Name: name, Why: why, Runs: runs,
		EndToEnd: map[string]Summary{}, PerLayer: map[string]Summary{}}
	e2e := map[string][]float64{}
	layer := map[string][]float64{}
	units := map[string]string{}
	var loss []float64
	for _, r := range runs {
		if r.Invalid != "" {
			continue
		}
		into := e2e
		if r.Traced {
			into = layer
		} else if r.Attempted > 0 {
			loss = append(loss, float64(r.Failed)/float64(r.Attempted))
		}
		for k, m := range r.Metrics {
			into[k] = append(into[k], m.Value)
			units[k] = m.Unit
		}
	}
	for k, v := range e2e {
		w.EndToEnd[k] = Summarize(units[k], v)
	}
	for k, v := range layer {
		w.PerLayer[k] = Summarize(units[k], v)
	}
	w.LossRatio = Summarize("ratio", loss)
	return w
}
