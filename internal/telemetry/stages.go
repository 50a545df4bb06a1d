package telemetry

import "time"

// StageStat summarizes every span observed for one stage name, read from
// the stage's histogram: the exact count, the integer mean of the exact
// sum, and the exact max.
type StageStat struct {
	Stage string        `json:"stage"`
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean"`
	Max   time.Duration `json:"max"`
}

// MaxStages caps the distinct stage names one StageTable tracks, the same
// bound as the broker's per-topic label cap: the collector's stage names
// arrive in span batches any client may publish, and each new name costs
// a histogram and four gauge series.
const MaxStages = 64

// StageTable maps stage names to latency histograms in first-seen order
// (for a pipeline recording stages in flow order, pipeline order): the one
// per-stage aggregate behind both the Tracer and the cluster trace
// collector. Stages beyond MaxStages are not recorded. The zero value is
// ready to use; the owner serializes calls under its own mutex, while the
// histograms handed out are safe to read concurrently.
type StageTable struct {
	hists  map[string]*LogHistogram
	order  []string
	gauges func(stage string, h *LogHistogram) // set by Bind
}

// Observe records d for stage, creating the stage's histogram (and its
// gauges when bound) on first sight.
func (st *StageTable) Observe(stage string, d time.Duration) {
	h, ok := st.hists[stage]
	if !ok {
		if len(st.order) >= MaxStages {
			return
		}
		if st.hists == nil {
			st.hists = make(map[string]*LogHistogram)
		}
		h = NewLogHistogram()
		st.hists[stage] = h
		st.order = append(st.order, stage)
		if st.gauges != nil {
			st.gauges(stage, h)
		}
	}
	h.Observe(d)
}

// Bind mirrors each stage's p50/p95/p99/max into reg as GaugeFuncs named
// metric, labelled {stage, quantile} plus labels: stages already seen at
// once, later ones when they first appear.
func (st *StageTable) Bind(reg *Registry, metric, help string, labels ...Label) {
	st.gauges = func(stage string, h *LogHistogram) {
		RegisterQuantileGauges(reg, metric, help, h, append([]Label{L("stage", stage)}, labels...)...)
	}
	for _, stage := range st.order {
		st.gauges(stage, st.hists[stage])
	}
}

// Stats reports each stage's count, mean and max in first-seen order.
func (st *StageTable) Stats() []StageStat {
	out := make([]StageStat, 0, len(st.order))
	for _, stage := range st.order {
		h := st.hists[stage]
		out = append(out, StageStat{Stage: stage, Count: h.Count(), Mean: h.Mean(), Max: h.Max()})
	}
	return out
}

// Summaries digests each stage for /flows in first-seen order.
func (st *StageTable) Summaries() []StageSummary {
	var out []StageSummary
	for _, stage := range st.order {
		out = append(out, SummarizeStage(stage, st.hists[stage]))
	}
	return out
}

// Histograms snapshots the stage → histogram map. The histograms are
// shared live pointers (LogHistogram reads are lock-free), so an SLO
// watchdog can poll them without re-copying bucket state.
func (st *StageTable) Histograms() map[string]*LogHistogram {
	out := make(map[string]*LogHistogram, len(st.hists))
	for stage, h := range st.hists {
		out[stage] = h
	}
	return out
}

// Reset drops every stage; the registry binding stays.
func (st *StageTable) Reset() { st.hists, st.order = nil, nil }
