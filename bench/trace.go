package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one layer boundary crossing of one flow, as the benchmark saw
// it from outside the program: name, start, end, and the span that
// encloses or caused it. Spans of one flow share its sequence number.
type span struct {
	Flow   uint32 `json:"flow"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // unix ns
	End    int64  `json:"end"`
	Parent string `json:"parent,omitempty"`
}

// interval is a half-open stretch of time, unix ns.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the span, and overlapping children count once.
func selfTime(s interval, children []interval) int64 {
	kids := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, s.start), min(c.end, s.end)
		if c.end > c.start {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	covered, upTo := int64(0), s.start
	for _, c := range kids {
		if c.end <= upTo {
			continue
		}
		covered += c.end - max(c.start, upTo)
		upTo = c.end
	}
	return (s.end - s.start) - covered
}

// residualPct is the share of all flows' time that no stage span
// accounts for: Σ self time of the flow spans over Σ their durations.
// When every flow has all its stages this equals |Σ stage means − flow
// mean| / flow mean; a flow the tap missed shows here as uncovered time.
func residualPct(selfSum, durSum int64) float64 {
	if durSum <= 0 {
		return 100
	}
	return 100 * float64(selfSum) / float64(durSum)
}

// monotone pulls earlier boundaries back so that b[0] ≤ b[1] ≤ … ≤ b[n-1].
// The inner boundaries come from the tap, a bystander that can learn of a
// message a few microseconds after the module that acts on it; clamping
// keeps every stage non-negative and leaves their sum — first to last
// boundary — untouched.
func monotone(b []int64) {
	for i := len(b) - 2; i >= 0; i-- {
		if b[i] > b[i+1] {
			b[i] = b[i+1]
		}
	}
}

// maxSpanFlows bounds how many flows' spans are written out; stage
// percentiles always use every flow.
const maxSpanFlows = 2000

// collectStages turns the tap's and sinks' timestamps into stage spans
// for the flows [lo, hi), fills m.stages, and keeps a sample of spans.
//
// fig9's blocking path is due → raw sample at tap (ingress) → joined
// batch at tap (join) → Decision.At (judge) → Apply (actuate); the train
// path branches after ingress: raw → joined at tap (join_train) →
// TrainEvent.At (learn). analysis_wide has no join and no actuator: due →
// batch at tap (ingress), then judge (→ last Decision.At) and learn
// (→ TrainEvent.At) side by side under the flow.
func (w *flowRun) collectStages(m *measurement, lo, hi int, endAt, decidedAt []int64) {
	rec := w.rec
	m.stages = map[string][]int64{}
	every := (hi-lo)/maxSpanFlows + 1
	var selfSum, durSum int64
	var stages []span       // this flow's stage spans, children of the flow span first
	var covering []interval // the children of the flow span, for its self time
	for i := lo; i < hi; i++ {
		due, end := rec.due[i], endAt[i]
		if end == 0 || rec.trainAt[i] == 0 {
			continue // lost flows are counted elsewhere; they have no span tree
		}
		stages = stages[:0]
		note := func(name, parent string, s, e int64) {
			m.stages[name] = append(m.stages[name], e-s)
			stages = append(stages, span{Flow: uint32(i), Name: name, Start: s, End: e, Parent: parent})
		}
		rootKids := 0
		if w.spec.wide {
			if rec.rawAt[i] != 0 {
				b := []int64{due, rec.rawAt[i], decidedAt[i]}
				monotone(b)
				l := []int64{b[1], rec.trainAt[i]}
				monotone(l)
				note("ingress", "flow", b[0], b[1])
				note("judge", "flow", b[1], b[2])
				note("learn", "flow", l[0], l[1])
				rootKids = 3
			}
		} else if rec.rawAt[i] != 0 && rec.joinFAt[i] != 0 && decidedAt[i] != 0 {
			b := []int64{due, rec.rawAt[i], rec.joinFAt[i], decidedAt[i], end}
			monotone(b)
			note("ingress", "flow", b[0], b[1])
			note("join", "flow", b[1], b[2])
			note("judge", "flow", b[2], b[3])
			note("actuate", "flow", b[3], b[4])
			rootKids = 4
			if rec.joinEAt[i] != 0 {
				l := []int64{b[1], rec.joinEAt[i], rec.trainAt[i]}
				monotone(l)
				note("join_train", "ingress", l[0], l[1])
				note("learn", "join_train", l[1], l[2])
			}
		}
		covering = covering[:0]
		for _, st := range stages[:rootKids] {
			covering = append(covering, interval{st.Start, st.End})
		}
		selfSum += selfTime(interval{due, end}, covering)
		durSum += end - due
		if (i-lo)%every == 0 {
			m.spans = append(m.spans, span{Flow: uint32(i), Name: "flow", Start: due, End: end})
			m.spans = append(m.spans, stages...)
		}
	}
	m.layer["stage.residual_pct"] = residualPct(selfSum, durSum)
}

// writeSpans stores the kept spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
