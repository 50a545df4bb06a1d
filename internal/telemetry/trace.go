package telemetry

import (
	"sort"
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
)

// TraceKey identifies one end-to-end flow through the pipeline. It is built
// from identifiers the middleware already carries on the wire
// (core.Decision / core.TrainEvent), so correlating spans into traces needs
// no wire-format change.
type TraceKey struct {
	Recipe string `json:"recipe"`
	TaskID string `json:"taskId"`
	Seq    uint32 `json:"seq"`
}

// Span is one pipeline hop of a flow: Sensor publish, Broker route,
// Subscribe deliver, join, Learning/Judging, Actuate, …
type Span struct {
	Key    TraceKey  `json:"key"`
	Stage  string    `json:"stage"`
	Module string    `json:"module,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// OriginModule identifies the module whose clock stamped Start when a
	// span's start instant was propagated across a process boundary (the
	// sensing instant riding in a core.TraceContext). Empty means Start
	// and End were stamped by the same clock as Module. A trace collector
	// uses it to apply per-module skew offsets to the correct endpoint.
	OriginModule string `json:"originModule,omitempty"`
}

// Duration is the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Trace is the ordered set of spans sharing one TraceKey.
type Trace struct {
	Key   TraceKey `json:"key"`
	Spans []Span   `json:"spans"`
}

// Start is the earliest span start (zero for an empty trace).
func (t Trace) Start() time.Time {
	if len(t.Spans) == 0 {
		return time.Time{}
	}
	return t.Spans[0].Start
}

// End is the latest span end.
func (t Trace) End() time.Time {
	var end time.Time
	for _, s := range t.Spans {
		if s.End.After(end) {
			end = s.End
		}
	}
	return end
}

// Duration is the end-to-end elapsed time covered by the trace.
func (t Trace) Duration() time.Duration {
	if len(t.Spans) == 0 {
		return 0
	}
	return t.End().Sub(t.Start())
}

// Tracer collects spans into a fixed-capacity ring (old spans are
// overwritten, bounding memory) that is also its export queue, and into a
// per-stage latency table over every span ever recorded (constant memory
// no matter how many spans flow through). It reads time from a
// clock.Clock, so the same tracer instruments the wall-clock middleware
// and the virtual-time simulator. All methods are safe for concurrent
// use.
type Tracer struct {
	clk clock.Clock

	mu     sync.Mutex
	spans  ring[Span]
	stages StageTable
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity, and so the most spans one export interval can
// ship. The module-local ring only backs the module's own /traces view
// and its export (the cluster-wide view lives in the management node's
// collector), so it is kept small: retained spans are pointer-heavy
// (key/stage/module strings) and a large ring measurably taxes GC on the
// data hot path.
const DefaultTraceCapacity = 1024

// NewTracer creates a tracer reading time from clk (nil = wall clock)
// retaining the most recent capacity spans. The ring grows as spans
// arrive, so a large capacity costs nothing up front.
func NewTracer(clk clock.Clock, capacity int) *Tracer {
	if clk == nil {
		clk = clock.NewReal()
	}
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{clk: clk, spans: ring[Span]{limit: capacity}}
}

// Now exposes the tracer's clock reading, letting instrumented code stamp
// events on the same timeline as the spans.
func (t *Tracer) Now() time.Time { return t.clk.Now() }

// DefaultStageMetric is the gauge family name used by BindRegistry.
const DefaultStageMetric = "ifot_stage_latency_quantile_seconds"

// BindRegistry mirrors per-stage latency quantiles (p50/p95/p99/max)
// into reg as GaugeFuncs labelled {stage, quantile} plus labels: stages
// already recorded at once, later ones when their first span arrives.
// Metric "" uses DefaultStageMetric.
func (t *Tracer) BindRegistry(reg *Registry, metric string, labels ...Label) {
	if metric == "" {
		metric = DefaultStageMetric
	}
	t.mu.Lock()
	t.stages.Bind(reg, metric, "Per-stage cumulative sensing-to-stage latency quantiles.", labels...)
	t.mu.Unlock()
}

// Record stores a fully formed span: the one way a hop enters the ring
// (and so the export stream) and the stage table.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if s.End.Before(s.Start) {
		s.End = s.Start // clock skew must not create negative durations
	}
	t.mu.Lock()
	t.spans.push(s)
	t.stages.Observe(s.Stage, s.End.Sub(s.Start))
	t.mu.Unlock()
}

// ObserveStage records a span for stage with explicit bounds — a
// convenience wrapper around Record.
func (t *Tracer) ObserveStage(key TraceKey, stage, module string, start, end time.Time) {
	t.Record(Span{Key: key, Stage: stage, Module: module, Start: start, End: end})
}

// TotalSpans reports how many spans were ever recorded (including those
// already evicted from the ring).
func (t *Tracer) TotalSpans() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.total
}

// Capacity reports the ring buffer size.
func (t *Tracer) Capacity() int { return t.spans.limit }

// Spans snapshots the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out, _, _ := t.spans.read(0)
	return out
}

// Traces groups the retained spans into end-to-end traces by TraceKey.
// Traces appear in order of their earliest retained span; spans within a
// trace are sorted by start time.
func (t *Tracer) Traces() []Trace {
	spans := t.Spans()
	byKey := make(map[TraceKey]int)
	var traces []Trace
	for _, s := range spans {
		idx, ok := byKey[s.Key]
		if !ok {
			idx = len(traces)
			byKey[s.Key] = idx
			traces = append(traces, Trace{Key: s.Key})
		}
		traces[idx].Spans = append(traces[idx].Spans, s)
	}
	for i := range traces {
		sp := traces[i].Spans
		sort.SliceStable(sp, func(a, b int) bool { return sp[a].Start.Before(sp[b].Start) })
	}
	return traces
}

// StageStats reports each stage's count, mean and max in first-seen order
// (which, for a pipeline recording stages in flow order, is pipeline
// order).
func (t *Tracer) StageStats() []StageStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stages.Stats()
}

// StageHistograms snapshots the per-stage latency histograms keyed by
// stage name (shared live pointers), implementing StageHistSource.
func (t *Tracer) StageHistograms() map[string]*LogHistogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stages.Histograms()
}

// FlowSummary digests the tracer's current state for the /flows endpoint:
// distinct retained flows, total spans, and per-stage SLO quantiles in
// first-seen (pipeline) order. Only the keys are copied under the lock;
// they are counted after it is released, so a scrape holds up Record for
// one copy.
func (t *Tracer) FlowSummary() FlowSummary {
	if t == nil {
		return FlowSummary{}
	}
	t.mu.Lock()
	keys := make([]TraceKey, len(t.spans.buf))
	for i, s := range t.spans.buf {
		keys[i] = s.Key
	}
	sum := FlowSummary{Spans: t.spans.total, Stages: t.stages.Summaries()}
	t.mu.Unlock()
	distinct := make(map[TraceKey]struct{}, len(keys))
	for _, k := range keys {
		distinct[k] = struct{}{}
	}
	sum.Flows = len(distinct)
	return sum
}

// Reset discards all retained spans and stage statistics and rewinds the
// export cursor; the drop count and the registry binding stay.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans.reset()
	t.stages.Reset()
	t.mu.Unlock()
}
