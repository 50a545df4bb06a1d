package core

import (
	"sort"
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// DefaultCollectorFlows bounds how many distinct flows (trace keys) the
// collector retains before evicting the oldest.
const DefaultCollectorFlows = 1024

// TraceCollector assembles the cluster-wide view of end-to-end flows at
// the management node. Modules export completed spans as SpanBatch JSON
// on TopicTracePrefix+<moduleID>; the collector ingests them, groups
// spans by TraceKey, and reconciles clock skew: each module's announce
// beacon carries a SentAt stamped by the module's clock, so
//
//	offset(module) = manager receive time − announce.SentAt
//
// approximates that module's clock offset relative to the manager (plus
// one network delay, which is noise at the skew magnitudes that matter).
// Every ingested span endpoint is shifted by the offset of the clock
// that stamped it — End by the recording module's offset, Start by the
// origin module's (the sensing instant travels inside the TraceContext,
// stamped at the origin) — putting all spans of a trace on the manager's
// timeline.
//
// TraceCollector implements telemetry.TraceSource and
// telemetry.FlowReporter, so the management daemon's -telemetry server
// serves the assembled traces on /traces, /spans, and /flows.
type TraceCollector struct {
	clk clock.Clock

	mu       sync.Mutex
	flows    map[telemetry.TraceKey][]telemetry.Span
	order    []telemetry.TraceKey // FIFO for eviction
	maxFlows int
	offsets  map[string]time.Duration
	total    uint64
	dropped  map[string]uint64    // per-module exporter drop counters
	stages   telemetry.StageTable // over the skew-adjusted spans
}

// NewTraceCollector creates a collector retaining up to maxFlows flows
// (non-positive = DefaultCollectorFlows), reading time from clk (nil =
// wall clock).
func NewTraceCollector(clk clock.Clock, maxFlows int) *TraceCollector {
	if clk == nil {
		clk = clock.NewReal()
	}
	if maxFlows <= 0 {
		maxFlows = DefaultCollectorFlows
	}
	return &TraceCollector{
		clk:      clk,
		flows:    make(map[telemetry.TraceKey][]telemetry.Span, maxFlows),
		maxFlows: maxFlows,
		offsets:  make(map[string]time.Duration),
		dropped:  make(map[string]uint64),
	}
}

// NoteAnnounce updates the skew offset estimate for one module from an
// announce beacon: sentAt is the module-clock stamp, receivedAt the
// manager-clock arrival instant.
func (tc *TraceCollector) NoteAnnounce(moduleID string, sentAt, receivedAt time.Time) {
	if moduleID == "" || sentAt.IsZero() {
		return
	}
	tc.mu.Lock()
	tc.offsets[moduleID] = receivedAt.Sub(sentAt)
	tc.mu.Unlock()
}

// Offset reports the current skew estimate for a module (zero when the
// module has never announced).
func (tc *TraceCollector) Offset(moduleID string) time.Duration {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.offsets[moduleID]
}

// Ingest parses one exported span batch and adds its spans to the
// assembled flows, skew-adjusting every span onto the manager timeline.
func (tc *TraceCollector) Ingest(payload []byte) error {
	batch, err := telemetry.DecodeSpanBatch(payload)
	if err != nil {
		return err
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if batch.Module != "" {
		tc.dropped[batch.Module] = batch.Dropped
	}
	for _, s := range batch.Spans {
		if s.Module == "" {
			s.Module = batch.Module
		}
		tc.add(tc.adjust(s))
	}
	return nil
}

// adjust shifts a span's endpoints by the skew offset of whichever clock
// stamped each of them. Called with tc.mu held.
func (tc *TraceCollector) adjust(s telemetry.Span) telemetry.Span {
	endOff := tc.offsets[s.Module]
	startOff := endOff
	if s.OriginModule != "" && s.OriginModule != s.Module {
		startOff = tc.offsets[s.OriginModule]
	}
	s.Start = s.Start.Add(startOff)
	s.End = s.End.Add(endOff)
	if s.End.Before(s.Start) {
		s.End = s.Start
	}
	return s
}

// add appends a span to its flow, evicting the oldest flow when the
// bound is hit, and feeds the stage table. Past telemetry.MaxStages
// distinct stages a span still joins its trace and TotalSpans but gets
// no histogram, gauges, /flows or SLO entry: stage names come from
// batches any client may publish. Called with tc.mu held.
func (tc *TraceCollector) add(s telemetry.Span) {
	if _, ok := tc.flows[s.Key]; !ok {
		if len(tc.order) >= tc.maxFlows {
			delete(tc.flows, tc.order[0])
			tc.order = tc.order[1:]
		}
		tc.order = append(tc.order, s.Key)
	}
	tc.flows[s.Key] = append(tc.flows[s.Key], s)
	tc.total++
	tc.stages.Observe(s.Stage, s.End.Sub(s.Start))
}

// TotalSpans reports how many spans were ever ingested.
func (tc *TraceCollector) TotalSpans() uint64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.total
}

// DroppedSpans sums the per-module exporter drop counters, measuring
// spans lost before they ever reached the collector.
func (tc *TraceCollector) DroppedSpans() uint64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.droppedLocked()
}

func (tc *TraceCollector) droppedLocked() (sum uint64) {
	for _, d := range tc.dropped {
		sum += d
	}
	return sum
}

// Spans snapshots every retained span, grouped by flow in retention
// order.
func (tc *TraceCollector) Spans() []telemetry.Span {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var out []telemetry.Span
	for _, key := range tc.order {
		out = append(out, tc.flows[key]...)
	}
	return out
}

// Traces returns the assembled cross-module traces in retention order,
// spans within each trace sorted by (skew-adjusted) start time.
func (tc *TraceCollector) Traces() []telemetry.Trace {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]telemetry.Trace, 0, len(tc.order))
	for _, key := range tc.order {
		out = append(out, sortedTrace(key, tc.flows[key]))
	}
	return out
}

// Trace returns the assembled trace for one key (empty Spans when the
// key is unknown).
func (tc *TraceCollector) Trace(key telemetry.TraceKey) telemetry.Trace {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return sortedTrace(key, tc.flows[key])
}

// StageHistograms snapshots the per-stage latency histograms (shared
// live LogHistograms, safe for concurrent Observe), implementing
// telemetry.StageHistSource so the manager's SLO watchdog evaluates
// burn rates over the cluster-wide skew-adjusted latencies.
func (tc *TraceCollector) StageHistograms() map[string]*telemetry.LogHistogram {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.stages.Histograms()
}

// FlowSummary digests the collector state for /flows: retained flow
// count, ingested/dropped span totals, and per-stage latency SLO
// quantiles over the skew-adjusted spans.
func (tc *TraceCollector) FlowSummary() telemetry.FlowSummary {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return telemetry.FlowSummary{
		Flows: len(tc.flows), Spans: tc.total, DroppedSpans: tc.droppedLocked(), Stages: tc.stages.Summaries(),
	}
}

// BindRegistry mirrors the collector's per-stage quantiles into reg as
// GaugeFuncs (same family the module tracer uses, labelled
// scope="cluster"), so the management node's /metrics and $SYS exports
// carry the cluster-wide latency SLOs: stages already ingested at once,
// later ones when their first span is ingested.
func (tc *TraceCollector) BindRegistry(reg *telemetry.Registry) {
	tc.mu.Lock()
	tc.stages.Bind(reg, telemetry.DefaultStageMetric,
		"Cluster-wide per-stage latency quantiles (skew-adjusted).", telemetry.L("scope", "cluster"))
	tc.mu.Unlock()
}

// sortedTrace copies spans into a trace ordered by (skew-adjusted) start.
func sortedTrace(key telemetry.TraceKey, spans []telemetry.Span) telemetry.Trace {
	spans = append([]telemetry.Span(nil), spans...)
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start.Before(spans[b].Start) })
	return telemetry.Trace{Key: key, Spans: spans}
}
