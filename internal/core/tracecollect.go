package core

import (
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// DefaultCollectorSpans bounds how many skew-adjusted spans the
// collector retains before overwriting the oldest: 1,024 flow keys at 6
// spans each. A sensor-driven Fig. 9 flow records 6 spans under the key
// its joins adopt (publish, join and learn on E, join and judge on F,
// actuate on G) and 1 under each other sensor's key; the benchmark's
// generator sends untraced samples, so there no key holds more than 2.
// TestFig9FlowFitsCollectorBudget pins the 6. The ring grows as spans
// arrive, so an idle manager pays nothing for the bound.
const DefaultCollectorSpans = 6 * 1024

// TraceCollector assembles the cluster-wide view of end-to-end flows at
// the management node. Modules export completed spans as SpanBatch JSON
// on TopicTracePrefix+<moduleID>; the collector ingests them and
// reconciles clock skew: each module's announce beacon carries a SentAt
// stamped by the module's clock, so
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
// The adjusted spans are recorded into the embedded Tracer, whose ring
// and stage table serve /traces, /spans and the SLO watchdog; the
// collector itself keeps only the skew offsets and each module's export
// drop count, which FlowSummary adds to the /flows digest.
type TraceCollector struct {
	*telemetry.Tracer

	mu      sync.Mutex
	offsets map[string]time.Duration
	dropped map[string]uint64 // per-module exporter drop counters
}

// NewTraceCollector creates a collector retaining up to capacity spans
// (non-positive = DefaultCollectorSpans).
func NewTraceCollector(capacity int) *TraceCollector {
	if capacity <= 0 {
		capacity = DefaultCollectorSpans
	}
	return &TraceCollector{
		Tracer:  telemetry.NewTracer(nil, capacity),
		offsets: make(map[string]time.Duration),
		dropped: make(map[string]uint64),
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

// Ingest parses one exported span batch and records its spans,
// skew-adjusted onto the manager timeline. Past telemetry.MaxStages
// distinct stages a span is still retained and counted but gets no
// histogram, gauges, /flows or SLO entry: stage names come from batches
// any client may publish.
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
		tc.Record(tc.adjust(s))
	}
	return nil
}

// adjust shifts a span's endpoints by the skew offset of whichever clock
// stamped each of them (Record clamps an End the shift moved before
// Start). Called with tc.mu held.
func (tc *TraceCollector) adjust(s telemetry.Span) telemetry.Span {
	endOff := tc.offsets[s.Module]
	startOff := endOff
	if s.OriginModule != "" && s.OriginModule != s.Module {
		startOff = tc.offsets[s.OriginModule]
	}
	s.Start = s.Start.Add(startOff)
	s.End = s.End.Add(endOff)
	return s
}

// DroppedSpans sums the per-module exporter drop counters, measuring
// spans lost before they ever reached the collector.
func (tc *TraceCollector) DroppedSpans() (sum uint64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, d := range tc.dropped {
		sum += d
	}
	return sum
}

// FlowSummary digests the collector state for /flows: retained flow
// count, ingested/dropped span totals, and per-stage latency SLO
// quantiles over the skew-adjusted spans.
func (tc *TraceCollector) FlowSummary() telemetry.FlowSummary {
	sum := tc.Tracer.FlowSummary()
	sum.DroppedSpans = tc.DroppedSpans()
	return sum
}
