package telemetry

import (
	"encoding/json"
	"time"
)

// exportQueue is the bounded, drop-counting queue behind Tracer and
// EventLog export, guarded by its owner's mutex. When full, new items are
// shed and counted rather than queued: export must never apply
// backpressure to the paths it observes. A zero limit turns queueing off.
type exportQueue[T any] struct {
	buf     []T
	limit   int
	dropped uint64
}

func (q *exportQueue[T]) push(v T) {
	if len(q.buf) < q.limit {
		q.buf = append(q.buf, v)
	} else if q.limit > 0 {
		q.dropped++
	}
}

// drain removes and returns the queued items (nil when empty).
func (q *exportQueue[T]) drain() []T {
	out := q.buf
	q.buf = nil
	return out
}

// SpanBatch is the JSON payload a module publishes on
// `ifot/ctrl/trace/<moduleID>`: the spans completed since the last flush,
// plus how many were shed because the export buffer was full. SentAt is
// stamped from the module's own clock so the collector can sanity-check
// its announce-derived skew offsets.
type SpanBatch struct {
	Module  string    `json:"module"`
	SentAt  time.Time `json:"sentAt"`
	Dropped uint64    `json:"dropped,omitempty"`
	Spans   []Span    `json:"spans"`
}

// EncodeSpanBatch serializes a batch for publishing.
func EncodeSpanBatch(b SpanBatch) ([]byte, error) { return json.Marshal(b) }

// DecodeSpanBatch parses a published batch.
func DecodeSpanBatch(data []byte) (SpanBatch, error) {
	var b SpanBatch
	err := json.Unmarshal(data, &b)
	return b, err
}

// DefaultSpanExportLimit bounds the tracer's export queue when
// SetExportBuffer is given a non-positive size.
const DefaultSpanExportLimit = 1024

// SetExportBuffer turns on the tracer's export queue: every recorded span
// is also queued for Drain, at most n between drains (non-positive =
// DefaultSpanExportLimit), overflow dropped and counted.
func (t *Tracer) SetExportBuffer(n int) {
	if n <= 0 {
		n = DefaultSpanExportLimit
	}
	t.mu.Lock()
	t.export.limit = n
	t.mu.Unlock()
}

// Drain removes and returns the spans queued for export (nil when empty
// or export is off).
func (t *Tracer) Drain() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.export.drain()
}

// Dropped reports how many spans were shed on a full export queue.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.export.dropped
}

// ExportBatch drains the export queue into one encoded SpanBatch from
// module, stamped sentAt and carrying the cumulative drop count; nil when
// no span is pending (or, like a shed span, when encoding fails).
func (t *Tracer) ExportBatch(module string, sentAt time.Time) []byte {
	spans := t.Drain()
	if len(spans) == 0 {
		return nil
	}
	payload, _ := EncodeSpanBatch(SpanBatch{Module: module, SentAt: sentAt, Dropped: t.Dropped(), Spans: spans})
	return payload
}
