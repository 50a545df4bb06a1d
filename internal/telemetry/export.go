package telemetry

import (
	"encoding/json"
	"time"
)

// ring is a bounded log that numbers every entry it ever held: entry n
// sits in slot n%limit until entry n+limit overwrites it. It is both a
// log's retained view and its export queue: a reader keeps a cursor (the
// number of the first entry it has not read), and an entry overwritten
// before its reader got to it is counted as lost, never waited for, so
// observing never applies backpressure to the paths it observes. The
// exporter's cursor and drop count live in the ring; other readers keep
// their own cursor. The buffer grows on demand up to limit, so a large
// bound costs nothing until entries arrive. The owner serializes calls
// under its own mutex.
type ring[T any] struct {
	buf      []T
	limit    int
	total    uint64 // entries ever pushed: the number the next one gets
	exported uint64 // the exporter's cursor
	dropped  uint64 // entries overwritten before the exporter read them
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%uint64(r.limit)] = v
	}
	r.total++
}

// read copies out the retained entries numbered cursor and later in
// arrival order. It also returns the cursor to pass next time and how
// many entries at or after cursor were overwritten before this read.
func (r *ring[T]) read(cursor uint64) (out []T, next, lost uint64) {
	if oldest := r.total - uint64(len(r.buf)); cursor < oldest {
		lost, cursor = oldest-cursor, oldest
	}
	if cursor < r.total {
		out = make([]T, 0, r.total-cursor)
	}
	for n := cursor; n < r.total; n++ {
		out = append(out, r.buf[n%uint64(r.limit)])
	}
	return out, r.total, lost
}

// export reads the entries after the exporter's cursor and moves the
// cursor past them, adding the overwritten ones to the drop count; it
// returns the entries and the cumulative drop count.
func (r *ring[T]) export() ([]T, uint64) {
	out, next, lost := r.read(r.exported)
	r.exported = next
	r.dropped += lost
	return out, r.dropped
}

// reset empties the ring and restarts its numbering and the exporter's
// cursor; the drop count stays.
func (r *ring[T]) reset() { r.buf, r.total, r.exported = r.buf[:0], 0, 0 }

// SpanBatch is the JSON payload a module publishes on
// `ifot/ctrl/trace/<moduleID>`: the spans recorded since the last flush,
// plus how many were overwritten in the tracer's ring before they could
// be exported. SentAt is stamped from the module's own clock so the
// collector can sanity-check its announce-derived skew offsets.
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

// Dropped reports how many spans the ring overwrote before ExportBatch
// shipped them.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.dropped
}

// ExportBatch reads the spans recorded since the previous call from the
// ring into one encoded SpanBatch from module, stamped sentAt and
// carrying the cumulative drop count; nil when there is no new span (or,
// like an overwritten span, when encoding fails).
func (t *Tracer) ExportBatch(module string, sentAt time.Time) []byte {
	t.mu.Lock()
	spans, dropped := t.spans.export()
	t.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	payload, _ := EncodeSpanBatch(SpanBatch{Module: module, SentAt: sentAt, Dropped: dropped, Spans: spans})
	return payload
}
