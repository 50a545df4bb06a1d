package telemetry

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Severity classifies an event's operational weight. The three levels
// mirror what an operator does about them: info is lifecycle narrative,
// warn is degradation the system absorbed, error is lost work or lost
// state.
type Severity string

// Event severities.
const (
	SevInfo  Severity = "info"
	SevWarn  Severity = "warn"
	SevError Severity = "error"
)

// Event is one structured occurrence in the middleware: a task started,
// a WAL tail was truncated, a MIX peer desynced. Kind is a stable
// machine-matchable name; Fields carry the occurrence-specific details as
// key=value pairs. TraceKey optionally correlates the event with a flow
// in the distributed tracer (same recipe/taskID/seq key space).
type Event struct {
	Time     time.Time         `json:"time"`
	Severity Severity          `json:"severity"`
	Module   string            `json:"module,omitempty"`
	Kind     string            `json:"kind"`
	Fields   map[string]string `json:"fields,omitempty"`
	TraceKey *TraceKey         `json:"traceKey,omitempty"`
}

// DefaultEventCapacity is the ring size used when NewEventLog is given a
// non-positive capacity. Events are rare compared to data-path messages,
// so a few hundred entries cover hours of normal operation.
const DefaultEventCapacity = 512

// DefaultEventExportLimit bounds the export queue when SetExportBuffer is
// given a non-positive size.
const DefaultEventExportLimit = 256

// DefaultEventQueryLimit caps /events responses when the client does not
// pass ?limit.
const DefaultEventQueryLimit = 256

// EventLog is a bounded, concurrency-safe ring of Events plus an optional
// bounded export queue. The ring backs the local /events endpoint (old
// events are overwritten, bounding memory); the export queue feeds the
// periodic MQTT exporter and sheds (and counts) events rather than grow —
// event reporting must never apply backpressure to the paths it observes.
// All methods are nil-safe no-ops on a nil receiver, so failure-path call
// sites need no guards.
type EventLog struct {
	mu     sync.Mutex
	ring   []Event
	next   int
	total  uint64
	export exportQueue[Event] // off until SetExportBuffer
}

// NewEventLog creates a ring retaining the most recent capacity events
// (non-positive = DefaultEventCapacity). Export queueing is off until
// SetExportBuffer is called.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{ring: make([]Event, 0, capacity)}
}

// SetExportBuffer enables the export queue, buffering at most n events
// between Drain calls (non-positive = DefaultEventExportLimit). Call
// before the log sees concurrent traffic.
func (l *EventLog) SetExportBuffer(n int) {
	if l == nil {
		return
	}
	if n <= 0 {
		n = DefaultEventExportLimit
	}
	l.mu.Lock()
	l.export.limit = n
	l.mu.Unlock()
}

// Emit appends an event to the ring (and the export queue when enabled).
// A zero Time is stamped with the wall clock.
func (l *EventLog) Emit(ev Event) { l.add(ev, true) }

// Ingest appends an event to the ring only, bypassing the export queue —
// for cluster views folding in events another module already exported
// (re-exporting them would duplicate the originals on the wire).
func (l *EventLog) Ingest(ev Event) { l.add(ev, false) }

func (l *EventLog) add(ev Event, export bool) {
	if l == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	if ev.Severity == "" {
		ev.Severity = SevInfo
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[l.next] = ev
		l.next = (l.next + 1) % cap(l.ring)
	}
	l.total++
	if export {
		l.export.push(ev)
	}
	l.mu.Unlock()
}

// Eventf is shorthand for emitting an event with key=value fields given
// as alternating pairs: Eventf(SevWarn, "mod", "wal_torn_tail",
// "segment", seg, "offset", off). An odd trailing key gets "".
func (l *EventLog) Eventf(sev Severity, module, kind string, kv ...string) {
	if l == nil {
		return
	}
	var fields map[string]string
	if len(kv) > 0 {
		fields = make(map[string]string, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			v := ""
			if i+1 < len(kv) {
				v = kv[i+1]
			}
			fields[kv[i]] = v
		}
	}
	l.Emit(Event{Severity: sev, Module: module, Kind: kind, Fields: fields})
}

// Events snapshots retained events newest-last, filtered to those after
// since (zero = all) and capped to the most recent limit entries
// (non-positive = all retained).
func (l *EventLog) Events(limit int, since time.Time) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Event, 0, len(l.ring))
	if len(l.ring) == cap(l.ring) {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
	}
	l.mu.Unlock()
	// Ingested cluster events may interleave out of order across modules;
	// present a time-ordered view.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	if !since.IsZero() {
		cut := 0
		for cut < len(out) && !out[cut].Time.After(since) {
			cut++
		}
		out = out[cut:]
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// TotalEvents reports how many events were ever emitted (including those
// evicted from the ring).
func (l *EventLog) TotalEvents() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dropped reports how many events were shed on a full export queue.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.export.dropped
}

// Drain removes and returns the pending export queue (nil when empty or
// export is disabled).
func (l *EventLog) Drain() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.export.drain()
}

// Pending reports the number of events queued for export.
func (l *EventLog) Pending() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.export.buf)
}

// BindRegistry exposes the log's lifetime totals on reg as monotone
// counters (ifot_events_total, ifot_events_dropped_total). Pass a module
// label when several logs share one registry (simulator processes), or
// the later binding silently shadows the earlier one.
func (l *EventLog) BindRegistry(reg *Registry, labels ...Label) {
	if l == nil || reg == nil {
		return
	}
	reg.CounterFunc("ifot_events_total", "structured events emitted into the local event log",
		func() int64 { return int64(l.TotalEvents()) }, labels...)
	reg.CounterFunc("ifot_events_dropped_total", "events shed on a full export queue",
		func() int64 { return int64(l.Dropped()) }, labels...)
}

// EventBatch is the JSON payload a module publishes on
// `ifot/ctrl/events/<moduleID>`: the events accumulated since the last
// flush plus the module's cumulative export-drop count, QoS 0 — losing an
// event batch must never cost data-path throughput.
type EventBatch struct {
	Module  string    `json:"module"`
	SentAt  time.Time `json:"sentAt"`
	Dropped uint64    `json:"dropped,omitempty"`
	Events  []Event   `json:"events"`
}

// EncodeEventBatch serializes a batch for publishing.
func EncodeEventBatch(b EventBatch) ([]byte, error) { return json.Marshal(b) }

// ExportBatch drains the export queue into one encoded EventBatch from
// module, stamped sentAt and carrying the cumulative drop count; nil when
// no event is pending (or, like a shed event, when encoding fails).
func (l *EventLog) ExportBatch(module string, sentAt time.Time) []byte {
	events := l.Drain()
	if len(events) == 0 {
		return nil
	}
	payload, _ := EncodeEventBatch(EventBatch{Module: module, SentAt: sentAt, Dropped: l.Dropped(), Events: events})
	return payload
}

// DecodeEventBatch parses a published batch.
func DecodeEventBatch(data []byte) (EventBatch, error) {
	var b EventBatch
	err := json.Unmarshal(data, &b)
	return b, err
}
