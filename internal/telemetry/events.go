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

// DefaultEventQueryLimit caps /events responses when the client does not
// pass ?limit.
const DefaultEventQueryLimit = 256

// EventLog is a bounded, concurrency-safe ring of Events. The ring backs
// the local /events endpoint and is also the export queue: ExportBatch
// reads the events after its cursor, and an event overwritten before it
// was exported is counted as dropped rather than waited for — event
// reporting must never apply backpressure to the paths it observes. A
// log that exports never ingests another log's events, so nothing is
// exported twice. All methods are nil-safe no-ops on a nil receiver, so
// failure-path call sites need no guards.
type EventLog struct {
	mu     sync.Mutex
	events ring[Event]
}

// NewEventLog creates a ring retaining the most recent capacity events
// (non-positive = DefaultEventCapacity).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{events: ring[Event]{limit: capacity}}
}

// Emit appends an event to the ring. A zero Time is stamped with the wall
// clock, an empty Severity reads as info.
func (l *EventLog) Emit(ev Event) {
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
	l.events.push(ev)
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
	out, _, _ := l.Read(0)
	// Events exported by several modules arrive out of time order;
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

// Read returns the retained events numbered cursor and later in arrival
// order (events are numbered from 0 as they are emitted), the cursor to
// pass next time, and how many events at or after cursor were
// overwritten before this read. It is the read ExportBatch makes with
// its own cursor; Read(0) starts at the oldest retained event.
func (l *EventLog) Read(cursor uint64) (events []Event, next, lost uint64) {
	if l == nil {
		return nil, 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events.read(cursor)
}

// TotalEvents reports how many events were ever emitted (including those
// evicted from the ring).
func (l *EventLog) TotalEvents() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events.total
}

// Dropped reports how many events the ring overwrote before ExportBatch
// shipped them.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events.dropped
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
	reg.CounterFunc("ifot_events_dropped_total", "events overwritten in the ring before export",
		func() int64 { return int64(l.Dropped()) }, labels...)
}

// EventBatch is the JSON payload a module publishes on
// `ifot/ctrl/events/<moduleID>`: the events emitted since the last flush
// plus the module's cumulative export-drop count, QoS 0 — losing an
// event batch must never cost data-path throughput.
type EventBatch struct {
	Module  string    `json:"module"`
	SentAt  time.Time `json:"sentAt"`
	Dropped uint64    `json:"dropped,omitempty"`
	Events  []Event   `json:"events"`
}

// EncodeEventBatch serializes a batch for publishing.
func EncodeEventBatch(b EventBatch) ([]byte, error) { return json.Marshal(b) }

// ExportBatch reads the events emitted since the previous call (from the
// first one the log ever held, so events emitted before the exporter
// started ship too) into one encoded EventBatch from module, stamped
// sentAt and carrying the cumulative drop count; nil when there is no new
// event (or, like an overwritten event, when encoding fails).
func (l *EventLog) ExportBatch(module string, sentAt time.Time) []byte {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	events, dropped := l.events.export()
	l.mu.Unlock()
	if len(events) == 0 {
		return nil
	}
	payload, _ := EncodeEventBatch(EventBatch{Module: module, SentAt: sentAt, Dropped: dropped, Events: events})
	return payload
}

// DecodeEventBatch parses a published batch.
func DecodeEventBatch(data []byte) (EventBatch, error) {
	var b EventBatch
	err := json.Unmarshal(data, &b)
	return b, err
}
