package telemetry

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogRingWraparound(t *testing.T) {
	l := NewEventLog(4)
	base := time.Unix(1000, 0)
	for i := 0; i < 6; i++ {
		l.Emit(Event{Time: base.Add(time.Duration(i) * time.Second), Kind: kindN(i)})
	}
	if got := l.TotalEvents(); got != 6 {
		t.Fatalf("TotalEvents = %d, want 6", got)
	}
	evs := l.Events(0, time.Time{})
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(evs))
	}
	// Oldest two were overwritten; survivors are k2..k5 oldest-first.
	for i, ev := range evs {
		if want := kindN(i + 2); ev.Kind != want {
			t.Fatalf("event[%d].Kind = %q, want %q (ring should drop oldest)", i, ev.Kind, want)
		}
	}
}

func kindN(i int) string { return string(rune('a'+i)) + "_event" }

func TestEventLogQueryLimitAndSince(t *testing.T) {
	l := NewEventLog(16)
	base := time.Unix(2000, 0)
	for i := 0; i < 8; i++ {
		l.Emit(Event{Time: base.Add(time.Duration(i) * time.Second), Kind: kindN(i)})
	}
	if got := l.Events(3, time.Time{}); len(got) != 3 || got[0].Kind != kindN(5) {
		t.Fatalf("limit=3 should keep the 3 newest, got %+v", got)
	}
	// since is exclusive: events at or before the cut are filtered.
	got := l.Events(0, base.Add(5*time.Second))
	if len(got) != 2 || got[0].Kind != kindN(6) {
		t.Fatalf("since filter should leave the 2 newest, got %+v", got)
	}
	if got := l.Events(1, base.Add(5*time.Second)); len(got) != 1 || got[0].Kind != kindN(7) {
		t.Fatalf("limit applies after since, got %+v", got)
	}
}

func TestEventLogExportDropAccounting(t *testing.T) {
	l := NewEventLog(3)
	// Events emitted before any export read ship with the first batch.
	for i := 0; i < 5; i++ {
		l.Eventf(SevWarn, "mod", kindN(i))
	}
	batch := decodeEvents(t, l.ExportBatch("mod", time.Unix(1, 0)))
	if len(batch.Events) != 3 || batch.Events[0].Kind != kindN(2) || batch.Dropped != 2 {
		t.Fatalf("first batch = %+v, want the 3 retained events, dropped=2", batch)
	}
	if d := l.Dropped(); d != 2 {
		t.Fatalf("Dropped = %d, want 2 overwritten before export", d)
	}
	if l.ExportBatch("mod", time.Unix(2, 0)) != nil {
		t.Fatal("ExportBatch with no new event should be nil")
	}
	// Export leaves the ring as it was.
	if evs := l.Events(0, time.Time{}); len(evs) != 3 {
		t.Fatalf("ring retained %d, want 3", len(evs))
	}
	l.Eventf(SevInfo, "mod", "reconnected")
	batch = decodeEvents(t, l.ExportBatch("mod", time.Unix(3, 0)))
	if len(batch.Events) != 1 || batch.Events[0].Kind != "reconnected" || batch.Dropped != 2 {
		t.Fatalf("second batch = %+v, want only the new event, dropped still 2", batch)
	}
}

// TestEventLogReadCursor walks the log with the cursor read the tail and
// the exporter share: arrival order (not time order), no event twice, and
// overwritten events counted.
func TestEventLogReadCursor(t *testing.T) {
	l := NewEventLog(4)
	base := time.Unix(100, 0)
	l.Emit(Event{Time: base.Add(time.Second), Kind: "late"})
	l.Emit(Event{Time: base, Kind: "early"})
	evs, cursor, lost := l.Read(0)
	if len(evs) != 2 || evs[0].Kind != "late" || evs[1].Kind != "early" || cursor != 2 || lost != 0 {
		t.Fatalf("Read(0) = %+v cursor %d lost %d, want arrival order", evs, cursor, lost)
	}
	if evs, next, _ := l.Read(cursor); len(evs) != 0 || next != cursor {
		t.Fatalf("Read at the end = %+v next %d", evs, next)
	}
	for i := 0; i < 6; i++ {
		l.Emit(Event{Kind: kindN(i)})
	}
	evs, cursor, lost = l.Read(cursor)
	if len(evs) != 4 || evs[0].Kind != kindN(2) || cursor != 8 || lost != 2 {
		t.Fatalf("Read after wrap = %+v cursor %d lost %d, want 4 events from %s, 2 lost", evs, cursor, lost, kindN(2))
	}
	// The tail's read leaves the exporter's cursor alone.
	if batch := decodeEvents(t, l.ExportBatch("m", time.Time{})); len(batch.Events) != 4 || batch.Dropped != 4 {
		t.Fatalf("export after a tail read = %d events dropped %d, want 4 and 4", len(batch.Events), batch.Dropped)
	}
}

// TestEventLogExportConcurrent races emitters against the exporter on a
// ring that wraps many times: every event ships once or counts as
// dropped.
func TestEventLogExportConcurrent(t *testing.T) {
	const writers, perWriter = 4, 2000
	l := NewEventLog(16)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Eventf(SevInfo, "m", "k")
				if i%100 == 0 {
					_ = l.Events(0, time.Time{})
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var shipped, dropped uint64
	export := func() {
		if payload := l.ExportBatch("m", time.Time{}); payload != nil {
			batch := decodeEvents(t, payload)
			shipped += uint64(len(batch.Events))
			dropped = batch.Dropped
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		export()
	}
	export()
	if total := l.TotalEvents(); shipped+dropped != total || total != writers*perWriter {
		t.Fatalf("shipped %d + dropped %d != emitted %d (want %d)", shipped, dropped, total, writers*perWriter)
	}
}

func TestEventLogEmitStampsDefaults(t *testing.T) {
	l := NewEventLog(16)
	l.Emit(Event{Module: "other", Kind: "wal_corrupt"})
	if got := l.TotalEvents(); got != 1 {
		t.Fatalf("TotalEvents = %d, want 1", got)
	}
	evs := l.Events(0, time.Time{})
	if len(evs) != 1 || evs[0].Kind != "wal_corrupt" || evs[0].Module != "other" {
		t.Fatalf("ring = %+v, want the emitted event", evs)
	}
	if evs[0].Time.IsZero() || evs[0].Severity != SevInfo {
		t.Fatalf("Emit should stamp zero time and severity, got %+v", evs[0])
	}
}

func decodeEvents(t *testing.T, payload []byte) EventBatch {
	t.Helper()
	batch, err := DecodeEventBatch(payload)
	if err != nil {
		t.Fatalf("decode %q: %v", payload, err)
	}
	return batch
}

func TestEventfFieldPairs(t *testing.T) {
	l := NewEventLog(4)
	l.Eventf(SevError, "m", "k", "a", "1", "b", "2", "odd")
	ev := l.Events(0, time.Time{})[0]
	want := map[string]string{"a": "1", "b": "2", "odd": ""}
	if !reflect.DeepEqual(ev.Fields, want) {
		t.Fatalf("Fields = %v, want %v", ev.Fields, want)
	}
	if ev.Severity != SevError || ev.Module != "m" || ev.Kind != "k" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(Event{Kind: "x"})
	l.Eventf(SevWarn, "m", "k")
	l.BindRegistry(NewRegistry())
	evs, next, lost := l.Read(0)
	if l.Events(0, time.Time{}) != nil || l.TotalEvents() != 0 || l.Dropped() != 0 ||
		l.ExportBatch("m", time.Time{}) != nil || evs != nil || next != 0 || lost != 0 {
		t.Fatal("nil EventLog methods must be no-ops")
	}
}

func TestEventBatchRoundTrip(t *testing.T) {
	batch := EventBatch{
		Module:  "moduleA",
		SentAt:  time.Unix(3000, 0).UTC(),
		Dropped: 7,
		Events: []Event{
			{Time: time.Unix(2999, 0).UTC(), Severity: SevWarn, Kind: "mix_desync",
				Fields: map[string]string{"peer": "moduleB"}},
			{Time: time.Unix(2999, 500).UTC(), Severity: SevError, Kind: "task_failed",
				TraceKey: &TraceKey{Recipe: "r", TaskID: "t", Seq: 9}},
		},
	}
	payload, err := EncodeEventBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEventBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("round trip = %+v, want %+v", got, batch)
	}
	if _, err := DecodeEventBatch([]byte("{garbage")); err == nil {
		t.Fatal("decoding garbage should fail")
	}
}

func TestEventLogBindRegistry(t *testing.T) {
	reg := NewRegistry()
	a := NewEventLog(1)
	b := NewEventLog(4)
	a.BindRegistry(reg, L("module", "a"))
	b.BindRegistry(reg, L("module", "b"))
	a.Eventf(SevInfo, "a", "k1")
	a.Eventf(SevInfo, "a", "k2") // overwrites k1 in the 1-slot ring before export
	b.Eventf(SevInfo, "b", "k1")
	a.ExportBatch("a", time.Time{})

	samples := scrape(t, reg)
	if got := samples["ifot_events_total{module=a}"]; got != 2 {
		t.Fatalf("ifot_events_total{a} = %v, want 2", got)
	}
	if got := samples["ifot_events_total{module=b}"]; got != 1 {
		t.Fatalf("ifot_events_total{b} = %v, want 1 (per-module label must not alias)", got)
	}
	if got := samples["ifot_events_dropped_total{module=a}"]; got != 1 {
		t.Fatalf("ifot_events_dropped_total{a} = %v, want 1", got)
	}
}

// scrape renders reg and indexes samples as name{k=v,...} → value.
func scrape(t *testing.T, reg *Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, s := range parsePrometheus(t, sb.String()) {
		key := s.name
		if len(s.labels) > 0 {
			keys := make([]string, 0, len(s.labels))
			for k := range s.labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			pairs := make([]string, len(keys))
			for i, k := range keys {
				pairs[i] = k + "=" + s.labels[k]
			}
			key += "{" + strings.Join(pairs, ",") + "}"
		}
		out[key] = s.value
	}
	return out
}
