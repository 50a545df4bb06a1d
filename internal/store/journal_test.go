package store

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// testRec is a journal record of the tests below.
type testRec struct {
	K string `json:"k"`
	V int    `json:"v,omitempty"`
}

// openTestJournal opens a journal over st whose state is the applied
// records, in order, after the restored snapshot blob.
func openTestJournal(t *testing.T, st Store, logger *log.Logger, events *telemetry.EventLog) (*Journal[testRec], *[]string) {
	t.Helper()
	var state []string
	j, err := OpenJournal(st, "test", logger, events,
		func(blob []byte) error { state = append(state, "snap="+string(blob)); return nil },
		func(r testRec) { state = append(state, fmt.Sprintf("%s=%d", r.K, r.V)) },
		func() ([]byte, error) { return []byte(strings.Join(state, ",")), nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.Close)
	return j, &state
}

// TestJournalRecoversSnapshotThenTail: OpenJournal restores the snapshot,
// then applies the records behind it in order, decoded from the JSON the
// journal encoded them as.
func TestJournalRecoversSnapshotThenTail(t *testing.T) {
	st := NewMemStore()
	j, _ := openTestJournal(t, st, nil, nil)
	j.Append(testRec{K: "a", V: 1})
	if err := st.SaveSnapshot(func() ([]byte, error) { return []byte("S"), nil }); err != nil {
		t.Fatal(err)
	}
	j.Append(testRec{K: "b", V: 2})
	j.Append(testRec{K: "c"})
	if got := collect(t, st); len(got) != 2 || string(got[0]) != `{"k":"b","v":2}` || string(got[1]) != `{"k":"c"}` {
		t.Fatalf("journaled records = %q", got)
	}

	_, state := openTestJournal(t, st, nil, nil)
	if got := strings.Join(*state, ","); got != "snap=S,b=2,c=0" {
		t.Fatalf("recovered %q, want snap=S,b=2,c=0", got)
	}
}

// TestJournalRecoveryErrors: a snapshot the owner cannot restore and a
// record that does not decode fail the open.
func TestJournalRecoveryErrors(t *testing.T) {
	apply := func(testRec) {}
	capture := func() ([]byte, error) { return nil, nil }

	st := NewMemStore()
	if err := st.SaveSnapshot(func() ([]byte, error) { return []byte("S"), nil }); err != nil {
		t.Fatal(err)
	}
	bad := errors.New("bad snapshot")
	if _, err := OpenJournal(st, "test", nil, nil, func([]byte) error { return bad }, apply, capture); !errors.Is(err, bad) {
		t.Fatalf("open over an unrestorable snapshot: %v", err)
	}

	st = NewMemStore()
	if err := st.Append([]byte("not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(st, "test", nil, nil, func([]byte) error { return nil }, apply, capture); err == nil ||
		!strings.Contains(err.Error(), "decode record") {
		t.Fatalf("open over an undecodable record: %v", err)
	}
}

// TestJournalRecoveryTimeInGauge: the owner's rebuild time counts toward
// the file store's recovery duration (ifot_store_recovery_seconds).
func TestJournalRecoveryTimeInGauge(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{NoSync: true})
	if err := st.Append([]byte(`{"k":"a"}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openTest(t, dir, Options{NoSync: true})
	defer st.Close()
	before := st.RecoveryDuration()
	const rebuild = 20 * time.Millisecond
	j, err := OpenJournal(st, "test", nil, nil, func([]byte) error { return nil },
		func(testRec) { time.Sleep(rebuild) }, func() ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := st.RecoveryDuration() - before; got < rebuild {
		t.Fatalf("recovery gauge grew by %v, want at least the %v rebuild", got, rebuild)
	}
}

func TestJournalAutoSnapshot(t *testing.T) {
	m := NewMemStore()
	j, _ := openTestJournal(t, m, nil, nil)
	// One record past the threshold arms the background compaction.
	j.Append(testRec{K: strings.Repeat("x", snapshotBytes)})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if snap, _ := m.LoadSnapshot(); snap != nil {
			if m.Records() != 0 {
				t.Fatalf("%d records left behind the snapshot", m.Records())
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("journal never took an automatic snapshot")
}

// TestJournalCountsReplayedTail: a tail written by earlier incarnations
// counts toward the compaction threshold, so one more append compacts a
// log no single incarnation filled.
func TestJournalCountsReplayedTail(t *testing.T) {
	m := NewMemStore()
	half := `{"k":"` + strings.Repeat("x", snapshotBytes/2) + `"}`
	for i := 0; i < 2; i++ {
		if err := m.Append([]byte(half)); err != nil {
			t.Fatal(err)
		}
	}
	j, _ := openTestJournal(t, m, nil, nil)
	j.Append(testRec{K: "small"})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if snap, _ := m.LoadSnapshot(); snap != nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("a replayed tail past the threshold was never compacted")
}

// failingSnapshots is a store whose snapshot compaction always fails.
type failingSnapshots struct{ *MemStore }

func (failingSnapshots) SaveSnapshot(func() ([]byte, error)) error {
	return errors.New("disk full")
}

// TestJournalSnapshotFailedEvent: a failed background compaction reaches
// the event log the journal was built with, naming the journal.
func TestJournalSnapshotFailedEvent(t *testing.T) {
	events := telemetry.NewEventLog(16)
	j, _ := openTestJournal(t, failingSnapshots{NewMemStore()}, nil, events)
	j.Append(testRec{K: strings.Repeat("x", snapshotBytes)})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, ev := range events.Events(0, time.Time{}) {
			if ev.Kind == "snapshot_failed" {
				if ev.Severity != telemetry.SevError || ev.Fields["error"] != "disk full" || ev.Fields["journal"] != "test" {
					t.Fatalf("snapshot_failed event = %+v", ev)
				}
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("failed snapshot emitted no snapshot_failed event")
}

// failingAppends is a store whose appends fail while fail is set.
type failingAppends struct {
	*MemStore
	fail atomic.Bool
}

func (f *failingAppends) Append(rec []byte) error {
	if f.fail.Load() {
		return errors.New("disk full")
	}
	return f.MemStore.Append(rec)
}

// TestJournalAppendFailurePolicy: every failed append is logged; the first
// of an outage emits one persist_degraded, the next success one
// persist_recovered, and a second outage latches again.
func TestJournalAppendFailurePolicy(t *testing.T) {
	st := &failingAppends{MemStore: NewMemStore()}
	var logged bytes.Buffer
	events := telemetry.NewEventLog(64)
	j, _ := openTestJournal(t, st, log.New(&logged, "", 0), events)

	var want []string
	for outage := 0; outage < 2; outage++ {
		st.fail.Store(true)
		for i := 0; i < 3; i++ {
			j.Append(testRec{K: "lost", V: i})
		}
		st.fail.Store(false)
		j.Append(testRec{K: "kept", V: outage})
		j.Append(testRec{K: "kept", V: outage})
		want = append(want, "persist_degraded", "persist_recovered")
	}

	var kinds []string
	for _, ev := range events.Events(0, time.Time{}) {
		kinds = append(kinds, string(ev.Kind))
		if ev.Fields["journal"] != "test" {
			t.Fatalf("event %+v does not name its journal", ev)
		}
		if ev.Kind == "persist_degraded" && (ev.Severity != telemetry.SevError || ev.Fields["error"] != "disk full") {
			t.Fatalf("persist_degraded = %+v", ev)
		}
	}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	if n := strings.Count(logged.String(), "test journal: append: disk full"); n != 6 {
		t.Fatalf("logged %d append failures, want 6:\n%s", n, logged.String())
	}
	if got := len(collect(t, st)); got != 4 {
		t.Fatalf("journaled %d records, want the 4 appended between outages", got)
	}
}
