package core

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// TestRecoveryEventExportedWithoutArming opens a store over a torn WAL
// into a fresh event log, and only then builds an exporting module on
// that log, as the daemons do: the wal_torn_tail event store.Open emits
// before the module exists must still reach the manager's event view.
func TestRecoveryEventExportedWithoutArming(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Name: "neuron", NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := st.Append([]byte("checkpoint-record")); err != nil {
			t.Fatal(err)
		}
	}
	st.Crash()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	events := telemetry.NewEventLog(0)
	st, err = store.Open(dir, store.Options{Name: "neuron", NoSync: true, Events: events})
	if err != nil {
		t.Fatalf("reopen over torn WAL: %v", err)
	}
	defer st.Close()

	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	mod := tc.module(Config{ID: "edge1", Store: st, Events: events, EventExportInterval: 20 * time.Millisecond})
	if err := mod.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "wal_torn_tail in the manager's event view", func() bool {
		for _, ev := range mgr.Events().Events(0, time.Time{}) {
			if ev.Kind == "wal_torn_tail" && ev.Module == "edge1" && ev.Fields["store"] == "neuron" {
				return true
			}
		}
		return false
	})
}
