package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/tasks"
)

// TestManagerRestartResumesDeployment is the regression test for the
// manager forgetting in-flight deployments on restart: a manager with a
// journal store is restarted mid-deployment and must (a) recover the
// deployment and its assignments, (b) resume status monitoring — the
// recovered deployment's WaitRunning completes via idempotent re-assign
// acks — and (c) keep failover working for the recovered recipe.
func TestManagerRestartResumesDeployment(t *testing.T) {
	tc := newTestCluster(t)
	st := store.NewMemStore()

	m1 := tc.module(Config{ID: "node1", CapacityOps: 100,
		HeartbeatInterval: 100 * time.Millisecond})
	m1.RegisterSensor(accelSensor("acc", 1, 50))
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}

	mgr1 := tc.manager(ManagerConfig{Store: st})
	waitFor(t, "modules", func() bool { return len(mgr1.Modules()) == 1 })

	// node1 is the only module, so both subtasks land on it.
	rec := &recipe.Recipe{
		Name: "rp",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "rp/raw",
				Params: map[string]string{"sensor": "acc"}},
			{ID: "det", Kind: recipe.KindAnomaly, Inputs: []string{"task:sense"},
				Output: "rp/alerts"},
		},
	}
	dep, err := mgr1.Deploy(rec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		t.Fatal(err)
	}

	// "Crash" the manager mid-deployment: disconnect without undeploying.
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2 := tc.manager(ManagerConfig{Store: st})

	// (a) The deployment and its assignments came back from the journal.
	recovered, ok := mgr2.Deployment("rp")
	if !ok {
		t.Fatal("restarted manager forgot deployment rp")
	}
	if got := recovered.Assignment["rp/sense"]; got != "node1" {
		t.Fatalf("recovered assignment rp/sense = %q, want node1", got)
	}
	if got := recovered.Assignment["rp/det"]; got != "node1" {
		t.Fatalf("recovered assignment rp/det = %q, want node1", got)
	}
	if len(mgr2.Streams()) != 2 {
		t.Fatalf("recovered streams = %v, want 2 entries", mgr2.Streams())
	}

	// (b) Status monitoring resumed: the re-published assignments are
	// acked (the module already runs both tasks), draining pending.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := recovered.WaitRunning(ctx2); err != nil {
		t.Fatalf("recovered deployment never confirmed running: %v", err)
	}

	// (c) Failover still supervises the recovered recipe: node2 joins
	// after the restart, node1 leaves, and the anomaly task must move to
	// node2 (the sense task dies with its sensor and stays orphaned).
	m2 := tc.module(Config{ID: "node2", CapacityOps: 100,
		HeartbeatInterval: 100 * time.Millisecond})
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "modules on mgr2", func() bool { return len(mgr2.Modules()) == 2 })
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "failover of rp/det to node2", func() bool {
		for _, name := range m2.RunningTasks() {
			if name == "rp/det" {
				return true
			}
		}
		return false
	})
	if got, ok := mgr2.Deployment("rp"); !ok || got.Assignment["rp/det"] != "node2" {
		t.Fatalf("failover assignment = %v", got.Assignment)
	}
}

// TestManagerRestartAfterUndeploy verifies undeploys are journaled: a
// recipe undeployed before the restart must stay gone.
func TestManagerRestartAfterUndeploy(t *testing.T) {
	tc := newTestCluster(t)
	st := store.NewMemStore()

	m := tc.module(Config{ID: "node", CapacityOps: 100})
	m.RegisterSensor(accelSensor("acc", 1, 50))
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	mgr1 := tc.manager(ManagerConfig{Store: st})
	waitFor(t, "module", func() bool { return len(mgr1.Modules()) == 1 })

	rec := &recipe.Recipe{
		Name: "gone",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "gone/raw",
				Params: map[string]string{"sensor": "acc"}},
		},
	}
	if _, err := mgr1.Deploy(rec); err != nil {
		t.Fatal(err)
	}
	if err := mgr1.Undeploy("gone"); err != nil {
		t.Fatal(err)
	}
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2 := tc.manager(ManagerConfig{Store: st})
	if _, ok := mgr2.Deployment("gone"); ok {
		t.Fatal("undeployed recipe resurrected after restart")
	}
	if len(mgr2.Streams()) != 0 {
		t.Fatalf("streams after restart = %v, want none", mgr2.Streams())
	}
}

// journalRecords returns the records in st's live log.
func journalRecords(t *testing.T, st store.Store) []string {
	t.Helper()
	var recs []string
	if err := st.Replay(func(rec []byte) error { recs = append(recs, string(rec)); return nil }); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestJournalGoldenManagerRecord: a deploy record is journaled as the
// bytes earlier releases wrote, so their journals and this one's read
// alike.
func TestJournalGoldenManagerRecord(t *testing.T) {
	st := store.NewMemStore()
	mgr := NewManager(ManagerConfig{})
	if err := mgr.recoverState(st); err != nil {
		t.Fatal(err)
	}
	defer mgr.journal.Close()
	rec, sub := anomalySub("zscore")
	mgr.mu.Lock()
	mgr.commitLocked(mgrRec{Op: mgrOpDeploy, Name: rec.Name, Recipe: &rec, SubTasks: []recipe.SubTask{sub},
		Assignment: tasks.Assignment{sub.Name(): "n1"}, Epochs: map[string]uint64{sub.Name(): 1}})
	mgr.mu.Unlock()
	const golden = `{"op":"deploy","name":"ck","recipe":{"name":"ck","version":0,"tasks":null},` +
		`"subTasks":[{"recipe":"ck","taskId":"det","shard":0,"shardCount":1,"task":{"id":"det","kind":"anomaly",` +
		`"inputs":["ck/in"],"output":"ck/out","params":{"detector":"zscore","threshold":"5"},"placement":{}},"stage":0}],` +
		`"assignment":{"ck/det":"n1"},"epochs":{"ck/det":1}}`
	if got := journalRecords(t, st); len(got) != 1 || got[0] != golden {
		t.Fatalf("journaled %q, want %q", got, golden)
	}
}

// failingAppendStore is a store whose every append fails.
type failingAppendStore struct{ *store.MemStore }

func (failingAppendStore) Append([]byte) error { return errors.New("disk full") }

// TestJournalFailureReportedByManager: with a store that cannot append,
// Deploy still succeeds and the manager's event log reports the degraded
// journal.
func TestJournalFailureReportedByManager(t *testing.T) {
	tc := newTestCluster(t)
	m := tc.module(Config{ID: "node1", CapacityOps: 100, HeartbeatInterval: 100 * time.Millisecond})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	mgr := tc.manager(ManagerConfig{Store: failingAppendStore{store.NewMemStore()}})
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 1 })
	if _, err := mgr.Deploy(detectorRecipe("rp", 1, 1)); err != nil {
		t.Fatalf("Deploy over a failing journal: %v", err)
	}
	for _, ev := range mgr.Events().Events(0, time.Time{}) {
		if ev.Kind == "persist_degraded" {
			if ev.Fields["journal"] != "manager" || ev.Fields["error"] != "disk full" {
				t.Fatalf("persist_degraded = %+v", ev)
			}
			return
		}
	}
	t.Fatal("the manager's journal failure reached no persist_degraded event")
}
