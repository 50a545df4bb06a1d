package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/store"
)

// TestStreamsSurviveSharedTopicUndeploy: two recipes producing the same
// topic each own a registry entry, so undeploying one leaves the other's
// entry listed and discoverable.
func TestStreamsSurviveSharedTopicUndeploy(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "host", CapacityOps: 100})
	m.RegisterCustom("relay", func(mqttclient.Message, func(string, []byte) error) {})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	for _, name := range []string{"ra", "rb"} {
		rec := &recipe.Recipe{Name: name, Tasks: []recipe.Task{{
			ID: "relay", Kind: recipe.KindCustom, Inputs: []string{name + "/in"},
			Output: "shared/out", Params: map[string]string{"handler": "relay"},
		}}}
		if _, err := mgr.Deploy(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := mgr.Streams(); len(got) != 2 || got[0].Recipe != "ra" || got[1].Recipe != "rb" {
		t.Fatalf("streams with both deployed = %+v, want ra and rb entries", got)
	}
	if err := mgr.Undeploy("rb"); err != nil {
		t.Fatal(err)
	}
	want := StreamInfo{Topic: "shared/out", Recipe: "ra", TaskID: "relay", Kind: string(recipe.KindCustom), ModuleID: "host"}
	if got := mgr.Streams(); len(got) != 1 || got[0] != want {
		t.Fatalf("streams after undeploying rb = %+v, want [%+v]", got, want)
	}
	found, err := m.DiscoverStreams("shared/#", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0] != want {
		t.Fatalf("DiscoverStreams after undeploying rb = %+v, want [%+v]", found, want)
	}
}

// restartRace is the fixture of the restart-race tests: one module hosting
// a custom task that counts its inputs by payload.
type restartRace struct {
	m   *Module
	rec recipe.Recipe
	sub recipe.SubTask

	mu   sync.Mutex
	seen map[string]int
}

func newRestartRace(t *testing.T) *restartRace {
	tc := newTestCluster(t)
	r := &restartRace{seen: make(map[string]int)}
	r.m = tc.module(Config{ID: "restarter", disableReconnect: true})
	r.m.RegisterCustom("count", func(msg mqttclient.Message, _ func(string, []byte) error) {
		r.mu.Lock()
		r.seen[string(msg.Payload)]++
		r.mu.Unlock()
	})
	if err := r.m.Start(); err != nil {
		t.Fatal(err)
	}
	r.rec = recipe.Recipe{Name: "rr", Tasks: []recipe.Task{{
		ID: "count", Kind: recipe.KindCustom, Inputs: []string{"rr/in"},
		Params: map[string]string{"handler": "count"},
	}}}
	r.sub = recipe.SubTask{Recipe: "rr", TaskID: "count", ShardCount: 1, Task: r.rec.Tasks[0]}
	return r
}

func (r *restartRace) count(payload string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[payload]
}

// startRestart starts the task at epoch 1, runs restartTasks on a
// goroutine and returns once the restart has taken the old instance down
// (nothing running) or has finished. The returned channel closes when the
// restart returns.
func (r *restartRace) startRestart(t *testing.T) <-chan struct{} {
	t.Helper()
	if err := r.m.startTask(r.rec, r.sub, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.m.restartTasks()
	}()
	for len(r.m.RunningTasks()) != 0 {
		select {
		case <-done:
			return done
		default:
			time.Sleep(10 * time.Microsecond)
		}
	}
	return done
}

// TestRestartTasksVsFence: a task fenced while a reconnect's restart is
// rebuilding it stays stopped — the restart must not resurrect it.
func TestRestartTasksVsFence(t *testing.T) {
	r := newRestartRace(t)
	for i := 0; i < 200; i++ {
		done := r.startRestart(t)
		err := r.m.stopTask(r.sub.Name(), stopFence)
		<-done
		if left := r.m.RunningTasks(); len(left) != 0 {
			t.Fatalf("iteration %d: fenced task resurrected by restart: %v (fence: %v)", i, left, err)
		}
		if err != nil {
			t.Fatalf("iteration %d: fence: %v", i, err)
		}
	}
}

// TestRestartTasksVsAssign: an assignment landing while a reconnect's
// restart is rebuilding the same task must not leave a second live
// instance — one input is handled exactly once.
func TestRestartTasksVsAssign(t *testing.T) {
	r := newRestartRace(t)
	for i := 0; i < 200; i++ {
		done := r.startRestart(t)
		if err := r.m.startTask(r.rec, r.sub, 1); err != nil && !errors.Is(err, ErrTaskExists) {
			t.Fatalf("iteration %d: start: %v", i, err)
		}
		<-done
		payload := fmt.Sprintf("in-%d", i)
		if err := r.m.Publish("rr/in", []byte(payload)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "input handled", func() bool { return r.count(payload) > 0 })
		time.Sleep(2 * time.Millisecond) // room for a duplicate delivery to land
		if n := r.count(payload); n != 1 {
			t.Fatalf("iteration %d: one input handled %d times (leaked instances)", i, n)
		}
		if err := r.m.stopTask(r.sub.Name(), ""); err != nil {
			t.Fatal(err)
		}
	}
}

// depView is the journaled part of one deployment.
type depView struct {
	Recipe     recipe.Recipe
	SubTasks   []recipe.SubTask
	Assignment map[string]string
	Epochs     map[string]uint64
}

// replayView is the part of the manager state a journal must reproduce.
type replayView struct {
	deps    map[string]depView
	scope   []string
	streams []StreamInfo
}

func captureView(mgr *Manager, names ...string) replayView {
	v := replayView{deps: make(map[string]depView), streams: mgr.Streams()}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	v.scope = sortedKeys(mgr.scope)
	for _, name := range names {
		if dep, ok := mgr.deployments[name]; ok {
			v.deps[name] = depView{Recipe: dep.Recipe, SubTasks: dep.SubTasks,
				Assignment: dep.Assignment, Epochs: dep.Epochs}
		}
	}
	return v
}

// detectorRecipe is n anomaly detectors on a plain input topic: placeable
// on any module, and free of sense tasks (two sense tasks on one module
// would share its sensor).
func detectorRecipe(name string, version, n int) *recipe.Recipe {
	rec := &recipe.Recipe{Name: name, Version: version}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%d", i)
		rec.Tasks = append(rec.Tasks, recipe.Task{
			ID: id, Kind: recipe.KindAnomaly, Inputs: []string{name + "/raw"},
			Output: name + "/" + id, Params: map[string]string{"threshold": "100"},
		})
	}
	return rec
}

// TestManagerReplayEquivalence: the table and scope a restarted manager
// replays from the journal equal the ones the live path built, across
// deploy, upgrade, failover on leave, drain and undeploy — without a
// snapshot compaction, with one in the middle of the sequence, and with one
// after the undeploy (which must keep the undeployed recipe in scope).
func TestManagerReplayEquivalence(t *testing.T) {
	for _, snapshot := range []string{"false", "true", "after-undeploy"} {
		t.Run("snapshot="+snapshot, func(t *testing.T) {
			tc := newTestCluster(t)
			st := store.NewMemStore()
			mgr := tc.manager(ManagerConfig{Store: st})

			leaver := tc.module(Config{ID: "leaver", CapacityOps: 1000000})
			drainer := tc.module(Config{ID: "drainer", CapacityOps: 100000})
			survivor := tc.module(Config{ID: "survivor", CapacityOps: 1000})
			for _, m := range []*Module{leaver, drainer, survivor} {
				if err := m.Start(); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 3 })

			for _, rec := range []*recipe.Recipe{detectorRecipe("keep", 1, 3), detectorRecipe("gone", 1, 1), detectorRecipe("keep", 2, 4)} {
				if _, err := mgr.Deploy(rec); err != nil {
					t.Fatal(err)
				}
			}
			if snapshot == "true" {
				if err := st.SaveSnapshot(mgr.captureState); err != nil {
					t.Fatal(err)
				}
			}
			hosted := func(module string) int {
				mgr.mu.Lock()
				defer mgr.mu.Unlock()
				n := 0
				for _, dep := range mgr.deployments {
					for _, host := range dep.Assignment {
						if host == module {
							n++
						}
					}
				}
				return n
			}
			if hosted("leaver") == 0 {
				t.Fatal("nothing placed on the leaving module")
			}
			if err := leaver.Close(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "failover off the leaver", func() bool { return hosted("leaver") == 0 })
			if hosted("drainer") == 0 {
				t.Fatal("nothing failed over to the draining module")
			}
			// Drain only once the moved tasks run there: Drain returns as
			// soon as the module runs no manager-assigned task, so one
			// started before the failover set arrives proves nothing.
			waitFor(t, "failed-over tasks running on the drainer", func() bool {
				return len(drainer.RunningTasks()) == hosted("drainer")
			})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := drainer.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "drain complete", func() bool { return hasEvent(mgr.Events(), "drain_complete", "drainer") })
			if err := mgr.Undeploy("gone"); err != nil {
				t.Fatal(err)
			}
			if snapshot == "after-undeploy" {
				if err := st.SaveSnapshot(mgr.captureState); err != nil {
					t.Fatal(err)
				}
			}

			live := captureView(mgr, "keep", "gone")
			if err := mgr.Close(); err != nil {
				t.Fatal(err)
			}
			replayed := captureView(tc.manager(ManagerConfig{Store: st}), "keep", "gone")

			if _, ok := live.deps["gone"]; ok {
				t.Fatal("undeployed recipe still in the live table")
			}
			if _, ok := replayed.deps["gone"]; ok {
				t.Fatal("undeployed recipe resurrected by replay")
			}
			a, b := live.deps["keep"], replayed.deps["keep"]
			if a.Recipe.Version != 2 {
				t.Fatalf("live keep version = %d, want 2", a.Recipe.Version)
			}
			var moves uint64
			for _, e := range a.Epochs {
				moves = max(moves, e)
			}
			if moves < 3 {
				t.Fatalf("live keep epochs = %v, want one subtask moved on leave and on drain", a.Epochs)
			}
			if !reflect.DeepEqual(a.Recipe, b.Recipe) {
				t.Fatalf("Recipe: live %+v, replayed %+v", a.Recipe, b.Recipe)
			}
			if !reflect.DeepEqual(a.SubTasks, b.SubTasks) {
				t.Fatalf("SubTasks: live %+v, replayed %+v", a.SubTasks, b.SubTasks)
			}
			if !reflect.DeepEqual(a.Assignment, b.Assignment) {
				t.Fatalf("Assignment: live %v, replayed %v", a.Assignment, b.Assignment)
			}
			if !reflect.DeepEqual(a.Epochs, b.Epochs) {
				t.Fatalf("Epochs: live %v, replayed %v", a.Epochs, b.Epochs)
			}
			if !reflect.DeepEqual(live.streams, replayed.streams) {
				t.Fatalf("Streams: live %+v, replayed %+v", live.streams, replayed.streams)
			}
			if want := []string{"gone", "keep"}; !reflect.DeepEqual(live.scope, want) || !reflect.DeepEqual(replayed.scope, want) {
				t.Fatalf("scope: live %v, replayed %v, want %v", live.scope, replayed.scope, want)
			}
		})
	}
}

// TestManagerRecoversPreEpochJournal: records written before assignment
// epochs existed — a deploy without an epoch table, an assign without an
// epoch — replay to epoch 1 at deploy and one bump per move.
func TestManagerRecoversPreEpochJournal(t *testing.T) {
	st := store.NewMemStore()
	for _, rec := range []string{
		`{"op":"deploy","name":"old","recipe":{"name":"old","version":0,"tasks":[` +
			`{"id":"sense","kind":"sense","output":"old/raw","params":{"sensor":"acc"}},` +
			`{"id":"detect","kind":"anomaly","inputs":["task:sense"],"output":"old/alerts"}]},` +
			`"subTasks":[` +
			`{"recipe":"old","taskId":"sense","shard":0,"shardCount":1,"task":{"id":"sense","kind":"sense","output":"old/raw","params":{"sensor":"acc"},"placement":{"capability":"sensor:acc"}},"stage":0},` +
			`{"recipe":"old","taskId":"detect","shard":0,"shardCount":1,"task":{"id":"detect","kind":"anomaly","inputs":["task:sense"],"output":"old/alerts","placement":{}},"stage":1}],` +
			`"assignment":{"old/detect":"n1","old/sense":"n1"}}`,
		`{"op":"assign","name":"old","task":"old/detect","module":"n2"}`,
	} {
		if err := st.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	mgr := NewManager(ManagerConfig{})
	if err := mgr.recoverState(st); err != nil {
		t.Fatal(err)
	}
	dep, ok := mgr.Deployment("old")
	if !ok {
		t.Fatal("pre-epoch deployment not recovered")
	}
	if e := mgr.epochOf(dep, "old/sense"); e != 1 {
		t.Fatalf("old/sense epoch = %d, want 1", e)
	}
	if e := mgr.epochOf(dep, "old/detect"); e != 2 {
		t.Fatalf("old/detect epoch = %d, want 2", e)
	}
	if got := dep.Assignment["old/detect"]; got != "n2" {
		t.Fatalf("old/detect on %q, want n2", got)
	}
}
