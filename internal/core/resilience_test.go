package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
)

// deploySenseAnomaly deploys a two-stage recipe whose analysis stage may
// run anywhere.
func deploySenseAnomaly(t *testing.T, mgr *Manager, name string, version int) *Deployment {
	t.Helper()
	rec := &recipe.Recipe{
		Name:    name,
		Version: version,
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: name + "/raw",
				Params: map[string]string{"sensor": "acc"}},
			{ID: "detect", Kind: recipe.KindAnomaly, Inputs: []string{"task:sense"},
				Output: name + "/alerts", Params: map[string]string{"threshold": "100"}},
		},
	}
	dep, err := mgr.Deploy(rec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		t.Fatalf("WaitRunning: %v", err)
	}
	return dep
}

// TestFailoverReassignsTasksFromDeadModule kills a module hosting an
// analysis task and verifies the manager moves it to a survivor.
func TestFailoverReassignsTasksFromDeadModule(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	sensorHost := tc.module(Config{ID: "sensor-host", CapacityOps: 1000})
	sensorHost.RegisterSensor(accelSensor("acc", 1, 50))
	// Two candidate analysis modules; pin detect to "worker1" initially
	// by making it hugely preferable (higher capacity).
	worker1 := tc.module(Config{ID: "worker1", CapacityOps: 100000})
	worker2 := tc.module(Config{ID: "worker2", CapacityOps: 1000})
	for _, m := range []*Module{sensorHost, worker1, worker2} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 3 })

	dep := deploySenseAnomaly(t, mgr, "failover", 1)
	if got := dep.Assignment["failover/detect"]; got != "worker1" {
		t.Fatalf("detect initially on %q, want worker1", got)
	}

	// Kill worker1 gracefully: its leave notice triggers failover.
	if err := worker1.Close(); err != nil {
		t.Fatal(err)
	}
	var newHost string
	waitFor(t, "failover to a survivor", func() bool {
		mgr.mu.Lock()
		defer mgr.mu.Unlock()
		newHost = dep.Assignment["failover/detect"]
		return newHost != "" && newHost != "worker1"
	})
	survivors := map[string]*Module{"sensor-host": sensorHost, "worker2": worker2}
	host, ok := survivors[newHost]
	if !ok {
		t.Fatalf("detect reassigned to unknown module %q", newHost)
	}
	// The surviving module actually runs the task.
	waitFor(t, "task running on "+newHost, func() bool {
		for _, name := range host.RunningTasks() {
			if name == "failover/detect" {
				return true
			}
		}
		return false
	})
	// And the stream registry points at the new host.
	for _, s := range mgr.Streams() {
		if s.Topic == "failover/alerts" && s.ModuleID != newHost {
			t.Fatalf("stream registry points at %s, want %s", s.ModuleID, newHost)
		}
	}
}

// TestFailoverAbnormalDeath uses a hard connection drop (the broker fires
// the module's will) instead of a graceful leave.
func TestFailoverAbnormalDeath(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	sensorHost := tc.module(Config{ID: "s-host", CapacityOps: 1000})
	sensorHost.RegisterSensor(accelSensor("acc", 1, 50))
	// The dying worker must not reconnect, or it would race failover.
	dying := tc.module(Config{ID: "dying", CapacityOps: 100000, disableReconnect: true})
	survivor := tc.module(Config{ID: "survivor", CapacityOps: 1000})
	for _, m := range []*Module{sensorHost, dying, survivor} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 3 })

	dep := deploySenseAnomaly(t, mgr, "crash", 1)
	if got := dep.Assignment["crash/detect"]; got != "dying" {
		t.Fatalf("detect initially on %q, want dying", got)
	}

	// Hard-kill the transport: no DISCONNECT, so the will fires.
	dying.currentClient().Close()

	waitFor(t, "failover to a survivor", func() bool {
		mgr.mu.Lock()
		defer mgr.mu.Unlock()
		target := dep.Assignment["crash/detect"]
		return target != "" && target != "dying"
	})
}

// TestFailoverUnplaceableTaskStaysOrphaned kills the only module hosting a
// sensor; its sense task cannot move and the rest must be unaffected.
func TestFailoverUnplaceableTaskStaysOrphaned(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	sensorHost := tc.module(Config{ID: "only-sensor", CapacityOps: 100000})
	sensorHost.RegisterSensor(accelSensor("acc", 1, 50))
	other := tc.module(Config{ID: "other", CapacityOps: 1000})
	for _, m := range []*Module{sensorHost, other} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 2 })

	dep := deploySenseAnomaly(t, mgr, "orphan", 1)
	if err := sensorHost.Close(); err != nil {
		t.Fatal(err)
	}
	// detect may move to other; sense must keep its dead assignment (no
	// survivor has the sensor capability).
	waitFor(t, "detect reassigned", func() bool {
		mgr.mu.Lock()
		defer mgr.mu.Unlock()
		return dep.Assignment["orphan/detect"] == "other"
	})
	mgr.mu.Lock()
	senseOn := dep.Assignment["orphan/sense"]
	mgr.mu.Unlock()
	if senseOn != "only-sensor" {
		t.Fatalf("sense moved to %q despite no survivor hosting the sensor", senseOn)
	}
}

// TestModuleReconnectRestartsTasks drops a module's broker connection and
// verifies it reconnects and resumes its tasks.
func TestModuleReconnectRestartsTasks(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	decided := make(chan Decision, 256)
	m := tc.module(Config{
		ID: "resilient", CapacityOps: 1000,
		reconnectBackoff: 20 * time.Millisecond,
		Observer:         Observer{OnDecision: func(d Decision) { decided <- d }},
	})
	m.RegisterSensor(accelSensor("acc", 1, 50))
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })
	deploySenseAnomaly(t, mgr, "reconnect", 1)

	// Flow works before the cut.
	select {
	case <-decided:
	case <-time.After(10 * time.Second):
		t.Fatal("no decisions before connection cut")
	}

	// Cut the connection out from under the module.
	old := m.currentClient()
	old.Close()

	// The module must reconnect (new client object) and resume decisions.
	waitFor(t, "reconnect", func() bool {
		c := m.currentClient()
		return c != nil && c != old
	})
	drain(decided)
	select {
	case <-decided:
	case <-time.After(10 * time.Second):
		t.Fatal("no decisions after reconnect")
	}
	// Tasks restarted under their original names.
	waitFor(t, "tasks restored", func() bool { return len(m.RunningTasks()) == 2 })
}

func drain(ch chan Decision) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// TestRedeployHigherVersionReplaces verifies rolling upgrade semantics.
func TestRedeployHigherVersionReplaces(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "node", CapacityOps: 1000})
	m.RegisterSensor(accelSensor("acc", 1, 50))
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	deploySenseAnomaly(t, mgr, "upgr", 1)

	// Same version: rejected.
	rec := &recipe.Recipe{
		Name: "upgr", Version: 1,
		Tasks: []recipe.Task{{ID: "sense", Kind: recipe.KindSense, Output: "upgr/raw2",
			Params: map[string]string{"sensor": "acc"}}},
	}
	if _, err := mgr.Deploy(rec); !errors.Is(err, ErrDeployExists) {
		t.Fatalf("same-version deploy = %v, want ErrDeployExists", err)
	}

	// Higher version: replaces.
	rec.Version = 2
	dep2, err := mgr.Deploy(rec)
	if err != nil {
		t.Fatalf("upgrade deploy: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep2.WaitRunning(ctx); err != nil {
		t.Fatal(err)
	}
	// v1 tasks stopped, only the v2 task runs.
	waitFor(t, "old tasks revoked", func() bool {
		tasks := m.RunningTasks()
		return len(tasks) == 1 && tasks[0] == "upgr/sense"
	})
	if got, _ := mgr.Deployment("upgr"); got.Recipe.Version != 2 {
		t.Fatalf("tracked version = %d, want 2", got.Recipe.Version)
	}
}

// TestHeartbeatRefreshesStaleness verifies a silent module ages out of the
// manager's view while a heartbeating one stays.
func TestHeartbeatRefreshesStaleness(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{Health: HealthConfig{SuspectAfter: 300 * time.Millisecond}})
	m := tc.module(Config{ID: "beater", CapacityOps: 100, HeartbeatInterval: 50 * time.Millisecond})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module visible", func() bool { return len(mgr.Modules()) == 1 })
	// Stays visible across several staleness windows thanks to heartbeats.
	time.Sleep(time.Second)
	if len(mgr.Modules()) != 1 {
		t.Fatal("heartbeating module aged out")
	}
}

// TestTrainShardingAcrossModules runs a sharded trainer on two modules and
// verifies both shards train disjoint batches and MIX converges them.
func TestTrainShardingAcrossModules(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	type trainCount struct {
		module string
		ev     TrainEvent
	}
	events := make(chan trainCount, 1024)
	mkWorker := func(id string) *Module {
		return tc.module(Config{
			ID: id, CapacityOps: 1000, mixInterval: 50 * time.Millisecond,
			Observer: Observer{OnTrain: func(ev TrainEvent) {
				select {
				case events <- trainCount{module: id, ev: ev}:
				default:
				}
			}},
		})
	}
	src := mkWorker("src")
	src.RegisterSensor(&sensor.Sensor{
		ID: "sig", Index: 1, Kind: sensor.Temperature, RateHz: 100,
		Gen: sensor.Sine(0.5, 5),
	})
	w1, w2 := mkWorker("w1"), mkWorker("w2")
	for _, m := range []*Module{src, w1, w2} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 3 })

	rec := &recipe.Recipe{
		Name: "sharded",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "sh/raw",
				Params: map[string]string{"sensor": "sig"}},
			{ID: "train", Kind: recipe.KindTrain, Inputs: []string{"task:sense"},
				Output: "sh/events", Parallelism: 2},
		},
	}
	dep, err := mgr.Deploy(rec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		t.Fatal(err)
	}

	// Both workers should report training progress (disjoint sequence
	// shards), assuming the assigner spread the two shards.
	shard0 := dep.Assignment["sharded/train#0"]
	shard1 := dep.Assignment["sharded/train#1"]
	if shard0 == shard1 {
		t.Skipf("both shards landed on %s; sharding spread not exercised", shard0)
	}
	seen := map[string]map[uint32]bool{}
	deadline := time.After(10 * time.Second)
	for len(seen) < 2 || len(seen[shard0]) < 5 || len(seen[shard1]) < 5 {
		select {
		case e := <-events:
			if seen[e.module] == nil {
				seen[e.module] = map[uint32]bool{}
			}
			seen[e.module][e.ev.Seq] = true
		case <-deadline:
			t.Fatalf("insufficient sharded training: %v", counts(seen))
		}
	}
	// Shard ownership is disjoint by sequence parity.
	for seq := range seen[shard0] {
		if seen[shard1][seq] {
			t.Fatalf("sequence %d trained by both shards", seq)
		}
	}
}

func counts(seen map[string]map[uint32]bool) map[string]int {
	out := make(map[string]int, len(seen))
	for k, v := range seen {
		out[k] = len(v)
	}
	return out
}

// TestCloseDuringStartTask races task starts against Close: a start in
// progress must be waited for (its goroutines' wg.Add never overlaps
// Close's Wait — a panic or a -race report otherwise) and must not leave
// a task registered once Close has returned.
func TestCloseDuringStartTask(t *testing.T) {
	tc := newTestCluster(t)
	rec := recipe.Recipe{Name: "r", Tasks: []recipe.Task{
		{ID: "train", Kind: recipe.KindTrain, Inputs: []string{"r/in"}},
	}}
	const starters = 4
	for i := 0; i < 200; i++ {
		m := tc.module(Config{ID: fmt.Sprintf("closing-%d", i), disableReconnect: true})
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		entered := make(chan struct{}, starters)
		for shard := 0; shard < starters; shard++ {
			sub := recipe.SubTask{Recipe: "r", TaskID: "train", Shard: shard, ShardCount: starters, Task: rec.Tasks[0]}
			wg.Add(1)
			go func() {
				defer wg.Done()
				entered <- struct{}{}
				_ = m.StartTask(rec, sub) // ErrNotStarted once Close won
			}()
		}
		// Close once a start is under way, so it lands inside the start's
		// subscribe round trip rather than before or after it.
		<-entered
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if left := m.RunningTasks(); len(left) != 0 {
			t.Fatalf("iteration %d: tasks %v still registered after Close", i, left)
		}
		wg.Wait()
	}
}
