package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// hasEvent reports whether the log retains an event of the given kind
// for the given module ("" = any module).
func hasEvent(log *telemetry.EventLog, kind, module string) bool {
	for _, ev := range log.Events(0, time.Time{}) {
		if ev.Kind == kind && (module == "" || ev.Module == module) {
			return true
		}
	}
	return false
}

// fanoutRecipe is one sense task feeding n independent anomaly detectors —
// the orphan batch for the spread tests.
func fanoutRecipe(name string, n int) *recipe.Recipe {
	rec := &recipe.Recipe{
		Name: name,
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: name + "/raw",
				Params: map[string]string{"sensor": "acc"}},
		},
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%d", i)
		rec.Tasks = append(rec.Tasks, recipe.Task{
			ID: id, Kind: recipe.KindAnomaly, Inputs: []string{"task:sense"},
			Output: name + "/" + id, Params: map[string]string{"threshold": "100"},
		})
	}
	return rec
}

// TestReassignConcurrentWithDeploy is the data-race regression test for
// reassignFrom reading dep.SubTasks/dep.Assignment without the manager
// lock while Deploy mutates the deployment table. Run under -race.
func TestReassignConcurrentWithDeploy(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	sensorHost := tc.module(Config{ID: "s-host", CapacityOps: 1000})
	sensorHost.RegisterSensor(accelSensor("acc", 1, 50))
	worker1 := tc.module(Config{ID: "worker1", CapacityOps: 100000})
	worker2 := tc.module(Config{ID: "worker2", CapacityOps: 1000})
	for _, m := range []*Module{sensorHost, worker1, worker2} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 3 })

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			rec := fanoutRecipe(fmt.Sprintf("cw%d", i), 2)
			if _, err := mgr.Deploy(rec); err != nil {
				t.Errorf("deploy %s: %v", rec.Name, err)
				return
			}
		}
	}()
	// Concurrent failovers off the preferred worker while deployments
	// land on it: before the locked-snapshot fix this raced on
	// dep.SubTasks / dep.Assignment.
	for i := 0; i < 16; i++ {
		mgr.reassignFrom("worker1", failoverLeave)
	}
	wg.Wait()
}

// TestFailoverSpreadsOrphans is the herding regression test: when a
// module hosting many subtasks dies, the orphan batch must spread across
// the survivors instead of all landing on the one that was least loaded
// when the batch started.
func TestFailoverSpreadsOrphans(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	sensorHost := tc.module(Config{ID: "s-host", CapacityOps: 1000})
	sensorHost.RegisterSensor(accelSensor("acc", 1, 50))
	// All six detectors land on big (its relative load stays lowest);
	// equal survivors a and b split them after big leaves.
	big := tc.module(Config{ID: "big", CapacityOps: 1000000})
	workerA := tc.module(Config{ID: "worker-a", CapacityOps: 1000})
	workerB := tc.module(Config{ID: "worker-b", CapacityOps: 1000})
	for _, m := range []*Module{sensorHost, big, workerA, workerB} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 4 })

	rec := fanoutRecipe("spread", 6)
	dep, err := mgr.Deploy(rec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		t.Fatal(err)
	}
	mgr.mu.Lock()
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("spread/d%d", i)
		if got := dep.Assignment[name]; got != "big" {
			mgr.mu.Unlock()
			t.Fatalf("%s initially on %q, want big", name, got)
		}
	}
	mgr.mu.Unlock()

	if err := big.Close(); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	waitFor(t, "all detectors reassigned", func() bool {
		mgr.mu.Lock()
		defer mgr.mu.Unlock()
		for id := range counts {
			delete(counts, id)
		}
		for i := 0; i < 6; i++ {
			host := dep.Assignment[fmt.Sprintf("spread/d%d", i)]
			if host == "" || host == "big" {
				return false
			}
			counts[host]++
		}
		return true
	})
	// Fold-back balance: no single survivor may absorb the whole batch.
	// With loads folded in per placement the expected split is 2/2/2.
	for id, n := range counts {
		if n > 3 {
			t.Fatalf("survivor %s absorbed %d of 6 orphans (herding): %v", id, n, counts)
		}
	}
	if len(counts) < 2 {
		t.Fatalf("orphans herded onto a single survivor: %v", counts)
	}
}

// TestZombieReconcileFences: a module declared dead keeps running its
// task (a partition, not a crash). After failover, its next announce must
// be treated as a rejoin and reconciled — the stale instance stops on the
// zombie while the new host keeps the (higher-epoch) assignment.
func TestZombieReconcileFences(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	sensorHost := tc.module(Config{ID: "s-host", CapacityOps: 1000,
		HeartbeatInterval: 50 * time.Millisecond})
	sensorHost.RegisterSensor(accelSensor("acc", 1, 50))
	zombie := tc.module(Config{ID: "zombie", CapacityOps: 100000,
		HeartbeatInterval: 50 * time.Millisecond})
	survivor := tc.module(Config{ID: "survivor", CapacityOps: 1000,
		HeartbeatInterval: 50 * time.Millisecond})
	for _, m := range []*Module{sensorHost, zombie, survivor} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 3 })

	dep := deploySenseAnomaly(t, mgr, "zb", 1)
	mgr.mu.Lock()
	onZombie := dep.Assignment["zb/detect"] == "zombie"
	mgr.mu.Unlock()
	if !onZombie {
		t.Fatal("detect not initially on zombie")
	}

	// Declare the zombie dead by hand (the partition case, where no leave
	// fires and beacons stop reaching the manager) and run the dead
	// transition. The zombie stays connected and keeps running zb/detect.
	mgr.health.mu.Lock()
	mgr.health.modules["zombie"].state = HealthDead
	mgr.health.mu.Unlock()
	mgr.onHealthTransition("zombie", HealthDead)

	waitFor(t, "failover off the zombie", func() bool {
		mgr.mu.Lock()
		defer mgr.mu.Unlock()
		host := dep.Assignment["zb/detect"]
		return host != "" && host != "zombie"
	})
	if e := mgr.epochOf(dep, "zb/detect"); e != 2 {
		t.Fatalf("failover epoch = %d, want 2", e)
	}

	// Unlike a real partition, the fake-dead zombie's beacons kept
	// flowing during the failover and may have flipped it back to healthy
	// already; re-mark it dead now that the move is done, so the next
	// beacon deterministically reads as the rejoin.
	mgr.health.mu.Lock()
	mgr.health.modules["zombie"].state = HealthDead
	mgr.health.mu.Unlock()

	// The failover's desired set stops the stale instance (fenced), and
	// the first beacon after the dead classification reads as a rejoin.
	waitFor(t, "stale task fenced on the zombie", func() bool {
		for _, name := range zombie.RunningTasks() {
			if name == "zb/detect" {
				return false
			}
		}
		return true
	})
	waitFor(t, "rejoin and fence events", func() bool {
		return hasEvent(mgr.Events(), "module_rejoined", "zombie") &&
			hasEvent(zombie.Events(), "task_fenced", "")
	})

	// The survivor's instance is untouched by the reconciliation.
	mgr.mu.Lock()
	host := dep.Assignment["zb/detect"]
	mgr.mu.Unlock()
	hosts := map[string]*Module{"s-host": sensorHost, "survivor": survivor}
	waitFor(t, "new host still runs detect", func() bool {
		m, ok := hosts[host]
		if !ok {
			return false
		}
		for _, name := range m.RunningTasks() {
			if name == "zb/detect" {
				return true
			}
		}
		return false
	})
}

// TestDrainMovesTasks: a module requests a graceful drain; the manager
// moves its subtasks to survivors and the module's Drain call returns
// once nothing manager-assigned is left running.
func TestDrainMovesTasks(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	sensorHost := tc.module(Config{ID: "s-host", CapacityOps: 1000})
	sensorHost.RegisterSensor(accelSensor("acc", 1, 50))
	draining := tc.module(Config{ID: "draining", CapacityOps: 100000})
	survivor := tc.module(Config{ID: "survivor", CapacityOps: 1000})
	for _, m := range []*Module{sensorHost, draining, survivor} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 3 })

	dep := deploySenseAnomaly(t, mgr, "dr", 1)
	mgr.mu.Lock()
	initial := dep.Assignment["dr/detect"]
	mgr.mu.Unlock()
	if initial != "draining" {
		t.Fatalf("detect initially on %q, want draining", initial)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := draining.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	mgr.mu.Lock()
	host := dep.Assignment["dr/detect"]
	mgr.mu.Unlock()
	if host == "" || host == "draining" {
		t.Fatalf("detect still assigned to %q after drain", host)
	}
	for _, name := range draining.RunningTasks() {
		if strings.HasPrefix(name, "dr/") {
			t.Fatalf("drained module still runs %s", name)
		}
	}
	waitFor(t, "drain events", func() bool {
		return hasEvent(mgr.Events(), "drain_started", "draining") &&
			hasEvent(mgr.Events(), "drain_complete", "draining")
	})
	// A draining module is out of the placement pool until it leaves.
	for _, info := range mgr.moduleInfos() {
		if info.ID == "draining" {
			t.Fatal("draining module still in the placement pool")
		}
	}
}

// TestManagerRecoversEpochs: assignment epochs survive a manager restart
// via the journal, so fencing stays monotonic across manager crashes.
func TestManagerRecoversEpochs(t *testing.T) {
	tc := newTestCluster(t)
	st := store.NewMemStore()

	// node1's capacity pins both subtasks onto it initially.
	node1 := tc.module(Config{ID: "node1", CapacityOps: 100000,
		HeartbeatInterval: 100 * time.Millisecond})
	node1.RegisterSensor(accelSensor("acc", 1, 50))
	node2 := tc.module(Config{ID: "node2", CapacityOps: 100,
		HeartbeatInterval: 100 * time.Millisecond})
	for _, m := range []*Module{node1, node2} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}

	mgr1 := tc.manager(ManagerConfig{Store: st})
	waitFor(t, "modules", func() bool { return len(mgr1.Modules()) == 2 })
	dep := deploySenseAnomaly(t, mgr1, "ep", 1)
	if e := mgr1.epochOf(dep, "ep/detect"); e != 1 {
		t.Fatalf("deploy epoch = %d, want 1", e)
	}
	// One real failover move (node1 leaves) bumps detect's epoch and
	// journals it; sense is unplaceable without its sensor and keeps
	// epoch 1.
	if err := node1.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "failover of ep/detect", func() bool {
		mgr1.mu.Lock()
		defer mgr1.mu.Unlock()
		return dep.Assignment["ep/detect"] == "node2"
	})
	if e := mgr1.epochOf(dep, "ep/detect"); e != 2 {
		t.Fatalf("post-failover epoch = %d, want 2", e)
	}
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2 := tc.manager(ManagerConfig{Store: st})
	recovered, ok := mgr2.Deployment("ep")
	if !ok {
		t.Fatal("restarted manager forgot deployment ep")
	}
	if e := mgr2.epochOf(recovered, "ep/detect"); e != 2 {
		t.Fatalf("recovered epoch = %d, want 2", e)
	}
	if e := mgr2.epochOf(recovered, "ep/sense"); e != 1 {
		t.Fatalf("recovered sense epoch = %d, want 1", e)
	}
}
