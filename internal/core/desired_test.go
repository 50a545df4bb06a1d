package core

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// rawClient connects a bare MQTT client to the test broker.
func (tc *testCluster) rawClient(id string) *mqttclient.Client {
	tc.t.Helper()
	conn, err := tc.listener.Dial()
	if err != nil {
		tc.t.Fatal(err)
	}
	c, err := mqttclient.Connect(conn, mqttclient.NewOptions(id))
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.t.Cleanup(func() { _ = c.Close() })
	return c
}

// epochOf reads one subtask's assignment epoch under the manager lock.
func (mgr *Manager) epochOf(dep *Deployment, task string) uint64 {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return dep.Epochs[task]
}

// detectorOn is one zscore anomaly detector reading raw samples from
// name+"/in" and deciding on name+"/out".
func detectorOn(name string) *recipe.Recipe {
	return &recipe.Recipe{Name: name, Tasks: []recipe.Task{{
		ID: "det", Kind: recipe.KindAnomaly, Inputs: []string{name + "/in"}, Output: name + "/out",
		Params: map[string]string{"detector": "zscore", "threshold": "5"},
	}}}
}

func rawSample(seq int) []byte {
	v := float32(seq%7) - 3
	return sensor.Sample{SensorIndex: 1, Kind: sensor.Sound, Seq: uint32(seq),
		Timestamp: time.Unix(int64(seq), 0), Values: [3]float32{v, v / 2, -v}}.Encode()
}

func deployAndWait(t *testing.T, mgr *Manager, rec *recipe.Recipe) *Deployment {
	t.Helper()
	dep, err := mgr.Deploy(rec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		t.Fatal(err)
	}
	return dep
}

func runs(m *Module, task string) bool {
	for _, name := range m.RunningTasks() {
		if name == task {
			return true
		}
	}
	return false
}

// TestUndeployWhileModuleDisconnected: a recipe undeployed while its host
// is between connections stops on the host once it reconnects — the
// undeploy must not be lost in the gap.
func TestUndeployWhileModuleDisconnected(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "host", CapacityOps: 100, ReconnectBackoff: 500 * time.Millisecond})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })
	deployAndWait(t, mgr, detectorOn("ud"))

	old := m.currentClient()
	old.Close()
	waitFor(t, "leave seen by the manager", func() bool { return hasEvent(mgr.Events(), "module_left", "host") })
	if m.currentClient() != old {
		t.Fatal("module reconnected before the undeploy")
	}
	if err := mgr.Undeploy("ud"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reconnect", func() bool {
		c := m.currentClient()
		return c != nil && c != old
	})
	waitFor(t, "undeployed task stopped after the reconnect", func() bool { return !runs(m, "ud/det") })
	time.Sleep(100 * time.Millisecond)
	if runs(m, "ud/det") {
		t.Fatal("undeployed task running again after the reconnect")
	}
}

// TestLeaveFailoverFencesReturningModule: a host whose connection drops
// abnormally has its task failed over on the will; when it reconnects,
// the moved task must stop there rather than be restarted beside the new
// host, and no input may produce two decisions.
func TestLeaveFailoverFencesReturningModule(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	host := tc.module(Config{ID: "host", CapacityOps: 100000, ReconnectBackoff: 300 * time.Millisecond})
	survivor := tc.module(Config{ID: "survivor", CapacityOps: 1000})
	for _, m := range []*Module{host, survivor} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 2 })
	dep := deployAndWait(t, mgr, detectorOn("lf"))
	mgr.mu.Lock()
	initial := dep.Assignment["lf/det"]
	mgr.mu.Unlock()
	if initial != "host" {
		t.Fatalf("detector initially on %q, want host", initial)
	}

	var (
		mu    sync.Mutex
		seqs  = map[uint32]int{}
		total atomic.Int64
	)
	sink := tc.rawClient("lf-sink")
	if _, err := sink.Subscribe("lf/out", wire.QoS0, func(msg mqttclient.Message) {
		var d Decision
		if json.Unmarshal(msg.Payload, &d) != nil {
			return
		}
		mu.Lock()
		seqs[d.Seq]++
		mu.Unlock()
		total.Add(1)
	}); err != nil {
		t.Fatal(err)
	}

	old := host.currentClient()
	old.Close()
	waitFor(t, "failover to the survivor", func() bool { return runs(survivor, "lf/det") })
	waitFor(t, "host reconnected", func() bool {
		c := host.currentClient()
		return c != nil && c != old
	})
	waitFor(t, "moved task stopped on the returning host", func() bool { return !runs(host, "lf/det") })

	feeder := tc.rawClient("lf-feeder")
	const n = 50
	for i := 1; i <= n; i++ {
		if err := feeder.Publish("lf/in", rawSample(i), wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "decisions at the sink", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs) == n
	})
	time.Sleep(100 * time.Millisecond) // room for a duplicate to land
	mu.Lock()
	defer mu.Unlock()
	for seq, c := range seqs {
		if c > 1 {
			t.Fatalf("seq %d decided %d times (%d decisions for %d inputs)", seq, c, total.Load(), n)
		}
	}
	if runs(host, "lf/det") {
		t.Fatal("moved task restarted on the returning host")
	}
}

// TestUndeployClearsHandoffWithHostDown: undeploying a checkpoint-handoff
// learner whose host is down still clears the retained handoff blob, so a
// later deployment of the same name cannot restore stale state.
func TestUndeployClearsHandoffWithHostDown(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	host := tc.module(Config{ID: "host", CapacityOps: 100, CheckpointHandoff: true,
		CheckpointInterval: 20 * time.Millisecond, DisableReconnect: true})
	if err := host.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })
	deployAndWait(t, mgr, detectorOn("uc"))

	topic := CheckpointTopic("uc/det")
	var blob atomic.Bool
	watch := tc.rawClient("uc-watch")
	if _, err := watch.Subscribe(topic, wire.QoS1, func(msg mqttclient.Message) {
		if len(msg.Payload) > 0 {
			blob.Store(true)
		}
	}); err != nil {
		t.Fatal(err)
	}
	feeder := tc.rawClient("uc-feeder")
	for i := 1; i <= 20; i++ {
		if err := feeder.Publish("uc/in", rawSample(i), wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "handoff blob retained", blob.Load)

	host.currentClient().Close()
	waitFor(t, "leave seen by the manager", func() bool { return hasEvent(mgr.Events(), "module_left", "host") })
	if err := mgr.Undeploy("uc"); err != nil {
		t.Fatal(err)
	}

	// The broker replays a retained message right behind the SUBACK.
	replayed := make(chan []byte, 1)
	probe := tc.rawClient("uc-probe")
	if _, err := probe.Subscribe(topic, wire.QoS1, func(msg mqttclient.Message) {
		select {
		case replayed <- msg.Payload:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-replayed:
		if len(p) > 0 {
			t.Fatalf("handoff blob still retained after undeploy (%d bytes)", len(p))
		}
	case <-time.After(200 * time.Millisecond):
	}
}

// TestSuccessiveInMemoryManagersKeepEarlierDeployments: a manager without
// a journal knows only what it deployed itself. One deploys A and exits;
// the next lists the modules (the host's beacons claim A's task) and then
// deploys B. A must keep running, also after the host reconnects and
// replays the retained set — the second manager cannot undeploy what it
// never deployed.
func TestSuccessiveInMemoryManagersKeepEarlierDeployments(t *testing.T) {
	tc := newTestCluster(t)
	host := tc.module(Config{ID: "host", CapacityOps: 100, HeartbeatInterval: 50 * time.Millisecond,
		ReconnectBackoff: 100 * time.Millisecond})
	if err := host.Start(); err != nil {
		t.Fatal(err)
	}
	first := tc.manager(ManagerConfig{})
	waitFor(t, "module seen by the first manager", func() bool { return len(first.Modules()) == 1 })
	deployAndWait(t, first, detectorOn("a"))
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second := tc.manager(ManagerConfig{})
	waitFor(t, "module seen by the second manager", func() bool { return len(second.Modules()) == 1 })
	time.Sleep(200 * time.Millisecond) // a few beacons claiming a/det
	if !runs(host, "a/det") {
		t.Fatal("listing the modules stopped the earlier deployment")
	}
	// What a fenced or rejoining beacon would get from the second manager
	// now: a set with an empty scope, which may undeploy nothing.
	second.mu.Lock()
	d := second.desiredLocked("host")
	second.mu.Unlock()
	host.applyDesired(mqttclient.Message{Topic: TopicDesiredPrefix + "host", Payload: EncodeJSON(d)})
	if !runs(host, "a/det") {
		t.Fatal("an empty-scope set stopped the earlier deployment")
	}
	deployAndWait(t, second, detectorOn("b"))
	if !runs(host, "a/det") {
		t.Fatal("deploying b stopped the earlier deployment")
	}

	old := host.currentClient()
	old.Close()
	waitFor(t, "host reconnected", func() bool {
		c := host.currentClient()
		return c != nil && c != old
	})
	time.Sleep(200 * time.Millisecond) // the retained set replays; restartTasks runs
	for _, task := range []string{"a/det", "b/det"} {
		if !runs(host, task) {
			t.Fatalf("%s not running after the host reconnected (running %v)", task, host.RunningTasks())
		}
	}
}

// TestUndeployClearsHandoffAfterCheckpointTick: a periodic checkpoint that
// lands after the manager cleared an undeployed learner's handoff blob but
// before its host applied the undeploy set republishes the blob. The
// host's undeploy stop clears it again once the learner has stopped, and
// is reported as an undeploy, not a fence.
func TestUndeployClearsHandoffAfterCheckpointTick(t *testing.T) {
	tc := newTestCluster(t)
	host := tc.module(Config{ID: "host", CheckpointHandoff: true, CheckpointInterval: time.Hour})
	if err := host.Start(); err != nil {
		t.Fatal(err)
	}
	rec := detectorOn("ut")
	subs, err := recipe.Split(rec)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(d Desired) {
		d.ModuleID = "host"
		host.applyDesired(mqttclient.Message{Topic: TopicDesiredPrefix + "host", Payload: EncodeJSON(d)})
	}
	apply(Desired{Recipes: map[string]recipe.Recipe{"ut": *rec},
		Tasks: []DesiredTask{{SubTask: subs[0], Epoch: 1}}, Deployed: map[string]int{"ut": 0}, Scope: []string{"ut"}})
	waitFor(t, "learner running", func() bool { return runs(host, "ut/det") })

	topic := CheckpointTopic("ut/det")
	var blobs atomic.Int64
	watch := tc.rawClient("ut-watch")
	if _, err := watch.Subscribe(topic, wire.QoS1, func(msg mqttclient.Message) {
		if len(msg.Payload) > 0 {
			blobs.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	feeder := tc.rawClient("ut-feeder")
	seq := 0
	tick := func(what string) {
		t.Helper()
		want := blobs.Load() + 1
		waitFor(t, what, func() bool {
			seq++
			if err := feeder.Publish("ut/in", rawSample(seq), wire.QoS1, false); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
			host.checkpointAll()
			return blobs.Load() >= want
		})
	}
	tick("handoff blob retained")

	// The manager's undeploy: it clears the blob, then the set is on its
	// way — and a periodic checkpoint gets in first.
	if err := tc.rawClient("ut-mgr").Publish(topic, nil, wire.QoS1, true); err != nil {
		t.Fatal(err)
	}
	tick("blob republished between the clear and the apply")
	apply(Desired{Scope: []string{"ut"}})
	if runs(host, "ut/det") {
		t.Fatal("undeployed learner still running")
	}

	replayed := make(chan []byte, 1)
	probe := tc.rawClient("ut-probe")
	if _, err := probe.Subscribe(topic, wire.QoS1, func(msg mqttclient.Message) {
		select {
		case replayed <- msg.Payload:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-replayed:
		if len(p) > 0 {
			t.Fatalf("handoff blob still retained after the undeploy stop (%d bytes)", len(p))
		}
	case <-time.After(200 * time.Millisecond):
	}
	if hasEvent(host.Events(), "task_fenced", "") {
		t.Fatal("an undeploy stop emitted task_fenced")
	}
	var detail string
	for _, ev := range host.Events().Events(0, time.Time{}) {
		if ev.Kind == "task_"+string(StatusStopped) {
			detail = ev.Fields["detail"]
		}
	}
	if detail != string(stopUndeploy) {
		t.Fatalf("stop reported detail %q, want %q", detail, stopUndeploy)
	}
}
