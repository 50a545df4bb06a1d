package core

import (
	"context"
	"errors"
	"log"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// TestCustomTaskEndToEnd deploys a custom stage that transforms samples.
func TestCustomTaskEndToEnd(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "node", CapacityOps: 1000,
		Logger: log.New(os.Stderr, "", 0)})
	m.RegisterSensor(accelSensor("acc", 1, 50))
	m.RegisterCustom("doubler", func(msg mqttclient.Message, publish func(string, []byte) error) {
		_ = publish("cu/out", append([]byte("2x:"), msg.Payload...))
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	rec := &recipe.Recipe{
		Name: "cu",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "cu/raw",
				Params: map[string]string{"sensor": "acc"}},
			{ID: "double", Kind: recipe.KindCustom, Inputs: []string{"task:sense"},
				Output: "cu/out", Params: map[string]string{"handler": "doubler"}},
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

	got := make(chan []byte, 4)
	watcher := tc.module(Config{ID: "watcher"})
	if err := watcher.Start(); err != nil {
		t.Fatal(err)
	}
	if err := watcher.Subscribe("cu/out", func(msg mqttclient.Message) {
		select {
		case got <- msg.Payload:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case payload := <-got:
		if string(payload[:3]) != "2x:" {
			t.Fatalf("payload prefix = %q", payload[:3])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("custom stage output never arrived")
	}
}

// TestHandlerPanicContained: a custom handler that panics on every odd
// message loses only those messages. Its even messages are still handled,
// a second task on the module keeps producing, and the panics surface as
// exactly one rate-limited handler_panic event.
func TestHandlerPanicContained(t *testing.T) {
	tc := newTestCluster(t)
	m := tc.module(Config{ID: "node"})
	var handled, relayed atomic.Int64
	m.RegisterCustom("flaky", func(msg mqttclient.Message, _ func(string, []byte) error) {
		if n, _ := strconv.Atoi(string(msg.Payload)); n%2 == 1 {
			panic("odd message " + string(msg.Payload))
		}
		handled.Add(1)
	})
	m.RegisterCustom("relay", func(msg mqttclient.Message, publish func(string, []byte) error) {
		_ = publish("hp/out", msg.Payload)
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe("hp/out", func(mqttclient.Message) { relayed.Add(1) }); err != nil {
		t.Fatal(err)
	}
	rec := recipe.Recipe{Name: "hp", Tasks: []recipe.Task{
		{ID: "flaky", Kind: recipe.KindCustom, Inputs: []string{"hp/in"}},
		{ID: "relay", Kind: recipe.KindCustom, Inputs: []string{"hp/in"}, Output: "hp/out"},
	}}
	for _, task := range rec.Tasks {
		if err := m.StartTask(rec, recipe.SubTask{Recipe: rec.Name, TaskID: task.ID, ShardCount: 1, Task: task}); err != nil {
			t.Fatal(err)
		}
	}

	const msgs = 20
	for i := 1; i <= msgs; i++ {
		if err := m.Publish("hp/in", []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "even messages handled and every message relayed", func() bool {
		return handled.Load() == msgs/2 && relayed.Load() == msgs
	})
	var panics []telemetry.Event
	for _, ev := range m.Events().Events(0, time.Time{}) {
		if ev.Kind == "handler_panic" {
			panics = append(panics, ev)
		}
	}
	if len(panics) != 1 {
		t.Fatalf("handler_panic events = %d, want 1 (rate-limited)", len(panics))
	}
	if f := panics[0].Fields; f["task"] != "hp/flaky" || f["topic"] != "hp/in" || f["panic"] != "odd message 1" {
		t.Fatalf("handler_panic fields = %v", f)
	}
	if running := m.RunningTasks(); len(running) != 2 {
		t.Fatalf("running tasks = %v, want both", running)
	}
}

func TestStartTaskUnknownHandlerAndActuator(t *testing.T) {
	tc := newTestCluster(t)
	m := tc.module(Config{ID: "node"})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	rec := recipe.Recipe{Name: "r", Tasks: []recipe.Task{
		{ID: "c", Kind: recipe.KindCustom, Inputs: []string{"in"}},
		{ID: "a", Kind: recipe.KindActuate, Inputs: []string{"in"}},
	}}
	subC := recipe.SubTask{Recipe: "r", TaskID: "c", ShardCount: 1, Task: rec.Tasks[0]}
	if err := m.StartTask(rec, subC); !errors.Is(err, ErrUnknownHandler) {
		t.Fatalf("custom err = %v, want ErrUnknownHandler", err)
	}
	subA := recipe.SubTask{Recipe: "r", TaskID: "a", ShardCount: 1, Task: rec.Tasks[1]}
	if err := m.StartTask(rec, subA); !errors.Is(err, ErrUnknownActuator) {
		t.Fatalf("actuate err = %v, want ErrUnknownActuator", err)
	}
}

func TestModuleID(t *testing.T) {
	m := NewModule(Config{ID: "me"})
	if m.ID() != "me" {
		t.Fatalf("ID() = %q", m.ID())
	}
}

func TestModuleUnstartedHelpers(t *testing.T) {
	m := NewModule(Config{ID: "m"})
	if err := m.Publish("t", nil); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Publish = %v", err)
	}
	if err := m.Subscribe("t", func(mqttclient.Message) {}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Subscribe = %v", err)
	}
	if _, err := m.DiscoverStreams("t", time.Second); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("DiscoverStreams = %v", err)
	}
	rec := recipe.Recipe{Name: "r", Tasks: []recipe.Task{{ID: "x", Kind: recipe.KindCustom, Inputs: []string{"i"}}}}
	sub := recipe.SubTask{Recipe: "r", TaskID: "x", ShardCount: 1, Task: rec.Tasks[0]}
	if err := m.StartTask(rec, sub); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("StartTask = %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close unstarted = %v", err)
	}
}

// TestBadControlPayloadsIgnored sends malformed JSON on control topics and
// verifies nothing crashes and the module keeps working. Junk on the
// module's desired-set topic — plain, retained, and a well-formed set for
// another module — leaves its running task alone, also when a reconnect
// replays the retained junk.
func TestBadControlPayloadsIgnored(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "victim", CapacityOps: 100, reconnectBackoff: 20 * time.Millisecond})
	m.RegisterCustom("relay", func(mqttclient.Message, func(string, []byte) error) {})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })
	dep, err := mgr.Deploy(&recipe.Recipe{Name: "bad", Tasks: []recipe.Task{{
		ID: "relay", Kind: recipe.KindCustom, Inputs: []string{"bad/in"},
		Params: map[string]string{"handler": "relay"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		t.Fatal(err)
	}
	onlyRelay := func() bool {
		running := m.RunningTasks()
		return len(running) == 1 && running[0] == "bad/relay"
	}

	// Raw client floods control topics with junk.
	conn, err := tc.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := mqttclient.Connect(conn, mqttclient.NewOptions("attacker"))
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	desired := TopicDesiredPrefix + "victim"
	for _, topic := range []string{
		desired,
		TopicAnnounce,
		TopicLeavePrefix + "victim",
		TopicStatusPrefix + "victim",
		TopicDiscoverQuery,
	} {
		if err := attacker.Publish(topic, []byte("{not-json"), wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	// Valid-JSON-but-empty payloads too.
	_ = attacker.Publish(TopicAnnounce, []byte("{}"), wire.QoS1, false)
	_ = attacker.Publish(TopicDiscoverQuery, []byte(`{"requestId":"x","filter":"bad/#/f"}`), wire.QoS1, false)
	// Another module's (empty) set, then junk that stays retained.
	if err := attacker.Publish(desired, EncodeJSON(Desired{ModuleID: "other"}), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	if err := attacker.Publish(desired, []byte("{not-json"), wire.QoS1, true); err != nil {
		t.Fatal(err)
	}

	time.Sleep(100 * time.Millisecond)
	// Module and manager still alive and functional.
	if !onlyRelay() {
		t.Fatalf("junk payloads changed the running tasks: %v", m.RunningTasks())
	}
	streams, err := m.DiscoverStreams("#", 5*time.Second)
	if err != nil {
		t.Fatalf("middleware wedged after junk: %v", err)
	}
	_ = streams

	// A reconnect replays the retained junk; the task restarts and stays.
	old := m.currentClient()
	old.Close()
	waitFor(t, "reconnect", func() bool {
		c := m.currentClient()
		return c != nil && c != old
	})
	waitFor(t, "task restarted after reconnect", onlyRelay)
	time.Sleep(100 * time.Millisecond)
	if !onlyRelay() {
		t.Fatalf("retained junk changed the running tasks after reconnect: %v", m.RunningTasks())
	}
}

// TestDeploymentPendingTasks exercises the progress listing.
func TestDeploymentPendingTasks(t *testing.T) {
	dep := &Deployment{
		pending: map[string]struct{}{"b": {}, "a": {}},
		failed:  map[string]string{},
		done:    make(chan struct{}),
	}
	got := dep.PendingTasks()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("PendingTasks = %v", got)
	}
	dep.noteStatus(Status{SubTaskName: "a", Kind: StatusStarted})
	dep.noteStatus(Status{SubTaskName: "b", Kind: StatusFailed, Detail: "boom"})
	select {
	case <-dep.done:
	default:
		t.Fatal("done not closed after all tasks resolved")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err == nil {
		t.Fatal("WaitRunning succeeded despite failure")
	}
}

func TestManagerStartWithoutDial(t *testing.T) {
	mgr := NewManager(ManagerConfig{})
	if err := mgr.Start(); err == nil {
		t.Fatal("Start without Dial succeeded")
	}
	if err := mgr.Close(); err != nil {
		t.Fatalf("Close unstarted manager = %v", err)
	}
}

func TestModuleStartWithoutDial(t *testing.T) {
	m := NewModule(Config{ID: "x"})
	if err := m.Start(); err == nil {
		t.Fatal("Start without Dial succeeded")
	}
}

// TestMultiDeploymentLoadSpreading verifies that a second recipe's
// analysis task avoids the module already loaded by the first recipe.
func TestMultiDeploymentLoadSpreading(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	src := tc.module(Config{ID: "a-src", CapacityOps: 1000})
	src.RegisterSensor(accelSensor("acc", 1, 50))
	w1 := tc.module(Config{ID: "w1", CapacityOps: 1000})
	w2 := tc.module(Config{ID: "w2", CapacityOps: 1000})
	for _, m := range []*Module{src, w1, w2} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 3 })

	mkRecipe := func(name string) *recipe.Recipe {
		return &recipe.Recipe{
			Name: name,
			Tasks: []recipe.Task{
				{ID: "sense", Kind: recipe.KindSense, Output: name + "/raw",
					Params: map[string]string{"sensor": "acc"}},
				{ID: "train", Kind: recipe.KindTrain, Inputs: []string{"task:sense"}},
			},
		}
	}
	dep1, err := mgr.Deploy(mkRecipe("app1"))
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := mgr.Deploy(mkRecipe("app2"))
	if err != nil {
		t.Fatal(err)
	}
	t1 := dep1.Assignment["app1/train"]
	t2 := dep2.Assignment["app2/train"]
	if t1 == t2 {
		t.Fatalf("both heavy train tasks landed on %s; committed load ignored", t1)
	}
}
