package core

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/netsim"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
)

// testCluster is a broker plus helpers to spawn modules and managers over
// in-memory transports.
type testCluster struct {
	t        *testing.T
	broker   *broker.Broker
	listener *netsim.PipeListener
}

func newTestCluster(t *testing.T) *testCluster {
	t.Helper()
	b := broker.New(broker.Options{})
	l := netsim.NewPipeListener()
	go func() { _ = b.Serve(l) }()
	t.Cleanup(func() {
		_ = b.Close()
		_ = l.Close()
	})
	return &testCluster{t: t, broker: b, listener: l}
}

func (tc *testCluster) dial() func() (net.Conn, error) {
	return func() (net.Conn, error) { return tc.listener.Dial() }
}

func (tc *testCluster) module(cfg Config) *Module {
	tc.t.Helper()
	cfg.Dial = tc.dial()
	m := NewModule(cfg)
	tc.t.Cleanup(func() { _ = m.Close() })
	return m
}

func (tc *testCluster) manager(cfg ManagerConfig) *Manager {
	tc.t.Helper()
	cfg.Dial = tc.dial()
	mgr := NewManager(cfg)
	if err := mgr.Start(); err != nil {
		tc.t.Fatalf("manager start: %v", err)
	}
	tc.t.Cleanup(func() { _ = mgr.Close() })
	return mgr
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func accelSensor(id string, idx uint16, rate float64) *sensor.Sensor {
	return &sensor.Sensor{
		ID:     id,
		Index:  idx,
		Kind:   sensor.Accelerometer,
		RateHz: rate,
		Gen:    sensor.GaussianNoise(0, 1, uint64(idx)+1),
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	batch := []sensor.Sample{
		{SensorIndex: 1, Kind: sensor.Sound, Seq: 9, Timestamp: time.Unix(5, 0), Values: [3]float32{1, 2, 3}},
		{SensorIndex: 2, Kind: sensor.Motion, Seq: 9, Timestamp: time.Unix(6, 0)},
	}
	encoded, err := EncodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(encoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].SensorIndex != 1 || got[1].Kind != sensor.Motion {
		t.Fatalf("round trip = %+v", got)
	}
}

// TestEncodeBatchTooLarge is the regression test for the uint16 count
// truncation: a batch beyond MaxBatchSamples must be rejected, not encoded
// with a wrapped-around count that DecodeBatch then misreads.
func TestEncodeBatchTooLarge(t *testing.T) {
	if _, err := EncodeBatch(make([]sensor.Sample, MaxBatchSamples+1)); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("EncodeBatch(oversized) err = %v, want ErrBatchTooLarge", err)
	}
	// The boundary itself still encodes and round-trips.
	payload, err := EncodeBatch(make([]sensor.Sample, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeBatch(payload); err != nil || len(got) != 3 {
		t.Fatalf("boundary round trip = %d samples, %v", len(got), err)
	}
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	if _, err := DecodeBatch(nil); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("nil err = %v", err)
	}
	if _, err := DecodeBatch([]byte{0, 2, 1, 2, 3}); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("short err = %v", err)
	}
}

func TestEarliestTimestamp(t *testing.T) {
	if !EarliestTimestamp(nil).IsZero() {
		t.Fatal("empty batch must yield zero time")
	}
	batch := []sensor.Sample{
		{Timestamp: time.Unix(10, 0)},
		{Timestamp: time.Unix(5, 0)},
		{Timestamp: time.Unix(7, 0)},
	}
	if got := EarliestTimestamp(batch); !got.Equal(time.Unix(5, 0)) {
		t.Fatalf("EarliestTimestamp = %v", got)
	}
}

func TestModuleStartAnnounceVisibleToManager(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "moduleA", CapacityOps: 1000, Capabilities: []string{"camera"}})
	m.RegisterSensor(accelSensor("acc1", 1, 100))
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "module announce", func() bool { return len(mgr.Modules()) == 1 })
	mods := mgr.Modules()
	if mods[0].ModuleID != "moduleA" || mods[0].CapacityOps != 1000 {
		t.Fatalf("announce = %+v", mods[0])
	}
	// Derived capability from the registered sensor.
	found := false
	for _, c := range mods[0].Capabilities {
		if c == "sensor:acc1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("derived sensor capability missing: %v", mods[0].Capabilities)
	}
}

func TestModuleDoubleStartFails(t *testing.T) {
	tc := newTestCluster(t)
	m := tc.module(Config{ID: "m"})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("second Start = %v, want ErrAlreadyStarted", err)
	}
}

func TestDeployEndToEndPipeline(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	// Three modules: sensors on A and B, actuation on C. The anomaly
	// task may be placed on any module, so every module shares the
	// decision observer.
	var decisions []Decision
	var decMu sync.Mutex
	obs := Observer{OnDecision: func(d Decision) {
		decMu.Lock()
		decisions = append(decisions, d)
		decMu.Unlock()
	}}
	modA := tc.module(Config{ID: "A", CapacityOps: 1000, Observer: obs})
	modA.RegisterSensor(accelSensor("accA", 1, 50))
	modB := tc.module(Config{ID: "B", CapacityOps: 1000, Observer: obs})
	modB.RegisterSensor(accelSensor("accB", 2, 50))

	light := sensor.NewVirtualActuator("alert")
	modC := tc.module(Config{ID: "C", CapacityOps: 1000, Observer: obs})
	modC.RegisterActuator(light)

	for _, m := range []*Module{modA, modB, modC} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules visible", func() bool { return len(mgr.Modules()) == 3 })

	rec := &recipe.Recipe{
		Name: "monitor",
		Tasks: []recipe.Task{
			{ID: "senseA", Kind: recipe.KindSense, Output: "m/a", Params: map[string]string{"sensor": "accA"}},
			{ID: "senseB", Kind: recipe.KindSense, Output: "m/b", Params: map[string]string{"sensor": "accB"}},
			{ID: "join", Kind: recipe.KindAggregate, Inputs: []string{"task:senseA", "task:senseB"}, Output: "m/joined"},
			{ID: "detect", Kind: recipe.KindAnomaly, Inputs: []string{"task:join"}, Output: "m/alerts",
				Params: map[string]string{"detector": "zscore", "threshold": "50"}},
			{ID: "alert", Kind: recipe.KindActuate, Inputs: []string{"task:detect"},
				Params: map[string]string{"actuator": "alert", "command": "beep"}},
		},
	}
	dep, err := mgr.Deploy(rec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		t.Fatalf("WaitRunning: %v (pending %v)", err, dep.PendingTasks())
	}

	// Placement: sense tasks must land on the modules hosting the sensors.
	if dep.Assignment["monitor/senseA"] != "A" {
		t.Errorf("senseA on %q, want A", dep.Assignment["monitor/senseA"])
	}
	if dep.Assignment["monitor/senseB"] != "B" {
		t.Errorf("senseB on %q, want B", dep.Assignment["monitor/senseB"])
	}
	if dep.Assignment["monitor/alert"] != "C" {
		t.Errorf("alert on %q, want C (actuator host)", dep.Assignment["monitor/alert"])
	}

	// Data must flow end to end: decisions observed and actuator driven.
	waitFor(t, "decisions", func() bool {
		decMu.Lock()
		defer decMu.Unlock()
		return len(decisions) >= 5
	})
	waitFor(t, "actuator commands", func() bool { return light.CommandCount() >= 5 })

	decMu.Lock()
	d := decisions[0]
	decMu.Unlock()
	if d.Recipe != "monitor" || d.TaskID != "detect" || d.Kind != "anomaly" {
		t.Fatalf("decision = %+v", d)
	}
	if d.SensedAt.IsZero() || d.At.Before(d.SensedAt) {
		t.Fatalf("decision timestamps inconsistent: %+v", d)
	}

	// Stream registry knows every output topic.
	if got := len(mgr.Streams()); got != 4 {
		t.Fatalf("registered streams = %d, want 4", got)
	}

	// Undeploy stops the flow.
	if err := mgr.Undeploy("monitor"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tasks stopped", func() bool {
		return len(modA.RunningTasks())+len(modB.RunningTasks())+len(modC.RunningTasks()) == 0
	})
	before := light.CommandCount()
	time.Sleep(100 * time.Millisecond)
	after := light.CommandCount()
	if after-before > 2 { // allow a strand of in-flight messages
		t.Fatalf("actuator still receiving after undeploy: %d -> %d", before, after)
	}
}

func TestDeployFailsWithNoModules(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	rec := &recipe.Recipe{
		Name:  "r",
		Tasks: []recipe.Task{{ID: "x", Kind: recipe.KindCustom, Inputs: []string{"in"}, Output: "out"}},
	}
	if _, err := mgr.Deploy(rec); err == nil {
		t.Fatal("Deploy with no modules succeeded")
	}
}

func TestDeployDuplicateRejected(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "A", CapacityOps: 100})
	m.RegisterSensor(accelSensor("s", 1, 50))
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	rec := &recipe.Recipe{
		Name:  "dup",
		Tasks: []recipe.Task{{ID: "sense", Kind: recipe.KindSense, Output: "d/s", Params: map[string]string{"sensor": "s"}}},
	}
	if _, err := mgr.Deploy(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Deploy(rec); !errors.Is(err, ErrDeployExists) {
		t.Fatalf("second deploy = %v, want ErrDeployExists", err)
	}
}

func TestStartTaskUnknownSensorFails(t *testing.T) {
	tc := newTestCluster(t)
	m := tc.module(Config{ID: "A"})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	rec := recipe.Recipe{
		Name:  "r",
		Tasks: []recipe.Task{{ID: "sense", Kind: recipe.KindSense, Output: "t"}},
	}
	sub := recipe.SubTask{Recipe: "r", TaskID: "sense", ShardCount: 1, Task: rec.Tasks[0]}
	if err := m.StartTask(rec, sub); !errors.Is(err, ErrUnknownSensor) {
		t.Fatalf("err = %v, want ErrUnknownSensor", err)
	}
}

func TestStartTaskDuplicateName(t *testing.T) {
	tc := newTestCluster(t)
	m := tc.module(Config{ID: "A"})
	m.RegisterSensor(accelSensor("s", 1, 100))
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	rec := recipe.Recipe{
		Name:  "r",
		Tasks: []recipe.Task{{ID: "sense", Kind: recipe.KindSense, Output: "t", Params: map[string]string{"sensor": "s"}}},
	}
	sub := recipe.SubTask{Recipe: "r", TaskID: "sense", ShardCount: 1, Task: rec.Tasks[0]}
	if err := m.StartTask(rec, sub); err != nil {
		t.Fatal(err)
	}
	if err := m.StartTask(rec, sub); !errors.Is(err, ErrTaskExists) {
		t.Fatalf("err = %v, want ErrTaskExists", err)
	}
	if err := m.StopTask(sub.Name()); err != nil {
		t.Fatal(err)
	}
	if err := m.StopTask(sub.Name()); err == nil {
		t.Fatal("second StopTask succeeded")
	}
}

func TestTrainPredictWithModelSync(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	var (
		mu     sync.Mutex
		trains []TrainEvent
		decs   []Decision
	)
	m := tc.module(Config{
		ID: "worker", CapacityOps: 1000,
		mixInterval: 50 * time.Millisecond,
		Observer: Observer{
			OnTrain:    func(ev TrainEvent) { mu.Lock(); trains = append(trains, ev); mu.Unlock() },
			OnDecision: func(d Decision) { mu.Lock(); decs = append(decs, d); mu.Unlock() },
		},
	})
	// Sensor with a strongly signed signal so sign-labels are learnable.
	m.RegisterSensor(&sensor.Sensor{
		ID: "sig", Index: 1, Kind: sensor.Temperature, RateHz: 100,
		Gen: sensor.Sine(0.5, 10),
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	rec := &recipe.Recipe{
		Name: "learn",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "l/raw", Params: map[string]string{"sensor": "sig"}},
			{ID: "train", Kind: recipe.KindTrain, Inputs: []string{"task:sense"}, Output: "l/train"},
			{ID: "classify", Kind: recipe.KindPredict, Inputs: []string{"task:sense"}, Output: "l/pred",
				Params: map[string]string{"modelFrom": "train"}},
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

	waitFor(t, "training events", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(trains) >= 20
	})
	// After a couple of MIX publications, the predictor must emit labelled
	// decisions (its model synced from the trainer).
	waitFor(t, "labelled predictions", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range decs {
			if d.Label != "" {
				return true
			}
		}
		return false
	})
	mu.Lock()
	defer mu.Unlock()
	if trains[0].Examples != 1 {
		t.Fatalf("first train event examples = %d, want 1", trains[0].Examples)
	}
}

func TestDiscoverStreams(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "A", CapacityOps: 100})
	m.RegisterSensor(accelSensor("s", 1, 50))
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	rec := &recipe.Recipe{
		Name:  "disc",
		Tasks: []recipe.Task{{ID: "sense", Kind: recipe.KindSense, Output: "disc/stream", Params: map[string]string{"sensor": "s"}}},
	}
	if _, err := mgr.Deploy(rec); err != nil {
		t.Fatal(err)
	}

	streams, err := m.DiscoverStreams("disc/#", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 || streams[0].Topic != "disc/stream" || streams[0].Recipe != "disc" {
		t.Fatalf("DiscoverStreams = %+v", streams)
	}
	// A non-matching filter returns nothing.
	streams, err = m.DiscoverStreams("other/#", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 0 {
		t.Fatalf("DiscoverStreams(other) = %+v", streams)
	}
}

func TestModuleLeaveRemovesFromManager(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "ghost", CapacityOps: 100})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module present", func() bool { return len(mgr.Modules()) == 1 })
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module removed", func() bool { return len(mgr.Modules()) == 0 })
}

func TestUndeployUnknown(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	if err := mgr.Undeploy("nope"); !errors.Is(err, ErrNoSuchDeployment) {
		t.Fatalf("err = %v, want ErrNoSuchDeployment", err)
	}
}

func TestModulePublishSubscribeHelpers(t *testing.T) {
	tc := newTestCluster(t)
	a := tc.module(Config{ID: "a"})
	b := tc.module(Config{ID: "b"})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	if err := b.Subscribe("app/x", func(msg mqttclient.Message) { got <- msg.Payload }); err != nil {
		t.Fatal(err)
	}
	if err := a.Publish("app/x", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	select {
	case payload := <-got:
		if string(payload) != "hi" {
			t.Fatalf("payload = %q", payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}
