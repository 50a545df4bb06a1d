package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

func mixDeltaOf(syms *feature.Symbols, label string, weights map[string]float64) *ml.MixDelta {
	var d ml.MixDelta
	ld := d.Grow(label)
	for name, v := range weights {
		ld.IDs = append(ld.IDs, syms.Intern(name))
		ld.Vals = append(ld.Vals, v)
	}
	ld.Sort()
	return &d
}

func weightOf(m ml.WeightExporter, label, name string) float64 {
	return m.ExportWeights()[label][name]
}

// TestMixReceiverDeltaSequencing drives the round-sequence rules directly:
// deltas apply only in unbroken order, gaps desynchronize until the next
// keyframe, duplicates are idempotent.
func TestMixReceiverDeltaSequencing(t *testing.T) {
	syms := feature.DefaultSymbols()
	model := ml.NewPassiveAggressive(1)
	rx := newMixReceiver(model, noShard, 0, nil)
	t0 := time.Unix(100, 0)

	// Unsynced peer: deltas are dropped until a keyframe arrives.
	rx.onPayload(MixHeader{ModuleID: "p", Round: 4}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 9}), t0)
	if got := weightOf(model, "hot", "a@x"); got != 0 {
		t.Fatalf("pre-keyframe delta applied: %v", got)
	}

	// Keyframe bootstraps wholesale.
	rx.onPayload(MixHeader{ModuleID: "p", Round: 5, Keyframe: true}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 1}), t0)
	if got := weightOf(model, "hot", "a@x"); got != 1 {
		t.Fatalf("after keyframe: %v, want 1", got)
	}

	// In-order delta applies at 1/n (single peer: n=1).
	rx.onPayload(MixHeader{ModuleID: "p", Round: 6}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 0.5}), t0)
	if got := weightOf(model, "hot", "a@x"); got != 1.5 {
		t.Fatalf("after round 6 delta: %v, want 1.5", got)
	}

	// Duplicate replay: idempotent skip.
	rx.onPayload(MixHeader{ModuleID: "p", Round: 6}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 0.5}), t0)
	if got := weightOf(model, "hot", "a@x"); got != 1.5 {
		t.Fatalf("duplicate delta re-applied: %v", got)
	}

	// Gap (round 8 skips 7): desync, delta dropped.
	rx.onPayload(MixHeader{ModuleID: "p", Round: 8}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 100}), t0)
	if got := weightOf(model, "hot", "a@x"); got != 1.5 {
		t.Fatalf("gapped delta applied: %v", got)
	}
	// Still desynced: even the in-order successor is dropped now.
	rx.onPayload(MixHeader{ModuleID: "p", Round: 9}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 100}), t0)
	if got := weightOf(model, "hot", "a@x"); got != 1.5 {
		t.Fatalf("post-gap delta applied: %v", got)
	}

	// Next keyframe resynchronizes (single synced-peer view: wholesale).
	rx.onPayload(MixHeader{ModuleID: "p", Round: 10, Keyframe: true}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 3}), t0)
	if got := weightOf(model, "hot", "a@x"); got != 3 {
		t.Fatalf("after resync keyframe: %v, want 3", got)
	}
	// And sequencing resumes from the keyframe's round.
	rx.onPayload(MixHeader{ModuleID: "p", Round: 11}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 1}), t0)
	if got := weightOf(model, "hot", "a@x"); got != 4 {
		t.Fatalf("post-resync delta: %v, want 4", got)
	}
}

// TestMixReceiverEvictsStalePeers verifies the stale-peer bound: a peer
// silent for longer than staleAfter stops counting toward the shard count
// and is dropped, with the eviction counted.
func TestMixReceiverEvictsStalePeers(t *testing.T) {
	syms := feature.DefaultSymbols()
	reg := telemetry.NewRegistry()
	evictions := reg.Counter("test_mix_evictions", "")
	model := ml.NewPassiveAggressive(1)
	model.EnableDeltaTracking()
	rx := newMixReceiver(model, 0, 100*time.Millisecond, evictions)
	t0 := time.Unix(100, 0)

	rx.onPayload(MixHeader{ModuleID: "p1", Shard: 1, Round: 1, Keyframe: true}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 1}), t0)
	rx.onPayload(MixHeader{ModuleID: "p2", Shard: 2, Round: 1, Keyframe: true}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 1}), t0)
	if n := rx.shardCount(t0); n != 3 {
		t.Fatalf("shardCount = %d, want 3 (local + two peers)", n)
	}

	// p2 keeps publishing; p1 goes silent past the bound.
	t1 := t0.Add(150 * time.Millisecond)
	rx.onPayload(MixHeader{ModuleID: "p2", Shard: 2, Round: 2}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 0}), t1)
	if n := rx.shardCount(t1); n != 2 {
		t.Fatalf("shardCount = %d, want 2 after eviction", n)
	}
	if got := evictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	// A reappearing peer is unknown again: its deltas drop until the next
	// keyframe re-bootstraps it.
	before := weightOf(model, "hot", "a@x")
	rx.onPayload(MixHeader{ModuleID: "p1", Shard: 1, Round: 7}, mixDeltaOf(syms, "hot", map[string]float64{"a@x": 50}), t1)
	if got := weightOf(model, "hot", "a@x"); got != before {
		t.Fatalf("evicted peer's delta applied: %v", got)
	}
}

// TestMixRestartedPublisherResyncs: a publisher that restarts (rounds back
// at 1) is heard at its first keyframe, not once its new round counter
// passes the old one.
func TestMixRestartedPublisherResyncs(t *testing.T) {
	syms := feature.DefaultSymbols()
	model := ml.NewPassiveAggressive(1)
	rx := newMixReceiver(model, noShard, 0, nil)
	t0 := time.Unix(100, 0)
	payload := func(v float64) *ml.MixDelta { return mixDeltaOf(syms, "hot", map[string]float64{"a@x": v}) }

	rx.onPayload(MixHeader{ModuleID: "p", Round: 49, Keyframe: true}, payload(5), t0)
	rx.onPayload(MixHeader{ModuleID: "p", Round: 50}, payload(1), t0)
	if got := weightOf(model, "hot", "a@x"); got != 6 {
		t.Fatalf("in sync at round 50: %v, want 6", got)
	}

	// p restarts with a new contribution: round 1's delta, then its keyframe.
	rx.onPayload(MixHeader{ModuleID: "p", Round: 1}, payload(0.5), t0)
	rx.onPayload(MixHeader{ModuleID: "p", Round: 1, Keyframe: true}, payload(2), t0)
	if got := weightOf(model, "hot", "a@x"); got != 2 {
		t.Fatalf("after the restarted publisher's keyframe: %v, want its contribution 2", got)
	}
	want := 2.0
	for r := uint64(2); r <= 10; r++ {
		rx.onPayload(MixHeader{ModuleID: "p", Round: r}, payload(0.25), t0)
		want += 0.25
		if got := weightOf(model, "hot", "a@x"); got != want {
			t.Fatalf("after round %d: %v, want %v", r, got, want)
		}
	}
}

// TestShardedMixConvergesExactly runs a two-module sharded trainer over a
// real broker, stops the sensor source, and verifies both shards' models
// carry identical weights — the delta exchange left no residue.
// Run under -race in CI, it also exercises handler/loop synchronization.
func TestShardedMixConvergesExactly(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	var (
		mu    sync.Mutex
		seen  = map[string]int{}
		total int
	)
	mkWorker := func(id string, capacity float64) *Module {
		return tc.module(Config{
			ID: id, CapacityOps: capacity,
			mixInterval:      50 * time.Millisecond,
			MixKeyframeEvery: 2,
			// Generous staleness bound: race-instrumented runs schedule
			// coarsely, and a spurious eviction would skew the averaging
			// weights this test pins down.
			MixStaleAfter: 5 * time.Second,
			// A store enrolls each shard's learner for checkpointing: the
			// models compared below.
			Store: store.NewMemStore(),
			Observer: Observer{OnTrain: func(ev TrainEvent) {
				mu.Lock()
				seen[id]++
				total++
				mu.Unlock()
			}},
		})
	}
	// src hosts only the sensor: its low capacity keeps both trainer
	// shards on w1/w2, so closing it quiesces training without failover
	// touching the shards.
	src := mkWorker("src", 10)
	src.RegisterSensor(&sensor.Sensor{
		ID: "sig", Index: 1, Kind: sensor.Temperature, RateHz: 100,
		Gen: sensor.Sine(5, 5),
	})
	w1, w2 := mkWorker("w1", 100000), mkWorker("w2", 100000)
	for _, m := range []*Module{src, w1, w2} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules", func() bool { return len(mgr.Modules()) == 3 })

	rec := &recipe.Recipe{
		Name: "dmix",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "dm/raw",
				Params: map[string]string{"sensor": "sig"}},
			{ID: "train", Kind: recipe.KindTrain, Inputs: []string{"task:sense"},
				Output: "dm/events", Parallelism: 2},
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
	shard0 := dep.Assignment["dmix/train#0"]
	shard1 := dep.Assignment["dmix/train#1"]
	if shard0 == shard1 {
		t.Skipf("both shards landed on %s; cross-module MIX not exercised", shard0)
	}

	if shard0 == "src" || shard1 == "src" {
		t.Skipf("a shard landed on the sensor host (%s/%s)", shard0, shard1)
	}

	waitFor(t, "both shards trained", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen[shard0] >= 30 && seen[shard1] >= 30
	})

	// Quiesce: stop the source so no further updates enter the shards,
	// then give in-flight deltas a few rounds to drain.
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	// The shards' models must agree weight-for-weight.
	hosts := map[string]*Module{"w1": w1, "w2": w2}
	model := func(host, name string) map[string]feature.Vector {
		ck := hosts[host].ckpt
		ck.mu.Lock()
		learner := ck.learners[name]
		ck.mu.Unlock()
		return learner.(ml.WeightExporter).ExportWeights()
	}
	modelDiff := func() float64 {
		return maxWeightDiff(model(shard0, "dmix/train#0"), model(shard1, "dmix/train#1"))
	}
	waitFor(t, "both shards' models converge", func() bool { return modelDiff() <= 1e-9 })
	if diff := modelDiff(); diff > 1e-9 {
		t.Fatalf("shards diverged: max weight diff %.3e", diff)
	}
}

// TestPredictorReportsUndecodableRetainedMix: a durable broker may still
// hold a pre-delta deployment's retained JSON snapshot under the MIX topic.
// The predictor reports it (one rate-limited mix_bad_payload event), keeps
// its model untouched by those bytes, and still bootstraps from the live
// trainer's binary keyframe.
func TestPredictorReportsUndecodableRetainedMix(t *testing.T) {
	tc := newTestCluster(t)
	var (
		mu   sync.Mutex
		decs []Decision
	)
	m := tc.module(Config{
		ID:          "worker",
		mixInterval: 50 * time.Millisecond,
		Observer: Observer{
			OnDecision: func(d Decision) { mu.Lock(); decs = append(decs, d); mu.Unlock() },
		},
	})
	m.RegisterSensor(&sensor.Sensor{
		ID: "sig", Index: 1, Kind: sensor.Temperature, RateHz: 100,
		Gen: sensor.Sine(0.5, 10),
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	oldTopic := mixTopic("learn", "train") + "/old"
	if err := m.PublishRetained(oldTopic, []byte(legacyJSONSnapshot)); err != nil {
		t.Fatal(err)
	}

	rec := recipe.Recipe{
		Name: "learn",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "l/raw", Params: map[string]string{"sensor": "sig"}},
			{ID: "train", Kind: recipe.KindTrain, Inputs: []string{"task:sense"}},
			{ID: "classify", Kind: recipe.KindPredict, Inputs: []string{"task:sense"}, Output: "l/pred",
				Params: map[string]string{"modelFrom": "train"}},
		},
	}
	start := func(i int) {
		t.Helper()
		sub := recipe.SubTask{Recipe: rec.Name, TaskID: rec.Tasks[i].ID, ShardCount: 1, Task: rec.Tasks[i]}
		if err := m.StartTask(rec, sub); err != nil {
			t.Fatal(err)
		}
	}
	badPayloadEvents := func() []telemetry.Event {
		var out []telemetry.Event
		for _, ev := range m.Events().Events(0, time.Time{}) {
			if ev.Kind == "mix_bad_payload" {
				out = append(out, ev)
			}
		}
		return out
	}

	// Predictor first: the only MIX payload it can see is the JSON one.
	start(2)
	waitFor(t, "mix_bad_payload event", func() bool { return len(badPayloadEvents()) == 1 })
	if ev := badPayloadEvents()[0]; ev.Severity != telemetry.SevWarn || ev.Fields["topic"] != oldTopic || ev.Fields["error"] == "" {
		t.Fatalf("unexpected event: %+v", ev)
	}
	start(0)
	waitFor(t, "decisions from the unsynced model", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(decs) >= 10
	})
	mu.Lock()
	for _, d := range decs {
		if d.Label != "" {
			mu.Unlock()
			t.Fatalf("model holds label %q before any trainer published", d.Label)
		}
	}
	mu.Unlock()

	start(1)
	waitFor(t, "bootstrap from the trainer's keyframe", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return decs[len(decs)-1].Label != ""
	})
	mu.Lock()
	defer mu.Unlock()
	for _, d := range decs {
		if d.Label == "hot" {
			t.Fatal("the JSON snapshot's label reached the model")
		}
	}
	if n := len(badPayloadEvents()); n != 1 {
		t.Fatalf("mix_bad_payload events = %d, want 1", n)
	}
}
