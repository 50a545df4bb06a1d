package core

import (
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// TestShardedBatchKindsDecideOnce: with parallelism 2, every kind that
// runs in the batch frame sees each sequence number on exactly one shard
// ("shard i of n owns batches with seq % n == i"), so no batch is learned
// or decided twice.
func TestShardedBatchKindsDecideOnce(t *testing.T) {
	const batches = 20
	for _, kind := range []recipe.Kind{recipe.KindTrain, recipe.KindPredict, recipe.KindAnomaly, recipe.KindCluster} {
		t.Run(string(kind), func(t *testing.T) {
			tc := newTestCluster(t)
			var (
				mu   sync.Mutex
				seen = map[uint32]int{}
			)
			note := func(seq uint32) {
				mu.Lock()
				seen[seq]++
				mu.Unlock()
			}
			m := tc.module(Config{ID: "node", Observer: Observer{
				OnDecision: func(d Decision) { note(d.Seq) },
				OnTrain:    func(ev TrainEvent) { note(ev.Seq) },
			}})
			if err := m.Start(); err != nil {
				t.Fatal(err)
			}
			rec := recipe.Recipe{Name: "sharded", Tasks: []recipe.Task{
				{ID: "t", Kind: kind, Inputs: []string{"sharded/in"}, Parallelism: 2},
			}}
			subs, err := recipe.Split(&rec)
			if err != nil {
				t.Fatal(err)
			}
			if len(subs) != 2 {
				t.Fatalf("Split produced %d subtasks, want 2", len(subs))
			}
			for _, sub := range subs {
				if err := m.StartTask(rec, sub); err != nil {
					t.Fatal(err)
				}
			}
			for seq := uint32(1); seq <= batches; seq++ {
				payload, err := EncodeBatch([]sensor.Sample{{
					SensorIndex: 1, Seq: seq, Timestamp: time.Now(), Values: [3]float32{float32(seq), 1, -1},
				}})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Publish("sharded/in", payload); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "every seq handled", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(seen) == batches
			})
			time.Sleep(100 * time.Millisecond) // let a second shard's duplicates land
			mu.Lock()
			defer mu.Unlock()
			for seq := uint32(1); seq <= batches; seq++ {
				if seen[seq] != 1 {
					t.Errorf("seq %d handled %d times, want exactly once", seq, seen[seq])
				}
			}
		})
	}
}

// TestStageSpansKeyedByFlow pins which key each stage span is recorded
// under: a flow that arrives with a trace context keeps its propagated key
// through join, learn, judge and actuate; an untraced flow gets each
// task's local (recipe, task, seq) key.
func TestStageSpansKeyedByFlow(t *testing.T) {
	tc := newTestCluster(t)
	tracer := telemetry.NewTracer(nil, 256)
	m := tc.module(Config{ID: "node", Tracer: tracer})
	light := sensor.NewVirtualActuator("light")
	m.RegisterActuator(light)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	rec := recipe.Recipe{Name: "spans", Tasks: []recipe.Task{
		{ID: "join", Kind: recipe.KindAggregate, Inputs: []string{"spans/a", "spans/b"}, Output: "spans/joined"},
		{ID: "learn", Kind: recipe.KindTrain, Inputs: []string{"task:join"}},
		{ID: "judge", Kind: recipe.KindPredict, Inputs: []string{"task:join"}, Output: "spans/decisions"},
		{ID: "act", Kind: recipe.KindActuate, Inputs: []string{"task:judge"}, Params: map[string]string{"actuator": "light"}},
	}}
	subs, err := recipe.Split(&rec)
	if err != nil {
		t.Fatal(err)
	}
	// Downstream first, so every consumer is subscribed before its producer.
	for i := len(subs) - 1; i >= 0; i-- {
		if err := m.StartTask(rec, subs[i]); err != nil {
			t.Fatal(err)
		}
	}

	const tracedSeq, bareSeq = 7, 8
	propagated := telemetry.TraceKey{Recipe: "upstream", TaskID: "sense", Seq: tracedSeq}
	for i, topic := range []string{"spans/a", "spans/b"} {
		smp := sensor.Sample{SensorIndex: uint16(i + 1), Seq: tracedSeq, Timestamp: time.Now(), Values: [3]float32{1, 2, 3}}
		payload, err := EncodeBatchTraced([]sensor.Sample{smp}, &TraceContext{
			Key: propagated, OriginUnixNano: smp.Timestamp.UnixNano(), OriginModule: "elsewhere",
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Publish(topic, payload); err != nil {
			t.Fatal(err)
		}
		smp.Seq = bareSeq
		if err := m.Publish(topic, smp.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	local := func(task string) telemetry.TraceKey {
		return telemetry.TraceKey{Recipe: "spans", TaskID: task, Seq: bareSeq}
	}
	want := map[string][]telemetry.TraceKey{
		"join":  {propagated, local("join")},
		"learn": {propagated, local("learn")},
		"judge": {propagated, local("judge")},
		// The actuator knows an untraced flow only by the decision it received.
		"actuate": {propagated, local("judge")},
	}
	var got map[string]map[telemetry.TraceKey]string // stage -> key -> origin module
	waitFor(t, "both flows' spans", func() bool {
		got = map[string]map[telemetry.TraceKey]string{}
		n := 0
		for _, s := range tracer.Spans() {
			if got[s.Stage] == nil {
				got[s.Stage] = map[telemetry.TraceKey]string{}
			}
			got[s.Stage][s.Key] = s.OriginModule
			n++
		}
		return n >= 8
	})
	for stage, keys := range want {
		if len(got[stage]) != len(keys) {
			t.Errorf("stage %s recorded under %v, want exactly %v", stage, got[stage], keys)
		}
		for _, key := range keys {
			origin, ok := got[stage][key]
			if !ok {
				t.Errorf("stage %s: no span under %+v (have %v)", stage, key, got[stage])
				continue
			}
			wantOrigin := ""
			if key == propagated {
				wantOrigin = "elsewhere"
			}
			if origin != wantOrigin {
				t.Errorf("stage %s key %+v: origin module %q, want %q", stage, key, origin, wantOrigin)
			}
		}
	}
}
