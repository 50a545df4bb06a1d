package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
)

func TestBatchDense(t *testing.T) {
	batch := []sensor.Sample{
		{SensorIndex: 1, Values: [3]float32{1, 2, 3}},
		{SensorIndex: 2, Values: [3]float32{-1, 0, 0.5}},
	}
	dv := BatchDense(batch)
	v := dv.ToVector(feature.DefaultSymbols())
	feature.PutDense(dv)
	if len(v) != 6 {
		t.Fatalf("features = %d, want 6", len(v))
	}
	if v["s1.c0@num"] != 1 || v["s2.c2@num"] != 0.5 {
		t.Fatalf("features = %v", v)
	}

	// Regression mode: the target sensor's channel 0 is the label, not a feature.
	dv, target, ok := regressionDense(batch, 2)
	v = dv.ToVector(feature.DefaultSymbols())
	feature.PutDense(dv)
	if !ok || target != -1 || len(v) != 3 || v["s1.c1@num"] != 2 {
		t.Fatalf("regressionDense = %v, target %v, ok %v", v, target, ok)
	}
	dv, _, ok = regressionDense(batch, 9)
	feature.PutDense(dv)
	if ok {
		t.Fatal("regressionDense reported a target for a sensor absent from the batch")
	}
}

func TestLabelFor(t *testing.T) {
	sub := recipe.SubTask{Task: recipe.Task{}}
	pos := []sensor.Sample{{Values: [3]float32{2, 0, 0}}}
	neg := []sensor.Sample{{Values: [3]float32{-2, 0, 0}}}
	if got := labelFor(sub, pos); got != "pos" {
		t.Fatalf("labelFor(+) = %q", got)
	}
	if got := labelFor(sub, neg); got != "neg" {
		t.Fatalf("labelFor(-) = %q", got)
	}
	sub.Task.Params = map[string]string{"label": "walk"}
	if got := labelFor(sub, neg); got != "walk" {
		t.Fatalf("fixed label = %q", got)
	}
}

func TestShardOwnsBatch(t *testing.T) {
	unsharded := recipe.SubTask{ShardCount: 1}
	if !shardOwnsBatch(unsharded, 7) {
		t.Fatal("unsharded task must own everything")
	}
	shard0 := recipe.SubTask{Shard: 0, ShardCount: 2}
	shard1 := recipe.SubTask{Shard: 1, ShardCount: 2}
	for seq := uint32(1); seq < 10; seq++ {
		owns0, owns1 := shardOwnsBatch(shard0, seq), shardOwnsBatch(shard1, seq)
		if owns0 == owns1 {
			t.Fatalf("seq %d owned by %v/%v, want exactly one shard", seq, owns0, owns1)
		}
	}
}

func TestParamHelpers(t *testing.T) {
	sub := recipe.SubTask{Task: recipe.Task{Params: map[string]string{
		"s": "hello", "f": "2.5", "i": "7", "bad": "x",
	}}}
	if paramString(sub, "s", "d") != "hello" || paramString(sub, "missing", "d") != "d" {
		t.Fatal("paramString")
	}
	if paramFloat(sub, "f", 0) != 2.5 || paramFloat(sub, "bad", 9) != 9 || paramFloat(sub, "missing", 3) != 3 {
		t.Fatal("paramFloat")
	}
	if paramInt(sub, "i", 0) != 7 || paramInt(sub, "bad", 4) != 4 {
		t.Fatal("paramInt")
	}
}

func TestNewClassifierVariants(t *testing.T) {
	for _, model := range []string{"pa", "perceptron", "arow", ""} {
		sub := recipe.SubTask{Task: recipe.Task{Params: map[string]string{"model": model}}}
		if clf := newClassifier(sub); clf == nil {
			t.Fatalf("newClassifier(%q) = nil", model)
		}
	}
}

func TestDescribeKind(t *testing.T) {
	if describeKind(recipe.KindTrain) != "Learning class" {
		t.Fatal("KindTrain description")
	}
	if describeKind(recipe.KindAnomaly) != "Judging class" {
		t.Fatal("KindAnomaly description")
	}
	if describeKind(recipe.Kind("odd")) == "" {
		t.Fatal("fallback description empty")
	}
}

// TestWindowAndFilterTasksEndToEnd deploys sense → filter → window and
// verifies cleansed, batched output.
func TestWindowAndFilterTasksEndToEnd(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "node", CapacityOps: 1000})
	// Values alternate 1, 100, 1, 100… — the filter must strip the 100s.
	var n int
	m.RegisterSensor(&sensor.Sensor{
		ID: "alt", Index: 1, Kind: sensor.Temperature, RateHz: 100,
		Gen: sensor.GeneratorFunc(func(time.Time) [3]float32 {
			n++
			if n%2 == 0 {
				return [3]float32{100, 0, 0}
			}
			return [3]float32{1, 0, 0}
		}),
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	rec := &recipe.Recipe{
		Name: "wf",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "wf/raw",
				Params: map[string]string{"sensor": "alt"}},
			{ID: "clean", Kind: recipe.KindFilter, Inputs: []string{"task:sense"},
				Output: "wf/clean", Params: map[string]string{"min": "-10", "max": "10"}},
			{ID: "batch", Kind: recipe.KindWindow, Inputs: []string{"task:clean"},
				Output: "wf/windows", Params: map[string]string{"size": "4"}},
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

	var mu sync.Mutex
	var batches [][]sensor.Sample
	watcher := tc.module(Config{ID: "watcher"})
	if err := watcher.Start(); err != nil {
		t.Fatal(err)
	}
	if err := watcher.Subscribe("wf/windows", func(msg mqttclient.Message) {
		batch, err := DecodeBatch(msg.Payload)
		if err != nil {
			t.Errorf("bad window payload: %v", err)
			return
		}
		mu.Lock()
		batches = append(batches, batch)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "windows", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(batches) >= 3
	})
	mu.Lock()
	defer mu.Unlock()
	for _, batch := range batches {
		if len(batch) != 4 {
			t.Fatalf("window size = %d, want 4", len(batch))
		}
		for _, s := range batch {
			if s.Values[0] != 1 {
				t.Fatalf("filtered value %v leaked into window", s.Values[0])
			}
		}
	}
}

// TestClusterTaskEndToEnd deploys sense → cluster and verifies stable
// cluster decisions.
func TestClusterTaskEndToEnd(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	decisions := make(chan Decision, 256)
	m := tc.module(Config{
		ID: "node", CapacityOps: 1000,
		Observer: Observer{OnDecision: func(d Decision) {
			select {
			case decisions <- d:
			default:
			}
		}},
	})
	var n int
	m.RegisterSensor(&sensor.Sensor{
		ID: "bimodal", Index: 1, Kind: sensor.Sound, RateHz: 100,
		Gen: sensor.GeneratorFunc(func(time.Time) [3]float32 {
			n++
			if n%2 == 0 {
				return [3]float32{50, 0, 0}
			}
			return [3]float32{-50, 0, 0}
		}),
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	rec := &recipe.Recipe{
		Name: "cl",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "cl/raw",
				Params: map[string]string{"sensor": "bimodal"}},
			{ID: "group", Kind: recipe.KindCluster, Inputs: []string{"task:sense"},
				Output: "cl/ctx", Params: map[string]string{"k": "2"}},
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

	labels := make(map[string]int)
	deadline := time.After(10 * time.Second)
	for count := 0; count < 50; count++ {
		select {
		case d := <-decisions:
			if d.Kind != string(recipe.KindCluster) {
				t.Fatalf("decision kind = %q", d.Kind)
			}
			labels[d.Label]++
		case <-deadline:
			t.Fatalf("only %d cluster decisions", count)
		}
	}
	if len(labels) != 2 {
		t.Fatalf("cluster labels = %v, want 2 distinct clusters", labels)
	}
}

// TestWindowedAnomalyDetection runs the anomaly class in windowed mode: a
// flat signal whose variance suddenly jumps must be flagged via window
// statistics even though individual readings stay in range.
func TestWindowedAnomalyDetection(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	decisions := make(chan Decision, 1024)
	m := tc.module(Config{
		ID: "node", CapacityOps: 1000,
		Observer: Observer{OnDecision: func(d Decision) {
			select {
			case decisions <- d:
			default:
			}
		}},
	})
	// 400 calm samples (tiny noise), then violent oscillation with the
	// same mean: raw z-scores stay moderate per-sample history, but the
	// window's std/energy jump by orders of magnitude.
	var n int
	m.RegisterSensor(&sensor.Sensor{
		ID: "vib", Index: 1, Kind: sensor.Accelerometer, RateHz: 200,
		Gen: sensor.GeneratorFunc(func(time.Time) [3]float32 {
			n++
			if n <= 400 {
				if n%2 == 0 {
					return [3]float32{0.01, 0, 0}
				}
				return [3]float32{-0.01, 0, 0}
			}
			if n%2 == 0 {
				return [3]float32{5, 0, 0}
			}
			return [3]float32{-5, 0, 0}
		}),
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	rec := &recipe.Recipe{
		Name: "wa",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "wa/raw",
				Params: map[string]string{"sensor": "vib"}},
			{ID: "watch", Kind: recipe.KindAnomaly, Inputs: []string{"task:sense"}, Output: "wa/alerts",
				Params: map[string]string{"window": "20", "step": "5", "threshold": "6"}},
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

	sawCalmNormal := false
	deadline := time.After(15 * time.Second)
	for {
		select {
		case d := <-decisions:
			if d.Label == "normal" {
				sawCalmNormal = true
			}
			if d.Label == "anomaly" {
				if !sawCalmNormal {
					t.Fatal("anomaly flagged before any normal window")
				}
				return // detected the variance regime change
			}
		case <-deadline:
			t.Fatal("windowed anomaly never flagged the vibration regime")
		}
	}
}

// Two sense tasks on one module may share a sensor: each runs it at its
// own rate while the sensor's sequence advances under its lock, so the
// two outputs carry disjoint seqs.
func TestSenseTasksShareSensor(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	m := tc.module(Config{ID: "node", CapacityOps: 1000})
	m.RegisterSensor(accelSensor("acc", 1, 200))
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	watcher := tc.module(Config{ID: "watcher"})
	if err := watcher.Start(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seqs := map[string][]uint32{}
	for _, topic := range []string{"share/a", "share/b"} {
		if err := watcher.Subscribe(topic, func(msg mqttclient.Message) {
			smp, err := sensor.DecodeSample(msg.Payload)
			if err != nil {
				t.Errorf("bad sample on %s: %v", topic, err)
				return
			}
			mu.Lock()
			seqs[topic] = append(seqs[topic], smp.Seq)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	rec := &recipe.Recipe{
		Name: "share",
		Tasks: []recipe.Task{
			{ID: "a", Kind: recipe.KindSense, Output: "share/a",
				Params: map[string]string{"sensor": "acc", "rate": "400"}},
			{ID: "b", Kind: recipe.KindSense, Output: "share/b",
				Params: map[string]string{"sensor": "acc"}},
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
	waitFor(t, "samples from both tasks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs["share/a"]) >= 40 && len(seqs["share/b"]) >= 40
	})

	mu.Lock()
	defer mu.Unlock()
	owner := map[uint32]string{}
	for topic, list := range seqs {
		for _, seq := range list {
			if prev, dup := owner[seq]; dup {
				t.Fatalf("seq %d emitted on %s and %s", seq, prev, topic)
			}
			owner[seq] = topic
		}
	}
}
