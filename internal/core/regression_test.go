package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
)

// TestRegressionTrainPredictEndToEnd deploys a regression pipeline: two
// predictor sensors and one target sensor whose reading is a linear
// function of the others; the regression trainer learns it and the
// predictor's estimates must converge to the target.
func TestRegressionTrainPredictEndToEnd(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	var (
		mu    sync.Mutex
		preds []Decision
	)
	m := tc.module(Config{
		ID: "node", CapacityOps: 1000,
		mixInterval: 50 * time.Millisecond,
		Observer: Observer{OnDecision: func(d Decision) {
			mu.Lock()
			preds = append(preds, d)
			mu.Unlock()
		}},
	})

	// Shared upstream signals. Each sensor runs on its own goroutine, so
	// the shared phase counter must be atomic.
	var tick atomic.Int64
	signal := func(i int) float64 {
		// Two slow deterministic waveforms.
		x := float64(tick.Load()) / 20
		if i == 0 {
			return math.Sin(x)
		}
		return math.Cos(x / 2)
	}
	m.RegisterSensor(&sensor.Sensor{
		ID: "in1", Index: 1, Kind: sensor.Temperature, RateHz: 100,
		Gen: sensor.GeneratorFunc(func(time.Time) [3]float32 {
			tick.Add(1) // in1 drives the phase; others read it
			return [3]float32{float32(signal(0)), 0, 0}
		}),
	})
	m.RegisterSensor(&sensor.Sensor{
		ID: "in2", Index: 2, Kind: sensor.Humidity, RateHz: 100,
		Gen: sensor.GeneratorFunc(func(time.Time) [3]float32 {
			return [3]float32{float32(signal(1)), 0, 0}
		}),
	})
	// Target: y = 2*s1 - s2 + 0.5.
	m.RegisterSensor(&sensor.Sensor{
		ID: "target", Index: 9, Kind: sensor.Sound, RateHz: 100,
		Gen: sensor.GeneratorFunc(func(time.Time) [3]float32 {
			return [3]float32{float32(2*signal(0) - signal(1) + 0.5), 0, 0}
		}),
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "module", func() bool { return len(mgr.Modules()) == 1 })

	rec := &recipe.Recipe{
		Name: "rg",
		Tasks: []recipe.Task{
			{ID: "s1", Kind: recipe.KindSense, Output: "rg/1", Params: map[string]string{"sensor": "in1"}},
			{ID: "s2", Kind: recipe.KindSense, Output: "rg/2", Params: map[string]string{"sensor": "in2"}},
			{ID: "st", Kind: recipe.KindSense, Output: "rg/t", Params: map[string]string{"sensor": "target"}},
			{ID: "join", Kind: recipe.KindAggregate, Output: "rg/joined",
				Inputs: []string{"task:s1", "task:s2", "task:st"}},
			{ID: "learn", Kind: recipe.KindTrain, Inputs: []string{"task:join"},
				Params: map[string]string{"mode": "regression", "targetSensor": "9", "epsilon": "0.01"}},
			{ID: "estimate", Kind: recipe.KindPredict, Inputs: []string{"task:join"}, Output: "rg/est",
				Params: map[string]string{"mode": "regression", "targetSensor": "9", "modelFrom": "learn"}},
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

	// Wait for model sync (a few MIX publications) plus enough samples,
	// then check the tail of predictions against ground truth.
	waitFor(t, "predictions", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(preds) >= 300
	})
	mu.Lock()
	tail := preds[len(preds)-50:]
	mu.Unlock()

	var sumAbs float64
	nonZero := 0
	for _, d := range tail {
		if d.Kind != "regress" {
			t.Fatalf("decision kind = %q, want regress", d.Kind)
		}
		if d.Score != 0 {
			nonZero++
		}
		sumAbs += math.Abs(d.Score)
	}
	if nonZero < 25 {
		t.Fatalf("only %d/50 non-zero predictions; model never synced", nonZero)
	}
	// Ground-truth targets lie in roughly [-2.5, 3.5]; a synced model's
	// estimates must be in a sane range (not exploded, not all zero).
	if avg := sumAbs / float64(len(tail)); avg > 10 {
		t.Fatalf("average |prediction| = %.2f, model diverged", avg)
	}
}
