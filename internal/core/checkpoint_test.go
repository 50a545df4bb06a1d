package core

import (
	"math"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/store"
)

// anomalySub builds an unsharded anomaly subtask reading a fixed topic.
func anomalySub(detector string) (recipe.Recipe, recipe.SubTask) {
	rec := recipe.Recipe{Name: "ck"}
	task := recipe.Task{
		ID: "det", Kind: recipe.KindAnomaly,
		Inputs: []string{"ck/in"}, Output: "ck/out",
		Params: map[string]string{"detector": detector, "threshold": "5"},
	}
	return rec, recipe.SubTask{Recipe: rec.Name, TaskID: task.ID, ShardCount: 1, Task: task}
}

func sample(i int, v float64) sensor.Sample {
	return sensor.Sample{
		SensorIndex: 1, Kind: sensor.Sound, Seq: uint32(i),
		Timestamp: time.Unix(int64(i), 0),
		Values:    [3]float32{float32(v), float32(v / 2), float32(-v)},
	}
}

// TestModuleCheckpointRestoreAcrossRestart trains a zscore anomaly task,
// restarts the module against the same store, and verifies the restored
// detector immediately flags an outlier — a fresh detector would score it
// 0 ("normal") because its streaming statistics start empty.
func TestModuleCheckpointRestoreAcrossRestart(t *testing.T) {
	tc := newTestCluster(t)
	st := store.NewMemStore()

	decisions := make(chan Decision, 1024)
	observe := Observer{OnDecision: func(d Decision) {
		select {
		case decisions <- d:
		default:
		}
	}}
	rec, sub := anomalySub("zscore")

	m1 := tc.module(Config{ID: "node", Store: st, Observer: observe})
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m1.StartTask(rec, sub); err != nil {
		t.Fatal(err)
	}
	feeder := tc.module(Config{ID: "feeder"})
	if err := feeder.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := feeder.Publish("ck/in", sample(i, math.Sin(float64(i))).Encode()); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	waitFor(t, "training decisions", func() bool {
		for {
			select {
			case <-decisions:
				seen++
			default:
				return seen >= 200
			}
		}
	})
	if err := m1.Close(); err != nil { // final checkpoint journals on task stop
		t.Fatal(err)
	}

	m2 := tc.module(Config{ID: "node", Store: st, Observer: observe})
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m2.StartTask(rec, sub); err != nil {
		t.Fatal(err)
	}
	if err := feeder.Publish("ck/in", sample(1000, 500).Encode()); err != nil {
		t.Fatal(err)
	}
	var got Decision
	select {
	case got = <-decisions:
	case <-time.After(10 * time.Second):
		t.Fatal("no decision after restart")
	}
	if got.Label != "anomaly" {
		t.Fatalf("restored detector scored outlier %q (score %v), want anomaly — checkpoint not restored",
			got.Label, got.Score)
	}
}

// TestModuleCheckpointKindMismatchStartsFresh restarts the same subtask
// name with a different detector kind; the stale blob must be rejected and
// the task must run fresh instead of serving a foreign model.
func TestModuleCheckpointKindMismatchStartsFresh(t *testing.T) {
	tc := newTestCluster(t)
	st := store.NewMemStore()
	decisions := make(chan Decision, 64)
	observe := Observer{OnDecision: func(d Decision) {
		select {
		case decisions <- d:
		default:
		}
	}}

	rec, sub := anomalySub("zscore")
	m1 := tc.module(Config{ID: "node", Store: st, Observer: observe})
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m1.StartTask(rec, sub); err != nil {
		t.Fatal(err)
	}
	feeder := tc.module(Config{ID: "feeder"})
	if err := feeder.Start(); err != nil {
		t.Fatal(err)
	}
	if err := feeder.Publish("ck/in", sample(0, 1).Encode()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-decisions:
	case <-time.After(10 * time.Second):
		t.Fatal("no decision before restart")
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Same subtask name, now a knn detector: the zscore blob must not load.
	rec2, sub2 := anomalySub("knn")
	m2 := tc.module(Config{ID: "node", Store: st, Observer: observe})
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m2.StartTask(rec2, sub2); err != nil {
		t.Fatal(err)
	}
	if err := feeder.Publish("ck/in", sample(1, 1).Encode()); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-decisions:
		if d.Label != "normal" {
			t.Fatalf("fresh knn detector decision = %q, want normal", d.Label)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("task did not start fresh after kind mismatch")
	}
}

// TestModuleCheckpointPeriodicLoop verifies the interval loop journals
// checkpoints while the task is live (not only at stop).
func TestModuleCheckpointPeriodicLoop(t *testing.T) {
	tc := newTestCluster(t)
	st := store.NewMemStore()
	rec, sub := anomalySub("zscore")
	m := tc.module(Config{ID: "node", Store: st, CheckpointInterval: 20 * time.Millisecond})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.StartTask(rec, sub); err != nil {
		t.Fatal(err)
	}
	feeder := tc.module(Config{ID: "feeder"})
	if err := feeder.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := feeder.Publish("ck/in", sample(i, float64(i%5)).Encode()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "periodic checkpoint", func() bool { return st.Records() > 0 })
}

// TestNonFiniteBatchDoesNotPoisonCheckpoint: a batch carrying a NaN
// reading is dropped as undecodable, so the anomaly task's learner stays
// finite, keeps flagging outliers and can still be checkpointed.
func TestNonFiniteBatchDoesNotPoisonCheckpoint(t *testing.T) {
	for _, detector := range []string{"zscore", "knn"} {
		t.Run(detector, func(t *testing.T) {
			tc := newTestCluster(t)
			decisions := make(chan Decision, 1024)
			observe := Observer{OnDecision: func(d Decision) {
				select {
				case decisions <- d:
				default:
				}
			}}
			rec, sub := anomalySub(detector)
			m := tc.module(Config{ID: "node", Store: store.NewMemStore(), Observer: observe})
			if err := m.Start(); err != nil {
				t.Fatal(err)
			}
			if err := m.StartTask(rec, sub); err != nil {
				t.Fatal(err)
			}
			feeder := tc.module(Config{ID: "feeder"})
			if err := feeder.Start(); err != nil {
				t.Fatal(err)
			}
			poisoned, err := EncodeBatch([]sensor.Sample{sample(0, 1), sample(1, math.NaN()), sample(2, 1)})
			if err != nil {
				t.Fatal(err)
			}
			if err := feeder.Publish("ck/in", poisoned); err != nil {
				t.Fatal(err)
			}
			for i := 3; i < 203; i++ {
				if err := feeder.Publish("ck/in", sample(i, math.Sin(float64(i))).Encode()); err != nil {
					t.Fatal(err)
				}
			}
			if err := feeder.Publish("ck/in", sample(1000, 500).Encode()); err != nil {
				t.Fatal(err)
			}
			var last Decision
			for last.Seq != 1000 {
				select {
				case last = <-decisions:
					if last.Seq < 3 {
						t.Fatalf("decision %+v for the batch holding a NaN reading", last)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("no decision for the outlier")
				}
			}
			if detector == "zscore" && last.Label != "anomaly" {
				t.Fatalf("outlier scored %q (score %v), want anomaly", last.Label, last.Score)
			}

			m.ckpt.mu.Lock()
			learners := len(m.ckpt.learners)
			var blobErr error
			for _, ck := range m.ckpt.learners {
				_, blobErr = ck.CheckpointState()
			}
			m.ckpt.mu.Unlock()
			if learners != 1 || blobErr != nil {
				t.Fatalf("checkpoint of %d learners: %v", learners, blobErr)
			}
		})
	}
}

// fixedCheckpointer checkpoints as a fixed blob.
type fixedCheckpointer string

func (f fixedCheckpointer) CheckpointState() ([]byte, error) { return []byte(f), nil }
func (fixedCheckpointer) RestoreState([]byte) error          { return nil }

// TestModuleCheckpointGoldenRecord: a checkpoint is journaled as the bytes
// earlier releases wrote, and a blob equal to the last one journals
// nothing.
func TestModuleCheckpointGoldenRecord(t *testing.T) {
	st := store.NewMemStore()
	m := NewModule(Config{ID: "ckpt", Store: st})
	if err := m.initCheckpoints(); err != nil {
		t.Fatal(err)
	}
	defer m.ckpt.journal.Close()
	m.checkpointTask("ck/det", fixedCheckpointer(`{"kind":"zscore", "n":3}`), false)
	m.checkpointTask("ck/det", fixedCheckpointer(`{"kind":"zscore", "n":3}`), false)
	const golden = `{"task":"ck/det","blob":{"kind":"zscore","n":3}}`
	if got := journalRecords(t, st); len(got) != 1 || got[0] != golden {
		t.Fatalf("journaled %q, want %q", got, golden)
	}
}
