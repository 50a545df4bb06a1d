package ml

import (
	"fmt"
	"math"
	"testing"

	"github.com/ifot-middleware/ifot/internal/feature"
)

func trainVec(i int) feature.Vector {
	return feature.Vector{
		"x@num": float64(i%7) - 3,
		"y@num": float64(i%5) * 0.5,
		"z@num": math.Sin(float64(i)),
	}
}

func trainLabel(i int) string {
	if (i%7)-3 > 0 {
		return "pos"
	}
	return "neg"
}

// roundTrip checkpoints src, restores into dst, and returns dst.
func roundTrip(t *testing.T, src, dst Checkpointer) Checkpointer {
	t.Helper()
	blob, err := src.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	if err := dst.RestoreState(blob); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	return dst
}

func TestCheckpointLinearClassifiers(t *testing.T) {
	cases := []struct {
		name string
		mk   func() interface {
			Classifier
			Checkpointer
		}
	}{
		{"perceptron", func() interface {
			Classifier
			Checkpointer
		} {
			return NewPerceptron(0)
		}},
		{"pa", func() interface {
			Classifier
			Checkpointer
		} {
			return NewPassiveAggressive(0)
		}},
		{"arow", func() interface {
			Classifier
			Checkpointer
		} {
			return NewAROW(0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.mk()
			for i := 0; i < 200; i++ {
				src.Train(trainVec(i), trainLabel(i))
			}
			dst := tc.mk()
			roundTrip(t, src, dst)
			// The restored model must score identically on fresh points.
			for i := 500; i < 520; i++ {
				want := src.Scores(trainVec(i))
				got := dst.Scores(trainVec(i))
				if len(want) != len(got) {
					t.Fatalf("label count: %d vs %d", len(want), len(got))
				}
				for j := range want {
					if want[j].Label != got[j].Label || math.Abs(want[j].Score-got[j].Score) > 1e-12 {
						t.Fatalf("point %d: %v vs %v", i, want[j], got[j])
					}
				}
			}
			// And training must continue identically (for AROW this
			// exercises the restored variances).
			for i := 200; i < 260; i++ {
				src.Train(trainVec(i), trainLabel(i))
				dst.Train(trainVec(i), trainLabel(i))
			}
			for i := 600; i < 610; i++ {
				a, _ := src.Classify(trainVec(i))
				b, _ := dst.Classify(trainVec(i))
				if a != b {
					t.Fatalf("post-restore training diverged at %d: %q vs %q", i, a, b)
				}
			}
		})
	}
}

func TestCheckpointRegression(t *testing.T) {
	src := NewPARegressor(0.01, 0)
	for i := 0; i < 300; i++ {
		v := trainVec(i)
		src.Train(v, 2*v["x@num"]-v["y@num"]+0.5)
	}
	dst := NewPARegressor(0.01, 0)
	roundTrip(t, src, dst)
	for i := 500; i < 520; i++ {
		v := trainVec(i)
		if a, b := src.Predict(v), dst.Predict(v); math.Abs(a-b) > 1e-12 {
			t.Fatalf("prediction diverged: %v vs %v", a, b)
		}
	}
}

func TestCheckpointZScore(t *testing.T) {
	src := NewZScoreDetector()
	for i := 0; i < 500; i++ {
		src.Add(trainVec(i))
	}
	dst := NewZScoreDetector()
	roundTrip(t, src, dst)
	probe := feature.Vector{"x@num": 40, "y@num": 0.5, "z@num": 0}
	a, b := src.Score(probe), dst.Score(probe)
	if math.Abs(a-b) > 1e-12 || a == 0 {
		t.Fatalf("zscore diverged after restore: %v vs %v", a, b)
	}
}

func TestCheckpointKNN(t *testing.T) {
	src := NewKNNAnomalyDetector(3, 64)
	for i := 0; i < 200; i++ { // wraps the 64-point ring
		src.Add(trainVec(i))
	}
	dst := NewKNNAnomalyDetector(3, 64)
	roundTrip(t, src, dst)
	if src.Size() != dst.Size() {
		t.Fatalf("size: %d vs %d", src.Size(), dst.Size())
	}
	for i := 500; i < 510; i++ {
		a, b := src.Score(trainVec(i)), dst.Score(trainVec(i))
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("knn score diverged: %v vs %v", a, b)
		}
	}
	// Eviction order must continue correctly after restore.
	for i := 200; i < 230; i++ {
		src.Add(trainVec(i))
		dst.Add(trainVec(i))
	}
	for i := 700; i < 705; i++ {
		a, b := src.Score(trainVec(i)), dst.Score(trainVec(i))
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("knn diverged after post-restore adds: %v vs %v", a, b)
		}
	}
}

// ringValues lists the x of every stored point in ring slice order.
func ringValues(d *KNNAnomalyDetector) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var xs []float64
	for _, p := range d.points {
		xs = append(xs, p.Vals[0])
	}
	return xs
}

// TestCheckpointKNNIntoLargerRing: a wrapped ring restored into a larger
// capacity is laid out oldest-first, so later adds still evict the oldest
// points and the ring ends holding the newest.
func TestCheckpointKNNIntoLargerRing(t *testing.T) {
	src := NewKNNAnomalyDetector(1, 4)
	for i := 0; i < 6; i++ { // holds 2..5 with the cursor at 2
		src.Add(feature.Vector{"x": float64(i)})
	}
	dst := NewKNNAnomalyDetector(1, 8)
	roundTrip(t, src, dst)
	if got, want := fmt.Sprint(ringValues(dst)), "[2 3 4 5]"; got != want {
		t.Fatalf("restored ring = %s, want %s", got, want)
	}
	for i := 6; i < 14; i++ {
		dst.Add(feature.Vector{"x": float64(i)})
	}
	if got, want := fmt.Sprint(ringValues(dst)), "[10 11 12 13 6 7 8 9]"; got != want {
		t.Fatalf("ring after adds = %s, want %s (oldest evicted first)", got, want)
	}
}

func TestCheckpointKMeans(t *testing.T) {
	src := NewSequentialKMeans(3)
	for i := 0; i < 300; i++ {
		src.Add(trainVec(i))
	}
	dst := NewSequentialKMeans(3)
	roundTrip(t, src, dst)
	sc, dc := src.Centroids(), dst.Centroids()
	if len(sc) != len(dc) {
		t.Fatalf("centroid count: %d vs %d", len(sc), len(dc))
	}
	for i := range sc {
		for k, v := range sc[i] {
			if math.Abs(dc[i][k]-v) > 1e-12 {
				t.Fatalf("centroid %d key %s: %v vs %v", i, k, dc[i][k], v)
			}
		}
	}
	wantCounts, gotCounts := src.Counts(), dst.Counts()
	for i := range wantCounts {
		if wantCounts[i] != gotCounts[i] {
			t.Fatalf("counts: %v vs %v", wantCounts, gotCounts)
		}
	}
	// Learning rate (1/count) must continue from the restored counts.
	for i := 300; i < 350; i++ {
		a, b := src.Add(trainVec(i)), dst.Add(trainVec(i))
		if a != b {
			t.Fatalf("assignment diverged at %d: %d vs %d", i, a, b)
		}
	}
}

func TestCheckpointKindMismatch(t *testing.T) {
	clf := NewPerceptron(0)
	clf.Train(trainVec(1), "a")
	clf.Train(trainVec(2), "b")
	blob, err := clf.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSequentialKMeans(2).RestoreState(blob); err == nil {
		t.Fatal("kmeans accepted a classifier checkpoint")
	}
	if err := NewAROW(0).RestoreState(blob); err == nil {
		t.Fatal("arow accepted a plain linear checkpoint")
	}
	if err := NewPassiveAggressive(0).RestoreState(blob); err != nil {
		t.Fatalf("PA must accept a linear checkpoint (shared kind): %v", err)
	}
	if err := NewPerceptron(0).RestoreState([]byte("{broken")); err == nil {
		t.Fatal("corrupt blob accepted")
	}
}

func TestCheckpointEmptyModels(t *testing.T) {
	cks := []Checkpointer{
		NewPerceptron(0), NewPassiveAggressive(0), NewAROW(0),
		NewPARegressor(0.1, 1), NewZScoreDetector(),
		NewKNNAnomalyDetector(3, 16), NewSequentialKMeans(2),
	}
	for i, src := range cks {
		blob, err := src.CheckpointState()
		if err != nil {
			t.Fatalf("model %d: checkpoint empty: %v", i, err)
		}
		if err := src.RestoreState(blob); err != nil {
			t.Fatalf("model %d: restore empty: %v", i, err)
		}
	}
}

func TestCheckpointSurvivesNewProcessSymbols(t *testing.T) {
	// Feature IDs are interned per process. Simulate a "new process" by
	// interning a pile of unrelated names before restore, shifting all
	// IDs — the checkpoint must still restore correctly because it is
	// keyed by name.
	src := NewAROW(0)
	for i := 0; i < 100; i++ {
		src.Train(trainVec(i), trainLabel(i))
	}
	blob, err := src.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		feature.DefaultSymbols().Intern(fmt.Sprintf("unrelated-%d@num", i))
	}
	dst := NewAROW(0)
	if err := dst.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	for i := 500; i < 505; i++ {
		a, _ := src.Classify(trainVec(i))
		b, _ := dst.Classify(trainVec(i))
		if a != b {
			t.Fatalf("restore under shifted symbol table diverged: %q vs %q", a, b)
		}
	}
}
