package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ifot-middleware/ifot/internal/feature"
)

func TestPARegressorLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewPARegressor(0.01, 1)
	// Target: y = 3x1 - 2x2 + 1.
	for i := 0; i < 2000; i++ {
		x1, x2 := rng.Float64()*2-1, rng.Float64()*2-1
		v := feature.Vector{"x1": x1, "x2": x2}
		r.Train(v, 3*x1-2*x2+1)
	}
	var worst float64
	for i := 0; i < 100; i++ {
		x1, x2 := rng.Float64()*2-1, rng.Float64()*2-1
		got := r.Predict(feature.Vector{"x1": x1, "x2": x2})
		want := 3*x1 - 2*x2 + 1
		if e := math.Abs(got - want); e > worst {
			worst = e
		}
	}
	if worst > 0.25 {
		t.Fatalf("worst prediction error = %.3f, want <= 0.25", worst)
	}
}

func TestPARegressorEpsilonBandNoUpdate(t *testing.T) {
	r := NewPARegressor(10, 1) // huge epsilon: no loss ever
	v := feature.Vector{"x": 1}
	r.Train(v, 5)
	if got := r.Predict(v); got != 0 {
		t.Fatalf("Predict = %v, want untouched 0", got)
	}
}

func TestPARegressorUntrainedPredictsZero(t *testing.T) {
	r := NewPARegressor(0.1, 1)
	if got := r.Predict(feature.Vector{"x": 1}); got != 0 {
		t.Fatalf("Predict = %v, want 0", got)
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := w.Variance(); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := w.Stddev(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Stddev = %v, want 2", got)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d, want 8", w.Count())
	}
}

func TestWelfordZScore(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if got := w.ZScore(9); math.Abs(got-2) > 1e-12 {
		t.Fatalf("ZScore(9) = %v, want 2", got)
	}
}

func TestWelfordFewSamples(t *testing.T) {
	var w Welford
	if w.ZScore(3) != 0 || w.Variance() != 0 {
		t.Fatal("empty Welford must report zeros")
	}
	w.Observe(5)
	if w.ZScore(100) != 0 {
		t.Fatal("single-sample Welford must report z=0")
	}
}

// Property: Welford matches the two-pass mean for any input.
func TestWelfordMatchesTwoPassMean(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range raw {
			w.Observe(float64(x))
			sum += float64(x)
		}
		want := sum / float64(len(raw))
		return math.Abs(w.Mean()-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZScoreDetectorFlagsOutlier(t *testing.T) {
	d := NewZScoreDetector()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		d.Add(feature.Vector{"t": 20 + rng.NormFloat64()})
	}
	normal := d.Score(feature.Vector{"t": 20.5})
	outlier := d.Score(feature.Vector{"t": 45})
	if normal > 3 {
		t.Fatalf("normal score = %v, want small", normal)
	}
	if outlier < 10 {
		t.Fatalf("outlier score = %v, want large", outlier)
	}
}

func TestZScoreDetectorUnknownDims(t *testing.T) {
	d := NewZScoreDetector()
	if got := d.Score(feature.Vector{"never-seen": 1}); got != 0 {
		t.Fatalf("Score on unseen dim = %v, want 0", got)
	}
}

func TestKNNAnomalyDetectorFlagsOutlier(t *testing.T) {
	d := NewKNNAnomalyDetector(5, 128)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 128; i++ {
		d.Add(feature.Vector{
			"x": rng.NormFloat64() * 0.5,
			"y": rng.NormFloat64() * 0.5,
		})
	}
	normal := d.Score(feature.Vector{"x": 0.1, "y": -0.2})
	outlier := d.Score(feature.Vector{"x": 30, "y": 30})
	if normal > 3 {
		t.Fatalf("normal score = %v, want around 1", normal)
	}
	if outlier < 10 {
		t.Fatalf("outlier score = %v, want large", outlier)
	}
}

// A stuck stream that then moves scores above any threshold, and finitely:
// a decision must be able to carry the score in JSON.
func TestKNNAnomalyDetectorStuckStreamScoresFinite(t *testing.T) {
	d := NewKNNAnomalyDetector(5, 64)
	for i := 0; i < 20; i++ {
		if s := d.Add(feature.Vector{"x": 1, "y": 2}); s > 1 {
			t.Fatalf("identical point %d scored %v, want at most 1", i, s)
		}
	}
	s := d.Add(feature.Vector{"x": 1.5, "y": 2})
	if math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("step after a stuck stream scored %v, want finite", s)
	}
	if s != math.MaxFloat64 {
		t.Fatalf("step after a stuck stream scored %v, want the saturated %v", s, math.MaxFloat64)
	}
}

func TestKNNAnomalyDetectorColdStart(t *testing.T) {
	d := NewKNNAnomalyDetector(5, 64)
	for i := 0; i < 5; i++ {
		if s := d.Add(feature.Vector{"x": float64(i)}); s != 0 {
			t.Fatalf("cold-start score = %v, want 0", s)
		}
	}
}

func TestKNNAnomalyDetectorBoundedCapacity(t *testing.T) {
	d := NewKNNAnomalyDetector(3, 16)
	for i := 0; i < 100; i++ {
		d.Add(feature.Vector{"x": float64(i)})
	}
	if got := d.Size(); got != 16 {
		t.Fatalf("Size = %d, want capacity 16", got)
	}
}

func TestSequentialKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	km := NewSequentialKMeans(2)
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			km.Add(feature.Vector{"x": 5 + rng.NormFloat64()*0.3})
		} else {
			km.Add(feature.Vector{"x": -5 + rng.NormFloat64()*0.3})
		}
	}
	a := km.Assign(feature.Vector{"x": 5})
	b := km.Assign(feature.Vector{"x": -5})
	if a == b {
		t.Fatalf("both blobs assigned to cluster %d", a)
	}
	cents := km.Centroids()
	if len(cents) != 2 {
		t.Fatalf("centroids = %d, want 2", len(cents))
	}
	for _, c := range cents {
		if math.Abs(math.Abs(c["x"])-5) > 1 {
			t.Fatalf("centroid %v far from ±5", c)
		}
	}
}

func TestSequentialKMeansAssignEmpty(t *testing.T) {
	km := NewSequentialKMeans(3)
	if got := km.Assign(feature.Vector{"x": 1}); got != -1 {
		t.Fatalf("Assign on empty model = %d, want -1", got)
	}
}

func TestSequentialKMeansCounts(t *testing.T) {
	km := NewSequentialKMeans(2)
	km.Add(feature.Vector{"x": 1})
	km.Add(feature.Vector{"x": -1})
	km.Add(feature.Vector{"x": 1.1})
	counts := km.Counts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("counts %v sum to %d, want 3", counts, total)
	}
}

func TestMixConvergesModels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewPassiveAggressive(1)
	b := NewPassiveAggressive(1)
	// a sees only half the space, b the other half.
	for i := 0; i < 100; i++ {
		a.Train(feature.Vector{"x": 2 + rng.NormFloat64()*0.2}, "pos")
		a.Train(feature.Vector{"x": -2 + rng.NormFloat64()*0.2}, "neg")
		b.Train(feature.Vector{"y": 2 + rng.NormFloat64()*0.2}, "pos")
		b.Train(feature.Vector{"y": -2 + rng.NormFloat64()*0.2}, "neg")
	}
	if err := Mix(a, b); err != nil {
		t.Fatal(err)
	}
	// After MIX both models know both feature axes.
	for _, c := range []*PassiveAggressive{a, b} {
		if got, _ := c.Classify(feature.Vector{"x": 2}); got != "pos" {
			t.Errorf("post-mix classify x=2 -> %q, want pos", got)
		}
		if got, _ := c.Classify(feature.Vector{"y": -2}); got != "neg" {
			t.Errorf("post-mix classify y=-2 -> %q, want neg", got)
		}
	}
	// Models are identical after MIX.
	wa, wb := a.ExportWeights(), b.ExportWeights()
	for label, w := range wa {
		for k, v := range w {
			if math.Abs(v-wb[label][k]) > 1e-12 {
				t.Fatalf("weights differ after mix: %s/%s %v vs %v", label, k, v, wb[label][k])
			}
		}
	}
}

func TestMixEmpty(t *testing.T) {
	if err := Mix(); err != ErrNothingToMix {
		t.Fatalf("Mix() = %v, want ErrNothingToMix", err)
	}
	if _, err := AverageWeights(nil); err != ErrNothingToMix {
		t.Fatalf("AverageWeights(nil) = %v, want ErrNothingToMix", err)
	}
}

func TestAverageWeightsKnownValues(t *testing.T) {
	avg, err := AverageWeights([]map[string]feature.Vector{
		{"a": {"x": 2}},
		{"a": {"x": 4, "y": 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg["a"]["x"]-3) > 1e-12 || math.Abs(avg["a"]["y"]-1) > 1e-12 {
		t.Fatalf("avg = %v", avg)
	}
}

func TestExportImportWeightsDeepCopy(t *testing.T) {
	c := NewPassiveAggressive(1)
	c.Train(feature.Vector{"x": 1}, "a")
	c.Train(feature.Vector{"x": -1}, "b")
	snap := c.ExportWeights()
	snap["a"]["x"] = 999
	fresh := c.ExportWeights()
	if fresh["a"]["x"] == 999 {
		t.Fatal("ExportWeights leaked internal storage")
	}
}

func TestPARegressorExportImport(t *testing.T) {
	a := NewPARegressor(0.01, 1)
	for i := 0; i < 500; i++ {
		x := float64(i%10) / 10
		a.Train(feature.Vector{"x": x}, 3*x+1)
	}
	b := NewPARegressor(0.01, 1)
	b.ImportWeights(a.ExportWeights())
	for _, x := range []float64{0.1, 0.5, 0.9} {
		ga := a.Predict(feature.Vector{"x": x})
		gb := b.Predict(feature.Vector{"x": x})
		if math.Abs(ga-gb) > 1e-9 {
			t.Fatalf("import mismatch at x=%v: %v vs %v", x, ga, gb)
		}
	}
	// Bias must survive the round trip (not be treated as a feature).
	if got := b.Predict(feature.Vector{}); math.Abs(got-a.Predict(feature.Vector{})) > 1e-9 {
		t.Fatalf("bias lost: %v", got)
	}
}

func TestPARegressorImportIgnoresForeignSnapshot(t *testing.T) {
	r := NewPARegressor(0.01, 1)
	r.Train(feature.Vector{"x": 1}, 5)
	before := r.Predict(feature.Vector{"x": 1})
	r.ImportWeights(map[string]feature.Vector{"classifier-label": {"x": 99}})
	if got := r.Predict(feature.Vector{"x": 1}); got != before {
		t.Fatalf("foreign snapshot mutated the model: %v -> %v", before, got)
	}
}

func TestPARegressorMixAverages(t *testing.T) {
	a, b := NewPARegressor(0.01, 1), NewPARegressor(0.01, 1)
	for i := 0; i < 300; i++ {
		x := float64(i%10) / 10
		a.Train(feature.Vector{"x": x}, 2*x)
		b.Train(feature.Vector{"x": x}, 4*x)
	}
	if err := Mix(a, b); err != nil {
		t.Fatal(err)
	}
	// After averaging, both predict the mean function ~3x.
	got := a.Predict(feature.Vector{"x": 1})
	if math.Abs(got-3) > 0.5 {
		t.Fatalf("mixed prediction at x=1 = %v, want ~3", got)
	}
	if gb := b.Predict(feature.Vector{"x": 1}); math.Abs(gb-got) > 1e-9 {
		t.Fatalf("models differ after mix: %v vs %v", got, gb)
	}
}
