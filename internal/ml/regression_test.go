package ml

import (
	"math"
	"slices"
	"testing"

	"github.com/ifot-middleware/ifot/internal/feature"
)

// trainedRegressor returns a regressor fitted a little to y = 2x + 0.5.
func trainedRegressor(track bool) *PARegressor {
	r := NewPARegressor(0.01, 1)
	if track {
		r.EnableDeltaTracking()
	}
	for i := 0; i < 50; i++ {
		x := float64(i%10) / 10
		r.Train(feature.Vector{"x@num": x}, 2*x+0.5)
	}
	return r
}

// TestPARegressorCheckpointFormat pins the checkpoint blob the pre-
// linearModel regressor wrote: weights under the "regression" label, the
// intercept as the "__bias__" entry.
func TestPARegressorCheckpointFormat(t *testing.T) {
	const parentBlob = `{"kind":"regression","weights":{"regression":{"__bias__":0.5,"x@num":2}}}`
	r := NewPARegressor(0.01, 1)
	if err := r.RestoreState([]byte(parentBlob)); err != nil {
		t.Fatal(err)
	}
	if got := r.Predict(feature.Vector{"x@num": 3}); got != 6.5 {
		t.Fatalf("Predict after restoring the parent-format blob = %v, want 6.5", got)
	}
	blob, err := r.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != parentBlob {
		t.Fatalf("CheckpointState = %s\nwant %s", blob, parentBlob)
	}

	src := trainedRegressor(false)
	blob, err = src.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewPARegressor(0.01, 1)
	if err := dst.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 0.3, 1} {
		v := feature.Vector{"x@num": x}
		if a, b := src.Predict(v), dst.Predict(v); a != b {
			t.Fatalf("x=%v: restored model predicts %v, source %v", x, b, a)
		}
	}
}

func TestPARegressorDeltaShape(t *testing.T) {
	r := trainedRegressor(true)
	var d MixDelta
	r.ExportDeltaInto(&d)
	if len(d.Labels) != 1 || d.Labels[0].Label != "regression" {
		t.Fatalf("delta labels = %+v, want exactly [regression]", d.Labels)
	}
	ids := d.Labels[0].IDs
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("delta IDs not strictly ascending: %v", ids)
		}
	}
	bias := feature.DefaultSymbols().Intern("__bias__")
	if !slices.Contains(ids, bias) {
		t.Fatalf("delta IDs %v lack the bias pseudo-feature %d", ids, bias)
	}
	r.ExportDeltaInto(&d)
	if d.Len() != 0 || len(d.Labels) != 0 {
		t.Fatalf("second export not empty: %+v", d.Labels)
	}
}

// TestPARegressorIgnoresForeignLabels: a MIX payload that also carries a
// classifier label must change nothing but the "regression" weights, and
// the foreign label must not come back out in a keyframe.
func TestPARegressorIgnoresForeignLabels(t *testing.T) {
	syms := feature.DefaultSymbols()
	x, bias := syms.Intern("x@num"), syms.Intern("__bias__")
	// payload is a classifier label's entries, optionally followed by the
	// regressor's own {x: 1, bias: 0.25}.
	payload := func(withOwn bool) *MixDelta {
		var d MixDelta
		ld := d.Grow("pos")
		ld.IDs, ld.Vals = append(ld.IDs, x), append(ld.Vals, 99)
		if withOwn {
			ld = d.Grow("regression")
			ld.IDs, ld.Vals = append(ld.IDs, x, bias), append(ld.Vals, 1, 0.25)
		}
		return &d
	}
	probe := feature.Vector{"x@num": 2}
	cases := []struct {
		name  string
		apply func(r *PARegressor, d *MixDelta)
		want  func(before float64) float64 // prediction at probe after the mixed payload
	}{
		{"ApplyDelta", func(r *PARegressor, d *MixDelta) { r.ApplyDelta(d, 0.5) },
			func(b float64) float64 { return b + 0.5*(2*1+0.25) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := trainedRegressor(true)
			before := r.Predict(probe)
			tc.apply(r, payload(true))
			if got, want := r.Predict(probe), tc.want(before); math.Abs(got-want) > 1e-12 {
				t.Fatalf("prediction after mixed payload = %v, want %v", got, want)
			}
			var key MixDelta
			r.ExportDenseInto(&key)
			if len(key.Labels) != 1 || key.Labels[0].Label != "regression" {
				t.Fatalf("keyframe labels = %+v, want exactly [regression]", key.Labels)
			}
			if w := r.ExportWeights(); len(w) != 1 {
				t.Fatalf("ExportWeights grew foreign labels: %v", w)
			}
		})
	}
	// A delta with no regression entries at all is a no-op for ApplyDelta.
	r := trainedRegressor(true)
	before := r.Predict(probe)
	r.ApplyDelta(payload(false), 1)
	if got := r.Predict(probe); got != before {
		t.Fatalf("foreign-only delta moved the prediction: %v -> %v", before, got)
	}
}

func TestPARegressorDenseAllocs(t *testing.T) {
	r := trainedRegressor(true)
	dv := &feature.DenseVec{}
	dv.Append(feature.DefaultSymbols().Intern("x@num"), 0.7)
	target := 0.0
	if n := testing.AllocsPerRun(200, func() {
		target++ // keep the loss above epsilon so every run updates
		r.TrainDense(dv, target)
	}); n != 0 {
		t.Errorf("TrainDense allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { r.PredictDense(dv) }); n != 0 {
		t.Errorf("PredictDense allocs/op = %v, want 0", n)
	}
}
