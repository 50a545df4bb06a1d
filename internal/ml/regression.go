package ml

import (
	"math"

	"github.com/ifot-middleware/ifot/internal/feature"
)

// Regressor is an online regression learner.
type Regressor interface {
	// Train updates the model with one (features, target) pair.
	Train(v feature.Vector, target float64)
	// Predict estimates the target for v.
	Predict(v feature.Vector) float64
}

// regressionLabel is the single pseudo-label a regressor's weights live,
// travel (MIX) and checkpoint under.
const regressionLabel = "regression"

// biasKey names the intercept's pseudo-feature; it cannot collide with
// real features, which always carry an "@" rule suffix.
const biasKey = "__bias__"

// PARegressor implements Passive-Aggressive regression (PA-I with an
// epsilon-insensitive loss), matching Jubatus's regression engine. It is a
// one-label linearModel: the weights sit under regressionLabel and the
// intercept is the weight of the interned biasKey pseudo-feature — the
// form it has on the MIX wire and in checkpoints — so delta tracking, MIX
// and weight exchange are the classifiers' code, not a copy of it.
type PARegressor struct {
	model   linearModel
	bias    feature.DenseVec // the constant input {biasKey: 1}
	epsilon float64
	c       float64
}

var _ Regressor = (*PARegressor)(nil)

// NewPARegressor returns a PA regressor. epsilon is the insensitive band
// (<0 means 0.1); c caps the update step (<=0 means 1).
func NewPARegressor(epsilon, c float64) *PARegressor {
	if epsilon < 0 {
		epsilon = 0.1
	}
	if c <= 0 {
		c = 1
	}
	r := &PARegressor{model: newLinearModel(), epsilon: epsilon, c: c}
	r.bias.Append(r.model.syms.Intern(biasKey), 1)
	r.model.ensureLabelLocked(regressionLabel) // an untrained model still exports its label
	return r
}

// Train implements Regressor.
func (r *PARegressor) Train(v feature.Vector, target float64) {
	dv := r.model.toDense(v)
	r.TrainDense(dv, target)
	feature.PutDense(dv)
}

// TrainDense is Train on an interned vector; dv is not retained.
func (r *PARegressor) TrainDense(dv *feature.DenseVec, target float64) {
	m := &r.model
	m.mu.Lock()
	defer m.mu.Unlock()
	li := m.ensureLabelLocked(regressionLabel)
	err := target - (dv.Dot(m.weights[li]) + r.bias.Dot(m.weights[li]))
	loss := math.Abs(err) - r.epsilon
	if loss <= 0 {
		return
	}
	tau := loss / (dv.SquaredNorm() + 1) // +1 for the bias term
	if tau > r.c {
		tau = r.c
	}
	if err < 0 {
		tau = -tau
	}
	m.addScaledLocked(li, dv, tau)
	m.addScaledLocked(li, &r.bias, tau)
}

// Predict implements Regressor.
func (r *PARegressor) Predict(v feature.Vector) float64 {
	dv := r.model.toDense(v)
	defer feature.PutDense(dv)
	return r.PredictDense(dv)
}

// PredictDense is Predict on an interned vector; dv is not retained. An
// untrained model predicts 0.
func (r *PARegressor) PredictDense(dv *feature.DenseVec) float64 {
	m := &r.model
	m.mu.RLock()
	defer m.mu.RUnlock()
	li, ok := m.labelIdx[regressionLabel]
	if !ok {
		return 0
	}
	return dv.Dot(m.weights[li]) + r.bias.Dot(m.weights[li])
}

// ExportWeights implements WeightExporter: one label ("regression") whose
// vector carries the weights plus the bias term under biasKey.
func (r *PARegressor) ExportWeights() map[string]feature.Vector { return r.model.exportWeights() }

// ImportWeights implements WeightExporter. A snapshot without the
// "regression" label is foreign (a classifier's) and changes nothing.
func (r *PARegressor) ImportWeights(w map[string]feature.Vector) {
	if snap, ok := w[regressionLabel]; ok {
		r.model.importWeights(map[string]feature.Vector{regressionLabel: snap})
	}
}

var _ WeightExporter = (*PARegressor)(nil)

// ownLabel narrows a MIX payload to the "regression" label. Everything
// else is classifier traffic: forwarded as is, linearModel would grow those
// labels and a later keyframe would re-export them as the regressor's own.
func ownLabel(d *MixDelta) MixDelta {
	for i := range d.Labels {
		if d.Labels[i].Label == regressionLabel {
			return MixDelta{Labels: d.Labels[i : i+1 : i+1]}
		}
	}
	return MixDelta{}
}

// EnableDeltaTracking implements DeltaMixer.
func (r *PARegressor) EnableDeltaTracking() { r.model.enableDeltaTracking() }

// ExportDeltaInto implements DeltaMixer.
func (r *PARegressor) ExportDeltaInto(d *MixDelta) { r.model.exportDeltaInto(d) }

// ExportDenseInto implements DeltaMixer.
func (r *PARegressor) ExportDenseInto(d *MixDelta) { r.model.exportDenseInto(d) }

// ApplyDelta implements DeltaMixer.
func (r *PARegressor) ApplyDelta(d *MixDelta, scale float64) {
	own := ownLabel(d)
	r.model.applyDelta(&own, scale)
}

var _ DeltaMixer = (*PARegressor)(nil)
