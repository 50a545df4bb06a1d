package ml

import (
	"errors"

	"github.com/ifot-middleware/ifot/internal/feature"
)

// ErrNothingToMix is returned when Mix receives no models.
var ErrNothingToMix = errors.New("ml: nothing to mix")

// WeightExporter is implemented by linear models that can share their
// weights for Jubatus-style MIX averaging across IFoT neuron modules.
type WeightExporter interface {
	// ExportWeights returns a deep copy of the per-label weight vectors.
	ExportWeights() map[string]feature.Vector
	// ImportWeights replaces the model's weights with a deep copy of w.
	ImportWeights(w map[string]feature.Vector)
}

// ExportWeights implements WeightExporter for Perceptron.
func (p *Perceptron) ExportWeights() map[string]feature.Vector { return p.model.exportWeights() }

// ImportWeights implements WeightExporter for Perceptron.
func (p *Perceptron) ImportWeights(w map[string]feature.Vector) { p.model.importWeights(w) }

// ExportWeights implements WeightExporter for PassiveAggressive.
func (p *PassiveAggressive) ExportWeights() map[string]feature.Vector {
	return p.model.exportWeights()
}

// ImportWeights implements WeightExporter for PassiveAggressive.
func (p *PassiveAggressive) ImportWeights(w map[string]feature.Vector) { p.model.importWeights(w) }

// exportWeights resolves the dense per-label weight slices back to the
// string-keyed interchange form. Zero weights are elided: a feature the
// model has never pushed away from zero is indistinguishable from an unseen
// one, and the wire format stays sparse.
func (m *linearModel) exportWeights() map[string]feature.Vector {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.exportWeightsLocked()
}

func (m *linearModel) exportWeightsLocked() map[string]feature.Vector {
	out := make(map[string]feature.Vector, len(m.labels))
	for li, label := range m.labels {
		vec := make(feature.Vector)
		for id, w := range m.weights[li] {
			if w != 0 {
				vec[m.syms.Name(uint32(id))] = w
			}
		}
		out[label] = vec
	}
	return out
}

func (m *linearModel) importWeights(w map[string]feature.Vector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.importWeightsLocked(w)
}

func (m *linearModel) importWeightsLocked(w map[string]feature.Vector) {
	m.labels = m.labels[:0]
	m.labelIdx = make(map[string]int, len(w))
	m.weights = m.weights[:0]
	if m.trackDeltas {
		// Wholesale replacement invalidates the delta baseline.
		m.acc = m.acc[:0]
		m.dirty = m.dirty[:0]
		m.inDirty = m.inDirty[:0]
	}
	for label, vec := range w {
		li := m.ensureLabelLocked(label)
		var arr []float64
		for k, val := range vec {
			id := m.syms.Intern(k)
			arr = feature.GrowDense(arr, id+1)
			arr[id] = val
		}
		m.weights[li] = arr
	}
}

// AverageWeights computes the element-wise average of several weight
// snapshots over the union of labels and features. This is the MIX
// operation Jubatus performs between distributed learners.
func AverageWeights(snapshots []map[string]feature.Vector) (map[string]feature.Vector, error) {
	if len(snapshots) == 0 {
		return nil, ErrNothingToMix
	}
	n := float64(len(snapshots))
	avg := make(map[string]feature.Vector)
	for _, snap := range snapshots {
		for label, w := range snap {
			dst, ok := avg[label]
			if !ok {
				dst = make(feature.Vector, len(w))
				avg[label] = dst
			}
			dst.AddScaled(w, 1/n)
		}
	}
	return avg, nil
}

// Mix gathers weights from every model, averages them, and pushes the
// average back into each model — one MIX round of distributed training by
// the map-based union average, the reference delta-MIX is tested against.
func Mix(models ...WeightExporter) error {
	snapshots := make([]map[string]feature.Vector, len(models))
	for i, m := range models {
		snapshots[i] = m.ExportWeights()
	}
	avg, err := AverageWeights(snapshots)
	if err != nil {
		return err
	}
	for _, m := range models {
		m.ImportWeights(avg)
	}
	return nil
}
