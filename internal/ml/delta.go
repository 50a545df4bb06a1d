package ml

import (
	"sort"

	"github.com/ifot-middleware/ifot/internal/feature"
)

// MixLabelDelta is one label's sparse weight entries in interned form:
// parallel slices of feature IDs and values. Producers emit IDs in
// ascending order; consumers tolerate any order (IDs decoded from the wire
// re-intern in arrival order).
type MixLabelDelta struct {
	Label string
	IDs   []uint32
	Vals  []float64
}

// Sort orders the entries by ascending feature ID (values follow).
func (ld *MixLabelDelta) Sort() {
	if sort.SliceIsSorted(ld.IDs, func(i, j int) bool { return ld.IDs[i] < ld.IDs[j] }) {
		return
	}
	sort.Sort(labelDeltaByID{ld})
}

type labelDeltaByID struct{ d *MixLabelDelta }

func (s labelDeltaByID) Len() int           { return len(s.d.IDs) }
func (s labelDeltaByID) Less(i, j int) bool { return s.d.IDs[i] < s.d.IDs[j] }
func (s labelDeltaByID) Swap(i, j int) {
	s.d.IDs[i], s.d.IDs[j] = s.d.IDs[j], s.d.IDs[i]
	s.d.Vals[i], s.d.Vals[j] = s.d.Vals[j], s.d.Vals[i]
}

// MixDelta is the sparse interchange form of a MIX payload: either the
// weight entries that changed since the last export (a delta) or a model's
// full nonzero state (a keyframe). Feature identity stays process-local
// (interned IDs), and only the wire codec resolves names. The zero value
// is ready to use, and Reset recycles all backing storage, so one MixDelta
// serves a whole mix loop without allocating in steady state.
type MixDelta struct {
	Labels []MixLabelDelta
}

// Reset empties the delta, keeping every backing slice for reuse.
func (d *MixDelta) Reset() {
	for i := range d.Labels {
		d.Labels[i].Label = ""
		d.Labels[i].IDs = d.Labels[i].IDs[:0]
		d.Labels[i].Vals = d.Labels[i].Vals[:0]
	}
	d.Labels = d.Labels[:0]
}

// Len returns the total number of weight entries across all labels.
func (d *MixDelta) Len() int {
	n := 0
	for i := range d.Labels {
		n += len(d.Labels[i].IDs)
	}
	return n
}

// Grow appends one recycled label slot for label and returns it; the
// returned pointer is valid until the next Grow or Reset.
func (d *MixDelta) Grow(label string) *MixLabelDelta {
	if len(d.Labels) < cap(d.Labels) {
		d.Labels = d.Labels[:len(d.Labels)+1]
	} else {
		d.Labels = append(d.Labels, MixLabelDelta{})
	}
	ld := &d.Labels[len(d.Labels)-1]
	ld.Label = label
	ld.IDs = ld.IDs[:0]
	ld.Vals = ld.Vals[:0]
	return ld
}

// DeltaMixer is implemented by learners that support incremental
// (delta-based) MIX: instead of exporting and averaging full weight maps
// every round, the learner tracks which weights its training updates
// touched and exchanges only those. All mutation methods synchronize under
// the model's own lock, so they are safe against concurrent Train calls.
type DeltaMixer interface {
	WeightExporter

	// EnableDeltaTracking turns on dirty-index tracking. Until called,
	// ExportDeltaInto always drains empty.
	EnableDeltaTracking()
	// ExportDeltaInto fills d with the weight updates accumulated since
	// the previous call and resets the accumulator (drain semantics).
	ExportDeltaInto(d *MixDelta)
	// ExportDenseInto fills d with the model's full nonzero state (a
	// keyframe). It does not disturb the delta accumulator.
	ExportDenseInto(d *MixDelta)
	// ApplyDelta adds scale*d into the weights in place, creating every
	// label d names. Applied deltas are not re-tracked, so a mix round
	// never echoes peer updates back out.
	ApplyDelta(d *MixDelta, scale float64)
}

// --- linearModel implementation (Perceptron, PassiveAggressive) ---

func (m *linearModel) enableDeltaTracking() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.trackDeltas {
		return
	}
	m.trackDeltas = true
	for range m.labels {
		m.acc = append(m.acc, nil)
		m.dirty = append(m.dirty, nil)
		m.inDirty = append(m.inDirty, nil)
	}
}

// addScaledLocked routes every training weight update through one place so
// delta tracking sees exactly what training changed. Mix-side mutation
// (ApplyDelta) bypasses this on purpose: peer updates must not be
// re-exported as our own.
func (m *linearModel) addScaledLocked(li int, dv *feature.DenseVec, scale float64) {
	m.weights[li] = dv.AddScaledTo(m.weights[li], scale)
	if !m.trackDeltas || dv.Len() == 0 {
		return
	}
	m.acc[li] = dv.AddScaledTo(m.acc[li], scale)
	bm := m.inDirty[li]
	if n := int(dv.MaxID()) + 1; len(bm) < n {
		bm = append(bm, make([]bool, n-len(bm))...)
	}
	list := m.dirty[li]
	for _, id := range dv.IDs {
		if !bm[id] {
			bm[id] = true
			list = append(list, id)
		}
	}
	m.inDirty[li] = bm
	m.dirty[li] = list
}

func (m *linearModel) exportDeltaInto(d *MixDelta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d.Reset()
	if !m.trackDeltas {
		return
	}
	for li, label := range m.labels {
		ids := m.dirty[li]
		if len(ids) == 0 {
			continue
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		ld := d.Grow(label)
		acc := m.acc[li]
		for _, id := range ids {
			v := acc[id]
			acc[id] = 0
			m.inDirty[li][id] = false
			if v == 0 {
				continue // updates cancelled out; nothing to ship
			}
			ld.IDs = append(ld.IDs, id)
			ld.Vals = append(ld.Vals, v)
		}
		m.dirty[li] = ids[:0]
		if len(ld.IDs) == 0 {
			d.Labels = d.Labels[:len(d.Labels)-1]
		}
	}
}

func (m *linearModel) exportDenseInto(d *MixDelta) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d.Reset()
	// Labels with no nonzero weights are still emitted (empty), so a
	// keyframe reproduces the full label set on a receiver.
	for li, label := range m.labels {
		ld := d.Grow(label)
		for id, w := range m.weights[li] {
			if w != 0 {
				ld.IDs = append(ld.IDs, uint32(id))
				ld.Vals = append(ld.Vals, w)
			}
		}
	}
}

func (m *linearModel) applyDelta(d *MixDelta, scale float64) {
	if scale == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range d.Labels {
		ld := &d.Labels[i]
		li := m.ensureLabelLocked(ld.Label)
		if len(ld.IDs) == 0 {
			continue
		}
		var max uint32
		for _, id := range ld.IDs {
			if id > max {
				max = id
			}
		}
		w := feature.GrowDense(m.weights[li], max+1)
		for j, id := range ld.IDs {
			w[id] += scale * ld.Vals[j]
		}
		m.weights[li] = w
	}
}

// DeltaMixer forwarding for Perceptron.

// EnableDeltaTracking implements DeltaMixer.
func (p *Perceptron) EnableDeltaTracking() { p.model.enableDeltaTracking() }

// ExportDeltaInto implements DeltaMixer.
func (p *Perceptron) ExportDeltaInto(d *MixDelta) { p.model.exportDeltaInto(d) }

// ExportDenseInto implements DeltaMixer.
func (p *Perceptron) ExportDenseInto(d *MixDelta) { p.model.exportDenseInto(d) }

// ApplyDelta implements DeltaMixer.
func (p *Perceptron) ApplyDelta(d *MixDelta, scale float64) { p.model.applyDelta(d, scale) }

var _ DeltaMixer = (*Perceptron)(nil)

// DeltaMixer forwarding for PassiveAggressive.

// EnableDeltaTracking implements DeltaMixer.
func (p *PassiveAggressive) EnableDeltaTracking() { p.model.enableDeltaTracking() }

// ExportDeltaInto implements DeltaMixer.
func (p *PassiveAggressive) ExportDeltaInto(d *MixDelta) { p.model.exportDeltaInto(d) }

// ExportDenseInto implements DeltaMixer.
func (p *PassiveAggressive) ExportDenseInto(d *MixDelta) { p.model.exportDenseInto(d) }

// ApplyDelta implements DeltaMixer.
func (p *PassiveAggressive) ApplyDelta(d *MixDelta, scale float64) { p.model.applyDelta(d, scale) }

var _ DeltaMixer = (*PassiveAggressive)(nil)
