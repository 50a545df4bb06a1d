package ml

import (
	"encoding/json"
	"fmt"

	"github.com/ifot-middleware/ifot/internal/feature"
)

// Model checkpointing. Every learner in this package can serialize its
// full state to a JSON blob and restore from one, so neuron modules can
// checkpoint trained models to the durable store and resume after a crash
// with at most one checkpoint interval of training lost — instead of
// rejoining MIX from zero.
//
// The interchange builds on the same name-keyed sparse form the MIX
// protocol uses (ExportWeights/ImportWeights): feature IDs are interned
// per process, so blobs must never carry raw IDs — they would be garbage
// in the next process. Everything is keyed by feature name.

// Checkpointer is implemented by learners whose full state can be
// checkpointed and restored. RestoreState is meant to run before the
// learner starts serving traffic (e.g. at module start); it fails loudly
// on a blob written by a different learner kind.
type Checkpointer interface {
	// CheckpointState serializes the learner's full state.
	CheckpointState() ([]byte, error)
	// RestoreState replaces the learner's state with a previously
	// checkpointed blob.
	RestoreState(data []byte) error
}

// checkpoint kinds.
const (
	ckLinear     = "linear" // Perceptron and PassiveAggressive (weights only)
	ckAROW       = "arow"
	ckRegression = "regression"
	ckZScore     = "zscore"
	ckKNN        = "knn"
	ckKMeans     = "kmeans"
)

// checkpointBlob is the union JSON form of every learner checkpoint.
type checkpointBlob struct {
	Kind      string                    `json:"kind"`
	Weights   map[string]feature.Vector `json:"weights,omitempty"`   // linear, arow, regression
	Variances map[string]feature.Vector `json:"variances,omitempty"` // arow (entries != 1)
	Dims      map[string]WelfordState   `json:"dims,omitempty"`      // zscore
	Points    []feature.Vector          `json:"points,omitempty"`    // knn ring, slice order
	Next      int                       `json:"next,omitempty"`      // knn ring cursor
	Centroids []feature.Vector          `json:"centroids,omitempty"` // kmeans
	Counts    []int64                   `json:"counts,omitempty"`    // kmeans
}

func marshalCheckpoint(blob checkpointBlob) ([]byte, error) { return json.Marshal(blob) }

func unmarshalCheckpoint(data []byte, wantKind string) (checkpointBlob, error) {
	var blob checkpointBlob
	if err := json.Unmarshal(data, &blob); err != nil {
		return blob, fmt.Errorf("ml: decode checkpoint: %w", err)
	}
	if blob.Kind != wantKind {
		return blob, fmt.Errorf("ml: checkpoint kind %q, want %q", blob.Kind, wantKind)
	}
	return blob, nil
}

// --- Perceptron / PassiveAggressive ---

// CheckpointState implements Checkpointer.
func (p *Perceptron) CheckpointState() ([]byte, error) {
	return marshalCheckpoint(checkpointBlob{Kind: ckLinear, Weights: p.model.exportWeights()})
}

// RestoreState implements Checkpointer.
func (p *Perceptron) RestoreState(data []byte) error {
	blob, err := unmarshalCheckpoint(data, ckLinear)
	if err != nil {
		return err
	}
	p.model.importWeights(blob.Weights)
	return nil
}

// CheckpointState implements Checkpointer.
func (p *PassiveAggressive) CheckpointState() ([]byte, error) {
	return marshalCheckpoint(checkpointBlob{Kind: ckLinear, Weights: p.model.exportWeights()})
}

// RestoreState implements Checkpointer.
func (p *PassiveAggressive) RestoreState(data []byte) error {
	blob, err := unmarshalCheckpoint(data, ckLinear)
	if err != nil {
		return err
	}
	p.model.importWeights(blob.Weights)
	return nil
}

// --- AROW ---

// CheckpointState implements Checkpointer. Besides the weights, AROW
// checkpoints its per-feature confidence (diagonal covariance); entries at
// the prior value 1 are elided, mirroring the sparse weight form.
func (a *AROW) CheckpointState() ([]byte, error) {
	m := &a.model
	m.mu.RLock()
	defer m.mu.RUnlock()
	blob := checkpointBlob{Kind: ckAROW, Weights: m.exportWeightsLocked()}
	blob.Variances = make(map[string]feature.Vector, len(a.variances))
	for li, vs := range a.variances {
		if li >= len(m.labels) {
			break
		}
		vec := make(feature.Vector)
		for id, v := range vs {
			if v != 1 {
				vec[m.syms.Name(uint32(id))] = v
			}
		}
		if len(vec) > 0 {
			blob.Variances[m.labels[li]] = vec
		}
	}
	return marshalCheckpoint(blob)
}

// RestoreState implements Checkpointer.
func (a *AROW) RestoreState(data []byte) error {
	blob, err := unmarshalCheckpoint(data, ckAROW)
	if err != nil {
		return err
	}
	m := &a.model
	m.mu.Lock()
	defer m.mu.Unlock()
	m.importWeightsLocked(blob.Weights)
	a.variances = make([][]float64, len(m.labels))
	for label, vec := range blob.Variances {
		li, ok := m.labelIdx[label]
		if !ok {
			continue // variance for a label with no weights: drop
		}
		var arr []float64
		for name, v := range vec {
			id := m.syms.Intern(name)
			arr = growOnes(arr, id+1)
			arr[id] = v
		}
		a.variances[li] = arr
	}
	return nil
}

// --- PARegressor ---

// CheckpointState implements Checkpointer (weights + bias via the MIX
// interchange form).
func (r *PARegressor) CheckpointState() ([]byte, error) {
	return marshalCheckpoint(checkpointBlob{Kind: ckRegression, Weights: r.ExportWeights()})
}

// RestoreState implements Checkpointer.
func (r *PARegressor) RestoreState(data []byte) error {
	blob, err := unmarshalCheckpoint(data, ckRegression)
	if err != nil {
		return err
	}
	r.ImportWeights(blob.Weights)
	return nil
}

// --- ZScoreDetector ---

// CheckpointState implements Checkpointer: the per-dimension streaming
// statistics, keyed by feature name.
func (z *ZScoreDetector) CheckpointState() ([]byte, error) {
	z.mu.Lock()
	defer z.mu.Unlock()
	blob := checkpointBlob{Kind: ckZScore, Dims: make(map[string]WelfordState, len(z.dims))}
	for id, w := range z.dims {
		if w == nil {
			continue
		}
		blob.Dims[z.syms.Name(uint32(id))] = w.State()
	}
	return marshalCheckpoint(blob)
}

// RestoreState implements Checkpointer.
func (z *ZScoreDetector) RestoreState(data []byte) error {
	blob, err := unmarshalCheckpoint(data, ckZScore)
	if err != nil {
		return err
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.dims = nil
	for name, st := range blob.Dims {
		id := z.syms.Intern(name)
		for int(id) >= len(z.dims) {
			z.dims = append(z.dims, nil)
		}
		w := &Welford{}
		w.SetState(st)
		z.dims[id] = w
	}
	return nil
}

// --- KNNAnomalyDetector ---

// CheckpointState implements Checkpointer: the reference-point ring in
// slice order plus the eviction cursor, so a same-capacity restore is an
// exact state clone (the score's reference-scale sampling walks the slice
// by index, so layout matters, not just the point set).
func (d *KNNAnomalyDetector) CheckpointState() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	blob := checkpointBlob{Kind: ckKNN, Next: d.next}
	for _, p := range d.points {
		vec := make(feature.Vector, p.Len())
		for i, id := range p.IDs {
			vec[d.syms.Name(id)] = p.Vals[i]
		}
		blob.Points = append(blob.Points, vec)
	}
	return marshalCheckpoint(blob)
}

// RestoreState implements Checkpointer. The neighbourhood size and
// capacity stay as constructed (they come from the recipe, not the
// checkpoint). A same-capacity restore keeps the ring layout verbatim.
// Otherwise the points are rotated oldest-first with the cursor at 0, so
// eviction stays oldest-first: a larger ring appends until full, and a
// smaller one keeps the newest `capacity`.
func (d *KNNAnomalyDetector) RestoreState(data []byte) error {
	blob, err := unmarshalCheckpoint(data, ckKNN)
	if err != nil {
		return err
	}
	pts := blob.Points
	next := blob.Next
	if next < 0 || next >= len(pts) {
		next = 0
	}
	if len(pts) != d.capacity {
		// points[next:] precede points[:next] once the ring has wrapped.
		ordered := make([]feature.Vector, 0, len(pts))
		ordered = append(ordered, pts[next:]...)
		ordered = append(ordered, pts[:next]...)
		pts = ordered[max(len(ordered)-d.capacity, 0):]
		next = 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.points = d.points[:0]
	d.next = next
	for _, vec := range pts {
		dv := &feature.DenseVec{}
		dv.AppendVector(d.syms, vec)
		dv.SortByID()
		d.points = append(d.points, dv)
	}
	return nil
}

// --- SequentialKMeans ---

// CheckpointState implements Checkpointer: centroids (name-keyed, zeros
// elided) and per-cluster counts, which carry the decaying learning rate.
func (s *SequentialKMeans) CheckpointState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob := checkpointBlob{Kind: ckKMeans, Counts: append([]int64(nil), s.counts...)}
	for _, c := range s.centroids {
		vec := make(feature.Vector)
		for id, val := range c {
			if val != 0 {
				vec[s.syms.Name(uint32(id))] = val
			}
		}
		blob.Centroids = append(blob.Centroids, vec)
	}
	return marshalCheckpoint(blob)
}

// RestoreState implements Checkpointer. k stays as constructed; extra
// centroids are dropped.
func (s *SequentialKMeans) RestoreState(data []byte) error {
	blob, err := unmarshalCheckpoint(data, ckKMeans)
	if err != nil {
		return err
	}
	if len(blob.Centroids) > s.k {
		blob.Centroids = blob.Centroids[:s.k]
		blob.Counts = blob.Counts[:s.k]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.centroids = s.centroids[:0]
	s.counts = s.counts[:0]
	for i, vec := range blob.Centroids {
		var arr []float64
		for name, val := range vec {
			id := s.syms.Intern(name)
			arr = feature.GrowDense(arr, id+1)
			arr[id] = val
		}
		s.centroids = append(s.centroids, arr)
		var n int64 = 1
		if i < len(blob.Counts) {
			n = blob.Counts[i]
		}
		s.counts = append(s.counts, n)
	}
	return nil
}

var (
	_ Checkpointer = (*Perceptron)(nil)
	_ Checkpointer = (*PassiveAggressive)(nil)
	_ Checkpointer = (*AROW)(nil)
	_ Checkpointer = (*PARegressor)(nil)
	_ Checkpointer = (*ZScoreDetector)(nil)
	_ Checkpointer = (*KNNAnomalyDetector)(nil)
	_ Checkpointer = (*SequentialKMeans)(nil)
)
