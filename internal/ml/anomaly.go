package ml

import (
	"math"
	"sort"
	"sync"

	"github.com/ifot-middleware/ifot/internal/feature"
)

// AnomalyDetector scores how anomalous a point is relative to the stream
// seen so far (higher = more anomalous) and optionally absorbs it into the
// model.
type AnomalyDetector interface {
	// Score returns the anomaly score of v without updating the model.
	Score(v feature.Vector) float64
	// Add incorporates v into the model and returns its score at the
	// time of insertion.
	Add(v feature.Vector) float64
}

// ZScoreDetector scores points by the largest per-dimension |z| against
// streaming statistics. Cheap and effective for unimodal sensor streams.
// Dimensions are tracked in a dense slice indexed by interned feature ID.
type ZScoreDetector struct {
	mu   sync.Mutex
	syms *feature.Symbols
	dims []*Welford // indexed by feature ID; nil = dimension unseen
}

var _ DenseAnomalyDetector = (*ZScoreDetector)(nil)

// NewZScoreDetector returns an empty detector.
func NewZScoreDetector() *ZScoreDetector {
	return &ZScoreDetector{syms: feature.DefaultSymbols()}
}

// Score implements AnomalyDetector.
func (z *ZScoreDetector) Score(v feature.Vector) float64 {
	dv := feature.GetDense()
	dv.AppendVector(z.syms, v)
	z.mu.Lock()
	score := z.scoreLocked(dv)
	z.mu.Unlock()
	feature.PutDense(dv)
	return score
}

func (z *ZScoreDetector) scoreLocked(dv *feature.DenseVec) float64 {
	var worst float64
	for i, id := range dv.IDs {
		if int(id) >= len(z.dims) || z.dims[id] == nil {
			continue
		}
		if s := math.Abs(z.dims[id].ZScore(dv.Vals[i])); s > worst {
			worst = s
		}
	}
	return worst
}

// Add implements AnomalyDetector.
func (z *ZScoreDetector) Add(v feature.Vector) float64 {
	dv := feature.GetDense()
	dv.AppendVector(z.syms, v)
	score := z.AddDense(dv)
	feature.PutDense(dv)
	return score
}

// AddDense implements DenseAnomalyDetector. dv is not retained.
func (z *ZScoreDetector) AddDense(dv *feature.DenseVec) float64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	score := z.scoreLocked(dv)
	for i, id := range dv.IDs {
		for int(id) >= len(z.dims) {
			z.dims = append(z.dims, nil)
		}
		w := z.dims[id]
		if w == nil {
			w = &Welford{}
			z.dims[id] = w
		}
		w.Observe(dv.Vals[i])
	}
	return score
}

// KNNAnomalyDetector scores a point by the ratio of its distance to its
// k-th nearest stored neighbour over the model's typical k-th-neighbour
// distance — a lightweight stand-in for Jubatus's LOF engine. The model
// keeps a bounded window of recent points (oldest evicted first), stored in
// interned ID-sorted form so distances are merge walks over slices.
type KNNAnomalyDetector struct {
	mu       sync.Mutex
	syms     *feature.Symbols
	points   []*feature.DenseVec // each in SortByID order
	dists    []float64           // scratch for kthDistance
	next     int
	k        int
	capacity int
}

var _ DenseAnomalyDetector = (*KNNAnomalyDetector)(nil)

// NewKNNAnomalyDetector returns a detector with neighbourhood size k
// (<=0 means 5) and point capacity (<=0 means 256).
func NewKNNAnomalyDetector(k, capacity int) *KNNAnomalyDetector {
	if k <= 0 {
		k = 5
	}
	if capacity <= 0 {
		capacity = 256
	}
	if capacity < k+1 {
		capacity = k + 1
	}
	return &KNNAnomalyDetector{
		syms:     feature.DefaultSymbols(),
		points:   make([]*feature.DenseVec, 0, capacity),
		k:        k,
		capacity: capacity,
	}
}

// Score implements AnomalyDetector. Before the model holds k+1 points the
// score is 0 (everything is normal while the neighbourhood is undefined).
func (d *KNNAnomalyDetector) Score(v feature.Vector) float64 {
	dv := feature.GetDense()
	dv.AppendVector(d.syms, v)
	dv.SortByID()
	d.mu.Lock()
	score := d.scoreLocked(dv)
	d.mu.Unlock()
	feature.PutDense(dv)
	return score
}

func (d *KNNAnomalyDetector) scoreLocked(dv *feature.DenseVec) float64 {
	if len(d.points) <= d.k {
		return 0
	}
	dist := d.kthDistance(dv, d.k)
	// Reference scale: mean k-th neighbour distance over a sample of
	// stored points (cheap approximation of LOF's reachability density).
	var (
		sum   float64
		count int
	)
	stride := len(d.points)/16 + 1
	for i := 0; i < len(d.points); i += stride {
		sum += d.kthDistance(d.points[i], d.k)
		count++
	}
	if count == 0 {
		return 0
	}
	ref := sum / float64(count)
	if ref <= 1e-12 {
		if dist <= 1e-12 {
			return 1 // everything identical: perfectly normal
		}
		// A stuck stream that moves: as anomalous as a score gets, and
		// finite, so a decision can carry it.
		return math.MaxFloat64
	}
	return dist / ref
}

// Add implements AnomalyDetector.
func (d *KNNAnomalyDetector) Add(v feature.Vector) float64 {
	dv := feature.GetDense()
	dv.AppendVector(d.syms, v)
	score := d.AddDense(dv)
	feature.PutDense(dv)
	return score
}

// AddDense implements DenseAnomalyDetector. dv is sorted in place and
// cloned for retention; the caller keeps ownership of dv itself.
func (d *KNNAnomalyDetector) AddDense(dv *feature.DenseVec) float64 {
	dv.SortByID()
	d.mu.Lock()
	defer d.mu.Unlock()
	score := d.scoreLocked(dv)
	clone := dv.Clone()
	if len(d.points) < d.capacity {
		d.points = append(d.points, clone)
	} else {
		d.points[d.next] = clone
		d.next = (d.next + 1) % d.capacity
	}
	return score
}

// Size reports the number of stored reference points.
func (d *KNNAnomalyDetector) Size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.points)
}

// kthDistance returns the distance from dv (in SortByID order) to its k-th
// nearest stored neighbour.
func (d *KNNAnomalyDetector) kthDistance(dv *feature.DenseVec, k int) float64 {
	d.dists = d.dists[:0]
	for _, p := range d.points {
		d.dists = append(d.dists, dv.SquaredDistance(p))
	}
	sort.Float64s(d.dists)
	idx := k - 1
	if idx >= len(d.dists) {
		idx = len(d.dists) - 1
	}
	if idx < 0 {
		return 0
	}
	return math.Sqrt(d.dists[idx])
}
