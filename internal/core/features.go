package core

import (
	"strconv"
	"sync"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/sensor"
)

// sensorSyms caches, per sensor index, the interned feature IDs of every
// channel. The analysis hot path runs per message; building and interning
// "s%d.c%d@num" keys each time would dominate it. The table is tiny (one
// entry per sensor ever seen) and append-only.
type sensorSyms struct {
	numID  [3]uint32 // IDs of "s<idx>.c<ch>@num" (batch features)
	rawID  [3]uint32 // IDs of "s<idx>.c<ch>" (raw anomaly features)
	prefix string    // "s<idx>" (windowed anomaly feature prefix)
}

var sensorSymsCache = struct {
	mu       sync.RWMutex
	bySensor map[uint16]*sensorSyms
}{bySensor: make(map[uint16]*sensorSyms)}

// symsFor returns the cached per-channel symbols for one sensor index,
// building (and interning) them on first sight.
func symsFor(idx uint16) *sensorSyms {
	sensorSymsCache.mu.RLock()
	cs, ok := sensorSymsCache.bySensor[idx]
	sensorSymsCache.mu.RUnlock()
	if ok {
		return cs
	}
	sensorSymsCache.mu.Lock()
	defer sensorSymsCache.mu.Unlock()
	if cs, ok := sensorSymsCache.bySensor[idx]; ok {
		return cs
	}
	syms := feature.DefaultSymbols()
	cs = &sensorSyms{prefix: "s" + strconv.Itoa(int(idx))}
	for ch := 0; ch < 3; ch++ {
		base := cs.prefix + ".c" + strconv.Itoa(ch)
		cs.rawID[ch] = syms.Intern(base)
		cs.numID[ch] = syms.Intern(base + "@num")
	}
	sensorSymsCache.bySensor[idx] = cs
	return cs
}

// AppendBatchDense appends one interned feature per sensor channel of the
// batch to dv ("s<idx>.c<ch>@num", through the default symbol table).
func AppendBatchDense(dv *feature.DenseVec, batch []sensor.Sample) {
	for _, s := range batch {
		cs := symsFor(s.SensorIndex)
		for ch, val := range s.Values {
			dv.Append(cs.numID[ch], float64(val))
		}
	}
}

// BatchDense converts a joined batch to a pooled interned vector; the
// caller must feature.PutDense it after use.
func BatchDense(batch []sensor.Sample) *feature.DenseVec {
	dv := feature.GetDense()
	AppendBatchDense(dv, batch)
	return dv
}

// appendSampleRawDense appends one sample's channels under the raw (no
// @num suffix) feature names used by the anomaly task.
func appendSampleRawDense(dv *feature.DenseVec, s sensor.Sample) {
	cs := symsFor(s.SensorIndex)
	for ch, val := range s.Values {
		dv.Append(cs.rawID[ch], float64(val))
	}
}

// regressionDense splits one batch into a pooled regression feature vector
// and the target value: the target sensor's channel-0 reading is predicted
// from every other sample's channels. ok is false when the target sensor
// is absent from the batch. The caller must feature.PutDense dv either way.
func regressionDense(batch []sensor.Sample, targetSensor uint16) (dv *feature.DenseVec, target float64, ok bool) {
	dv = feature.GetDense()
	for _, s := range batch {
		if s.SensorIndex == targetSensor {
			target, ok = float64(s.Values[0]), true
			continue
		}
		cs := symsFor(s.SensorIndex)
		for ch, val := range s.Values {
			dv.Append(cs.numID[ch], float64(val))
		}
	}
	return dv, target, ok
}
