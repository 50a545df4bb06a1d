package flow

import (
	"sync"
	"sync/atomic"

	"github.com/ifot-middleware/ifot/internal/sensor"
)

// Predicate decides whether a sample passes a filter.
type Predicate func(sensor.Sample) bool

// Filter invokes next only for samples satisfying pred. The pass/drop
// counters are atomics: they sit on the cleansing hot path, where a
// mutex per sample is pure contention.
type Filter struct {
	pred Predicate
	next func(sensor.Sample)

	passed  atomic.Int64
	dropped atomic.Int64
}

// NewFilter builds a filter stage.
func NewFilter(pred Predicate, next func(sensor.Sample)) *Filter {
	return &Filter{pred: pred, next: next}
}

// Push offers one sample; it reports whether the sample passed.
func (f *Filter) Push(s sensor.Sample) bool {
	if f.pred(s) {
		f.passed.Add(1)
		f.next(s)
		return true
	}
	f.dropped.Add(1)
	return false
}

// Counts reports (passed, dropped) totals.
func (f *Filter) Counts() (passed, dropped int64) {
	return f.passed.Load(), f.dropped.Load()
}

// RangePredicate accepts samples whose channel-0 value lies in [min, max];
// the basic data-cleansing range check.
func RangePredicate(min, max float32) Predicate {
	return func(s sensor.Sample) bool {
		return s.Values[0] >= min && s.Values[0] <= max
	}
}

// Deduper drops samples already seen from the same sensor (by sequence
// number), bounding memory with a per-sensor sliding acceptance window.
type Deduper struct {
	mu      sync.Mutex
	highest map[uint16]uint32
	seen    map[uint16]map[uint32]struct{}
	window  uint32
	// dropped is atomic so Dropped() never contends with the map work
	// under mu on the cleansing hot path.
	dropped atomic.Int64
}

// NewDeduper creates a deduplicator remembering the last `window` sequence
// numbers per sensor (0 means 128).
func NewDeduper(window uint32) *Deduper {
	if window == 0 {
		window = 128
	}
	return &Deduper{
		highest: make(map[uint16]uint32),
		seen:    make(map[uint16]map[uint32]struct{}),
		window:  window,
	}
}

// Fresh reports whether the sample is new; duplicates and stale samples
// (older than the window) return false.
func (d *Deduper) Fresh(s sensor.Sample) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	sensorSeen, ok := d.seen[s.SensorIndex]
	if !ok {
		sensorSeen = make(map[uint32]struct{})
		d.seen[s.SensorIndex] = sensorSeen
	}
	high := d.highest[s.SensorIndex]
	if high >= d.window && s.Seq <= high-d.window {
		d.dropped.Add(1)
		return false // too old to track: treat as duplicate/stale
	}
	if _, dup := sensorSeen[s.Seq]; dup {
		d.dropped.Add(1)
		return false
	}
	sensorSeen[s.Seq] = struct{}{}
	if s.Seq > high {
		d.highest[s.SensorIndex] = s.Seq
		// Evict entries that fell out of the window.
		if s.Seq > d.window {
			cutoff := s.Seq - d.window
			for seq := range sensorSeen {
				if seq <= cutoff {
					delete(sensorSeen, seq)
				}
			}
		}
	}
	return true
}

// Dropped reports how many duplicates/stale samples were rejected.
func (d *Deduper) Dropped() int64 { return d.dropped.Load() }
