// Package flow provides the basic stream-processing operators the IFoT
// middleware applies to sensor streams: windowing, joining multiple
// streams, data cleansing (range checks, deduplication), filtering, and
// aggregation. These are the building blocks behind the paper's
// "data cleansing, data aggregation, etc." middleware duties.
package flow

import (
	"sync"
	"sync/atomic"

	"github.com/ifot-middleware/ifot/internal/sensor"
)

// SlidingWindow emits overlapping batches: after the first `size` samples,
// every `step` further samples emit the most recent `size` samples. With
// step == size it degenerates to a tumbling window.
type SlidingWindow struct {
	mu    sync.Mutex
	size  int
	step  int
	buf   []sensor.Sample
	since int // samples since last emit
	emit  func([]sensor.Sample)
}

// NewSlidingWindow creates a sliding window of `size` samples advancing by
// `step` (both minimum 1; step capped at size).
func NewSlidingWindow(size, step int, emit func([]sensor.Sample)) *SlidingWindow {
	if size < 1 {
		size = 1
	}
	if step < 1 {
		step = 1
	}
	if step > size {
		step = size
	}
	// Prime so the first full window emits immediately.
	return &SlidingWindow{size: size, step: step, since: step, emit: emit}
}

// Push adds one sample, emitting the current window when due.
func (w *SlidingWindow) Push(s sensor.Sample) {
	var batch []sensor.Sample
	w.mu.Lock()
	w.buf = append(w.buf, s)
	if len(w.buf) > w.size {
		w.buf = w.buf[len(w.buf)-w.size:]
	}
	if len(w.buf) == w.size {
		w.since++
		if w.since >= w.step {
			w.since = 0
			batch = append([]sensor.Sample(nil), w.buf...)
		}
	}
	w.mu.Unlock()
	if batch != nil {
		w.emit(batch)
	}
}

// Joiner aligns samples from several named sources by sequence number:
// once every source has delivered a sample with the same Seq, the joined
// batch (in source order) is emitted. This reproduces the experiment's
// Subscribe-class join of streams A, B, C into one flow (Fig. 9).
//
// Entries older than MaxLag sequence numbers behind the newest seen are
// evicted so one lost sample cannot stall the join forever.
//
// An emitted batch is the join's own slot slice: it is valid only until
// emit returns, after which the Joiner clears and reuses it. An emit that
// keeps samples copies them.
type Joiner struct {
	mu      sync.Mutex
	sources []string
	index   map[string]int
	pending map[uint32]*joinSlots // seq -> per-source slots
	free    []*joinSlots          // cleared slots, reused before allocating
	highest uint32
	maxLag  uint32
	emit    func(seq uint32, batch []sensor.Sample)
	// dropped is atomic so Dropped() reads without taking the join lock.
	dropped atomic.Int64
}

// joinSlots is one sequence number's join in progress: a slot per source
// and how many sources have filled theirs.
type joinSlots struct {
	samples []sensor.Sample
	filled  int
}

// NewJoiner creates a join over the given source names (order preserved in
// emitted batches). maxLag bounds how far behind the newest sequence an
// incomplete join may linger before eviction (0 means 64).
func NewJoiner(sources []string, maxLag uint32, emit func(seq uint32, batch []sensor.Sample)) *Joiner {
	if maxLag == 0 {
		maxLag = 64
	}
	idx := make(map[string]int, len(sources))
	for i, s := range sources {
		idx[s] = i
	}
	return &Joiner{
		sources: append([]string(nil), sources...),
		index:   idx,
		pending: make(map[uint32]*joinSlots),
		maxLag:  maxLag,
		emit:    emit,
	}
}

// Push offers a sample from the named source. Samples from unknown sources
// are ignored. It reports whether a join was completed by this sample.
func (j *Joiner) Push(source string, s sensor.Sample) bool {
	j.mu.Lock()
	i, ok := j.index[source]
	if !ok {
		j.mu.Unlock()
		return false
	}
	seq := s.Seq
	js, ok := j.pending[seq]
	if !ok {
		if n := len(j.free); n > 0 {
			js = j.free[n-1]
			j.free = j.free[:n-1]
		} else {
			js = &joinSlots{samples: make([]sensor.Sample, len(j.sources))}
		}
		j.pending[seq] = js
	}
	// Overwrite duplicates silently; count only first arrival.
	if slot := &js.samples[i]; slot.Seq == 0 && slot.Timestamp.IsZero() {
		js.filled++
	}
	js.samples[i] = s

	if seq > j.highest {
		j.highest = seq
		// Evict stale incomplete joins.
		for old, stale := range j.pending {
			if old+j.maxLag < j.highest {
				delete(j.pending, old)
				j.recycleLocked(stale)
				j.dropped.Add(1)
			}
		}
	}

	complete := js.filled == len(j.sources)
	if complete {
		delete(j.pending, seq)
	}
	j.mu.Unlock()

	if complete {
		j.emit(seq, js.samples)
		j.mu.Lock()
		j.recycleLocked(js)
		j.mu.Unlock()
	}
	return complete
}

// recycleLocked clears js and puts it on the free list.
func (j *Joiner) recycleLocked(js *joinSlots) {
	clear(js.samples)
	js.filled = 0
	j.free = append(j.free, js)
}

// PendingJoins reports incomplete joins currently buffered.
func (j *Joiner) PendingJoins() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// Dropped reports evicted incomplete joins.
func (j *Joiner) Dropped() int64 { return j.dropped.Load() }
