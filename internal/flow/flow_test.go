package flow

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/sensor"
)

func sample(idx uint16, seq uint32, v float32) sensor.Sample {
	return sensor.Sample{
		SensorIndex: idx,
		Kind:        sensor.Accelerometer,
		Seq:         seq,
		Timestamp:   time.Unix(0, int64(seq)*int64(time.Millisecond)),
		Values:      [3]float32{v, 0, 0},
	}
}

// With step == size the sliding window tumbles: each sample lands in
// exactly one batch, and a partial batch waits for the samples that fill
// it.
func TestTumblingWindowEmitsFullBatches(t *testing.T) {
	var batches [][]sensor.Sample
	w := NewSlidingWindow(3, 3, func(b []sensor.Sample) { batches = append(batches, b) })
	for i := uint32(1); i <= 7; i++ {
		w.Push(sample(1, i, float32(i)))
	}
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2", len(batches))
	}
	if batches[0][0].Seq != 1 || batches[1][2].Seq != 6 {
		t.Fatalf("batch contents wrong: %+v", batches)
	}
	w.Push(sample(1, 8, 8))
	w.Push(sample(1, 9, 9))
	if len(batches) != 3 || batches[2][0].Seq != 7 || batches[2][2].Seq != 9 {
		t.Fatalf("third batch = %+v, want samples 7..9", batches[2:])
	}
}

func TestTumblingWindowMinimumSize(t *testing.T) {
	var got int
	w := NewSlidingWindow(0, 0, func(b []sensor.Sample) { got += len(b) })
	w.Push(sample(1, 1, 0))
	if got != 1 {
		t.Fatalf("size-0 window should degrade to size 1; emitted %d", got)
	}
}

func TestJoinerCompletesInOrder(t *testing.T) {
	var (
		mu     sync.Mutex
		joined [][]sensor.Sample
		seqs   []uint32
	)
	j := NewJoiner([]string{"a", "b", "c"}, 0, func(seq uint32, batch []sensor.Sample) {
		mu.Lock()
		// The batch is reused once emit returns: keep a copy.
		joined = append(joined, slices.Clone(batch))
		seqs = append(seqs, seq)
		mu.Unlock()
	})
	if j.Push("a", sample(1, 1, 10)) {
		t.Fatal("join completed with one source")
	}
	if j.Push("b", sample(2, 1, 20)) {
		t.Fatal("join completed with two sources")
	}
	if !j.Push("c", sample(3, 1, 30)) {
		t.Fatal("join did not complete with all sources")
	}
	if len(joined) != 1 || seqs[0] != 1 {
		t.Fatalf("joined = %v seqs = %v", joined, seqs)
	}
	// Batch order matches source order, not arrival order.
	if joined[0][0].SensorIndex != 1 || joined[0][1].SensorIndex != 2 || joined[0][2].SensorIndex != 3 {
		t.Fatalf("batch order wrong: %+v", joined[0])
	}
}

func TestJoinerInterleavedSeqs(t *testing.T) {
	var count int
	j := NewJoiner([]string{"a", "b"}, 0, func(uint32, []sensor.Sample) { count++ })
	j.Push("a", sample(1, 1, 0))
	j.Push("a", sample(1, 2, 0))
	j.Push("b", sample(2, 2, 0))
	j.Push("b", sample(2, 1, 0))
	if count != 2 {
		t.Fatalf("joins = %d, want 2", count)
	}
	if j.PendingJoins() != 0 {
		t.Fatalf("PendingJoins = %d, want 0", j.PendingJoins())
	}
}

func TestJoinerUnknownSourceIgnored(t *testing.T) {
	j := NewJoiner([]string{"a"}, 0, func(uint32, []sensor.Sample) {})
	if j.Push("zz", sample(1, 1, 0)) {
		t.Fatal("unknown source completed a join")
	}
}

func TestJoinerEvictsStale(t *testing.T) {
	j := NewJoiner([]string{"a", "b"}, 4, func(uint32, []sensor.Sample) {})
	j.Push("a", sample(1, 1, 0)) // incomplete join at seq 1
	for seq := uint32(2); seq <= 10; seq++ {
		j.Push("a", sample(1, seq, 0))
	}
	if j.Dropped() == 0 {
		t.Fatal("stale joins never evicted")
	}
	// Completing seq 1 now must not fire (it was evicted).
	if j.Push("b", sample(2, 1, 0)) {
		t.Fatal("evicted join completed")
	}
}

func TestJoinerDuplicateDoesNotComplete(t *testing.T) {
	var count int
	j := NewJoiner([]string{"a", "b"}, 0, func(uint32, []sensor.Sample) { count++ })
	j.Push("a", sample(1, 5, 1))
	j.Push("a", sample(1, 5, 2)) // duplicate from same source
	if count != 0 {
		t.Fatal("duplicate completed a join")
	}
	j.Push("b", sample(2, 5, 3))
	if count != 1 {
		t.Fatalf("joins = %d, want 1", count)
	}
}

func TestFilterCounts(t *testing.T) {
	var kept []sensor.Sample
	f := NewFilter(RangePredicate(-10, 10), func(s sensor.Sample) { kept = append(kept, s) })
	if !f.Push(sample(1, 1, 5)) {
		t.Fatal("in-range sample dropped")
	}
	if f.Push(sample(1, 2, 50)) {
		t.Fatal("out-of-range sample passed")
	}
	if f.Push(sample(1, 3, -50)) {
		t.Fatal("out-of-range sample passed")
	}
	passed, dropped := f.Counts()
	if passed != 1 || dropped != 2 || len(kept) != 1 {
		t.Fatalf("passed=%d dropped=%d kept=%d", passed, dropped, len(kept))
	}
}

func TestRangePredicateBoundariesInclusive(t *testing.T) {
	p := RangePredicate(0, 1)
	if !p(sample(1, 1, 0)) || !p(sample(1, 2, 1)) {
		t.Fatal("boundaries must be inclusive")
	}
}

func TestDeduperRejectsDuplicates(t *testing.T) {
	d := NewDeduper(16)
	if !d.Fresh(sample(1, 1, 0)) {
		t.Fatal("first sample rejected")
	}
	if d.Fresh(sample(1, 1, 0)) {
		t.Fatal("duplicate accepted")
	}
	if !d.Fresh(sample(2, 1, 0)) {
		t.Fatal("same seq from different sensor rejected")
	}
	if d.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", d.Dropped())
	}
}

func TestDeduperStaleOutsideWindow(t *testing.T) {
	d := NewDeduper(8)
	for seq := uint32(1); seq <= 20; seq++ {
		d.Fresh(sample(1, seq, 0))
	}
	if d.Fresh(sample(1, 2, 0)) {
		t.Fatal("sample far outside window accepted")
	}
	// Recent unseen seq within window still accepted.
	if !d.Fresh(sample(1, 19, 0)) == false && d.Fresh(sample(1, 19, 0)) {
		t.Fatal("recent duplicate accepted twice")
	}
}

func TestConcurrentWindowPush(t *testing.T) {
	var mu sync.Mutex
	total, batches := 0, 0
	w := NewSlidingWindow(10, 10, func(b []sensor.Sample) {
		mu.Lock()
		total += len(b)
		batches++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				w.Push(sample(uint16(g), uint32(i), 0))
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if total != 400 || batches != 40 {
		t.Fatalf("emitted %d samples in %d batches, want 400 in 40", total, batches)
	}
}

func TestSlidingWindowOverlap(t *testing.T) {
	var batches [][]sensor.Sample
	w := NewSlidingWindow(4, 2, func(b []sensor.Sample) { batches = append(batches, b) })
	for i := uint32(1); i <= 8; i++ {
		w.Push(sample(1, i, 0))
	}
	// Emits at samples 4, 6, 8 → windows [1..4], [3..6], [5..8].
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(batches))
	}
	wantFirst := []uint32{1, 2, 3, 4}
	for i, s := range batches[0] {
		if s.Seq != wantFirst[i] {
			t.Fatalf("first window %v", batches[0])
		}
	}
	if batches[1][0].Seq != 3 || batches[2][0].Seq != 5 {
		t.Fatalf("window starts = %d, %d; want 3, 5", batches[1][0].Seq, batches[2][0].Seq)
	}
}

func TestSlidingWindowStepEqualsSizeTumbles(t *testing.T) {
	var count int
	w := NewSlidingWindow(3, 3, func([]sensor.Sample) { count++ })
	for i := uint32(1); i <= 9; i++ {
		w.Push(sample(1, i, 0))
	}
	if count != 3 {
		t.Fatalf("emits = %d, want 3 tumbling windows", count)
	}
}

func TestSlidingWindowDegenerateParams(t *testing.T) {
	var count int
	w := NewSlidingWindow(0, 0, func(b []sensor.Sample) { count += len(b) })
	w.Push(sample(1, 1, 0))
	if count != 1 {
		t.Fatalf("degenerate window emitted %d samples, want 1", count)
	}
	// Step larger than size is capped.
	w2 := NewSlidingWindow(2, 99, func([]sensor.Sample) { count += 100 })
	w2.Push(sample(1, 1, 0))
	w2.Push(sample(1, 2, 0))
	if count != 101 {
		t.Fatalf("capped-step window behaviour wrong: %d", count)
	}
}

func TestSlidingWindowEmitsCopies(t *testing.T) {
	var batches [][]sensor.Sample
	w := NewSlidingWindow(2, 1, func(b []sensor.Sample) { batches = append(batches, b) })
	for i := uint32(1); i <= 4; i++ {
		w.Push(sample(1, i, 0))
	}
	// Later pushes must not mutate earlier emitted batches.
	if batches[0][0].Seq != 1 || batches[0][1].Seq != 2 {
		t.Fatalf("first batch mutated: %v", batches[0])
	}
}
