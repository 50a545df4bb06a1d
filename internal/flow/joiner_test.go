package flow

import (
	"sync"
	"testing"

	"github.com/ifot-middleware/ifot/internal/sensor"
)

// The batch a Joiner emits is its own slot slice, reused once emit
// returns: the next join's batch has the same backing array and its own
// samples.
func TestJoinerReusesEmittedBatch(t *testing.T) {
	var (
		first *sensor.Sample
		got   [][3]uint16
	)
	j := NewJoiner([]string{"a", "b", "c"}, 0, func(seq uint32, batch []sensor.Sample) {
		if first == nil {
			first = &batch[0]
		} else if &batch[0] != first {
			t.Errorf("seq %d: emitted batch not reused", seq)
		}
		got = append(got, [3]uint16{batch[0].SensorIndex, batch[1].SensorIndex, batch[2].SensorIndex})
		for _, s := range batch {
			if s.Seq != seq {
				t.Errorf("seq %d: slot holds seq %d", seq, s.Seq)
			}
		}
	})
	for seq := uint32(1); seq <= 3; seq++ {
		j.Push("c", sample(30, seq, 0))
		j.Push("a", sample(10, seq, 0))
		j.Push("b", sample(20, seq, 0))
	}
	if len(got) != 3 {
		t.Fatalf("joins = %d, want 3", len(got))
	}
	for _, g := range got {
		if g != [3]uint16{10, 20, 30} {
			t.Fatalf("batch order %v, want source order", g)
		}
	}
}

// An evicted join's slots are recycled cleared: a sample left in one must
// not count toward the join that reuses it.
func TestJoinerRecycledSlotsStartEmpty(t *testing.T) {
	var joins int
	j := NewJoiner([]string{"a", "b"}, 2, func(uint32, []sensor.Sample) { joins++ })
	j.Push("a", sample(1, 1, 0)) // never completed
	j.Push("b", sample(2, 9, 0)) // evicts seq 1
	if j.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", j.Dropped())
	}
	j.Push("b", sample(2, 10, 0)) // reuses seq 1's slots
	if joins != 0 {
		t.Fatalf("joins = %d after one source per seq, want 0", joins)
	}
	j.Push("a", sample(1, 10, 0))
	if joins != 1 {
		t.Fatalf("joins = %d, want 1", joins)
	}
}

// TestJoinerPushAllocs pins the steady state: once the first join has
// allocated its slots, a Push cycle allocates nothing.
func TestJoinerPushAllocs(t *testing.T) {
	sources := []string{"a", "b", "c"}
	j := NewJoiner(sources, 0, func(uint32, []sensor.Sample) {})
	seq := uint32(0)
	cycle := func() {
		seq++
		for i, src := range sources {
			j.Push(src, sample(uint16(i), seq, 1))
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("Joiner.Push cycle: %v allocs, want 0", n)
	}
}

// Three sources pushing from their own goroutines, as three input lanes
// do: every emitted batch holds exactly its own seq in source order while
// other joins fill and recycle slots concurrently.
func TestJoinerConcurrentSources(t *testing.T) {
	const seqs = 2000
	sources := []string{"a", "b", "c"}
	var (
		mu    sync.Mutex
		joins int
	)
	j := NewJoiner(sources, 4096, func(seq uint32, batch []sensor.Sample) {
		for i, s := range batch {
			if s.Seq != seq || s.SensorIndex != uint16(i) {
				t.Errorf("seq %d slot %d holds %+v", seq, i, s)
			}
		}
		mu.Lock()
		joins++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			for seq := uint32(1); seq <= seqs; seq++ {
				j.Push(src, sample(uint16(i), seq, float32(seq)))
			}
		}(i, src)
	}
	wg.Wait()
	if joins != seqs || j.PendingJoins() != 0 {
		t.Fatalf("joins = %d pending = %d, want %d and 0", joins, j.PendingJoins(), seqs)
	}
}
