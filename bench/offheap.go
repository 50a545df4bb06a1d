package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// The recorder keeps one timestamp per flow per sink, tens of megabytes
// over a run. On the Go heap that would be live memory the collector sizes
// its next cycle by: a stack whose own live heap is a few megabytes would
// collect several times less often under the benchmark than in a daemon,
// and every GC and allocation figure would flatter it. So the recorder's
// arrays live in anonymous mappings outside the heap: pages are touched
// only as flows are recorded, and the collector never sees them.

// arena is one anonymous mapping carved into typed slices.
type arena struct {
	mem []byte
	off int
}

// newArena maps size bytes. MAP_NORESERVE: most of a generously sized
// arena is never touched.
func newArena(size int) (*arena, error) {
	mem, err := syscall.Mmap(-1, 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes for the recorder: %w", size, err)
	}
	return &arena{mem: mem}, nil
}

func (a *arena) free() {
	if a.mem != nil {
		_ = syscall.Munmap(a.mem) // nothing to do about a failed unmap at exit
		a.mem = nil
	}
}

// carve returns the next n*size bytes of the arena, 8-byte aligned.
func (a *arena) carve(n, size int) unsafe.Pointer {
	a.off = (a.off + 7) &^ 7
	if a.off+n*size > len(a.mem) {
		panic("bench: recorder arena sized too small") // a bug in the sizing below, not an input
	}
	p := unsafe.Pointer(&a.mem[a.off])
	a.off += n * size
	return p
}

func (a *arena) int64s(n int) []int64     { return unsafe.Slice((*int64)(a.carve(n, 8)), n) }
func (a *arena) float64s(n int) []float64 { return unsafe.Slice((*float64)(a.carve(n, 8)), n) }
func (a *arena) uint32s(n int) []uint32   { return unsafe.Slice((*uint32)(a.carve(n, 4)), n) }
func (a *arena) int8s(n int) []int8       { return unsafe.Slice((*int8)(a.carve(n, 1)), n) }
