package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/ifot-middleware/ifot/bench/benchfmt"
)

// Names of the runtime/metrics samples a snapshot reads. One Read call
// takes them all without stopping the world, which ReadMemStats would do
// in the middle of a measured window.
const (
	rmAllocBytes   = "/gc/heap/allocs:bytes"   // what MemStats.TotalAlloc counts
	rmAllocObjects = "/gc/heap/allocs:objects" // what MemStats.Mallocs counts
	rmGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rmGCPauses     = "/sched/pauses/total/gc:seconds"
	rmHeapObjects  = "/memory/classes/heap/objects:bytes"
)

// snapshot is every cumulative counter the window's deltas come from.
type snapshot struct {
	at           time.Time
	cpu          time.Duration // process user+system time
	allocBytes   uint64
	allocObjects uint64
	gcCPU        float64 // seconds
	gcPauses     *metrics.Float64Histogram
	brokerIn     int64
	brokerOut    int64
	brokerDrop   int64
	cacheHits    int64
	cacheMisses  int64
	walBytes     int64
	fsyncs       int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func takeSnapshot(s *stack) snapshot {
	samples := []metrics.Sample{
		{Name: rmAllocBytes}, {Name: rmAllocObjects}, {Name: rmGCCPU}, {Name: rmGCPauses},
	}
	metrics.Read(samples)
	snap := snapshot{
		at:           time.Now(),
		cpu:          processCPU(),
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCPU:        samples[2].Value.Float64(),
	}
	// The histogram's counts are reused by the next Read: keep a copy.
	h := samples[3].Value.Float64Histogram()
	snap.gcPauses = &metrics.Float64Histogram{
		Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets,
	}
	st := s.broker.Stats()
	snap.brokerIn, snap.brokerOut, snap.brokerDrop = st.MessagesReceived, st.MessagesDelivered, st.MessagesDropped
	snap.cacheHits, snap.cacheMisses = s.broker.RouteCacheStats()
	snap.walBytes, snap.fsyncs = s.walStats()
	return snap
}

// pauseP99 is the 99th percentile GC pause between two snapshots, taken
// as the upper edge of the histogram bucket that holds it.
func pauseP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= want {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge
		}
	}
	return 0
}

// sampler polls, ten times a second, the gauges that only have a current
// value: live heap bytes and (traced) the deepest dispatch lane.
type sampler struct {
	stop      chan struct{}
	wg        sync.WaitGroup
	heapPeak  uint64
	laneDepth float64
}

func startSampler(s *stack) *sampler {
	sm := &sampler{stop: make(chan struct{})}
	sm.wg.Add(1)
	go func() {
		defer sm.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		heap := []metrics.Sample{{Name: rmHeapObjects}}
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
				metrics.Read(heap)
				sm.heapPeak = max(sm.heapPeak, heap[0].Value.Uint64())
				if depth, _ := s.gauge("ifot_client_lane_depth"); depth > sm.laneDepth {
					sm.laneDepth = depth
				}
			}
		}
	}()
	return sm
}

func (sm *sampler) finish() {
	close(sm.stop)
	sm.wg.Wait()
}

// hostInfo describes the machine and build a result file came from.
func hostInfo() benchfmt.Host {
	h := benchfmt.Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Transport:  "TCP over the loopback interface, all parties in one process",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// Best effort: the driver's checkout is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}
