package main

import (
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/sensor"
)

// recordedFlowsPerSecond sizes the recorder: several times what any
// workload of this stack sustains today. A stack that outgrows it fails the
// run with a clear message rather than recording short.
const recordedFlowsPerSecond = 100_000

// recorder is where the in-process sinks leave what they saw, one slot
// per flow, indexed by the flow's sequence number. Every sink callback is
// a handful of stores into preallocated off-heap arrays (see offheap.go);
// all analysis happens after the run. Each array has exactly one writing
// goroutine — the generator, or the dispatch lane of one subscription —
// and is read only after those have stopped.
type recorder struct {
	arena *arena
	cap   int

	// Written by the generator.
	due   []int64 // when the flow was due, unix ns
	late  []int64 // how late the generator sent it, ns
	truth []int8  // label the training rule gives the flow's batch
	spike []int8  // 1 when the flow carries a planted anomaly
	// pubCall holds the time spent inside each Client.Publish call, ns,
	// pubsPerFlow per flow.
	pubCall     []int64
	pubsPerFlow int

	// Written by the train task's lane (OnTrain).
	trainAt []int64
	// Written by the predict task's lane (OnDecision).
	predAt    []int64
	predLabel []int8
	predScore []float64
	decSeq    []uint32 // sequence numbers of predict decisions in arrival order
	decided   atomic.Int64

	// fig9: written by the actuator (Apply), indexed by arrival order —
	// a command carries no sequence number.
	applyAt    []int64
	applyLabel []int8
	applyValue []float64
	actuated   atomic.Int64

	// analysis_wide: written by the anomaly and cluster tasks' lanes.
	anomAt    []int64
	anomLabel []int8 // 1 = "anomaly"
	anomScore []float64
	clusAt    []int64
	clusIndex []float64

	// Traced runs: written by the tap's two lanes.
	rawAt   []int64 // last raw sample of the flow seen at the tap
	joinEAt []int64 // joined batch on the train path seen at the tap
	joinFAt []int64 // joined batch on the judge path seen at the tap

	trained     atomic.Int64
	anomalies   atomic.Int64
	clustered   atomic.Int64
	outOfOrder  atomic.Int64 // sequence numbers that did not strictly increase at a sink
	overflowed  atomic.Bool  // a flow beyond cap arrived
	lastTrain   int64
	lastPred    int64
	lastAnomaly int64
	lastCluster int64

	// onComplete is poked after every sink event a closed loop gates on.
	onComplete func()
}

func newRecorder(total time.Duration, pubsPerFlow int) (*recorder, error) {
	n := int(total.Seconds()+5) * recordedFlowsPerSecond
	const bytesPerFlow = 14*8 + 4 + 5 + 16 // the arrays below but pubCall, and alignment slack
	a, err := newArena(n*(bytesPerFlow+8*pubsPerFlow) + 4096)
	if err != nil {
		return nil, err
	}
	r := &recorder{arena: a, cap: n, pubsPerFlow: pubsPerFlow,
		lastTrain: -1, lastPred: -1, lastAnomaly: -1, lastCluster: -1,
		onComplete: func() {}}
	r.due, r.late = a.int64s(n), a.int64s(n)
	r.truth, r.spike = a.int8s(n), a.int8s(n)
	r.pubCall = a.int64s(n * pubsPerFlow)
	r.trainAt = a.int64s(n)
	r.predAt, r.predLabel, r.predScore = a.int64s(n), a.int8s(n), a.float64s(n)
	r.decSeq = a.uint32s(n)
	r.applyAt, r.applyLabel, r.applyValue = a.int64s(n), a.int8s(n), a.float64s(n)
	r.anomAt, r.anomLabel, r.anomScore = a.int64s(n), a.int8s(n), a.float64s(n)
	r.clusAt, r.clusIndex = a.int64s(n), a.float64s(n)
	r.rawAt, r.joinEAt, r.joinFAt = a.int64s(n), a.int64s(n), a.int64s(n)
	return r, nil
}

func (r *recorder) free() { r.arena.free() }

// slot reports whether seq has a slot, flagging an overflow otherwise.
func (r *recorder) slot(seq uint32) bool {
	if int(seq) < r.cap {
		return true
	}
	r.overflowed.Store(true)
	return false
}

// ordered checks that a sink sees strictly increasing sequence numbers.
func (r *recorder) ordered(last *int64, seq uint32) {
	if int64(seq) <= *last {
		r.outOfOrder.Add(1)
	}
	*last = int64(seq)
}

func (r *recorder) onTrain(ev core.TrainEvent) {
	if r.slot(ev.Seq) {
		r.trainAt[ev.Seq] = ev.At.UnixNano()
	}
	r.ordered(&r.lastTrain, ev.Seq)
	r.trained.Add(1)
	r.onComplete()
}

func (r *recorder) onPredict(d core.Decision) {
	k := r.decided.Load()
	if r.slot(d.Seq) && int(k) < r.cap {
		r.predAt[d.Seq] = d.At.UnixNano()
		r.predLabel[d.Seq] = labelCode(d.Label)
		r.predScore[d.Seq] = d.Score
		r.decSeq[k] = d.Seq
	}
	r.ordered(&r.lastPred, d.Seq)
	r.decided.Store(k + 1)
	r.onComplete()
}

func (r *recorder) onAnomaly(d core.Decision) {
	if r.slot(d.Seq) {
		r.anomAt[d.Seq] = d.At.UnixNano()
		if d.Label == "anomaly" {
			r.anomLabel[d.Seq] = 1
		}
		r.anomScore[d.Seq] = d.Score
	}
	r.ordered(&r.lastAnomaly, d.Seq)
	r.anomalies.Add(1)
	r.onComplete()
}

func (r *recorder) onCluster(d core.Decision) {
	if r.slot(d.Seq) {
		r.clusAt[d.Seq] = d.At.UnixNano()
		r.clusIndex[d.Seq] = d.Score
	}
	r.ordered(&r.lastCluster, d.Seq)
	r.clustered.Add(1)
	r.onComplete()
}

// benchActuator is the bench-owned sensor.Actuator on module G: the last
// sink of a fig9 flow.
type benchActuator struct{ rec *recorder }

func (a benchActuator) ID() string { return "light" }

func (a benchActuator) Apply(cmd sensor.Command) error {
	r := a.rec
	k := r.actuated.Load()
	if int(k) < r.cap {
		r.applyAt[k] = time.Now().UnixNano()
		r.applyLabel[k] = labelCode(cmd.Detail)
		r.applyValue[k] = cmd.Value
	} else {
		r.overflowed.Store(true)
	}
	r.actuated.Store(k + 1)
	r.onComplete()
	return nil
}
