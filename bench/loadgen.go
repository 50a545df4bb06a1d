package main

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// flowDeadline is how long a flow may take before it counts as lost: a
// timed-out flow frees its closed-loop slot and is reported as failed.
const flowDeadline = time.Second

// maxCatchUp bounds the burst an open-loop generator sends after it was
// stalled. A late generator sends what is overdue at once, as an open loop
// must; but when the whole host stalls for longer than this (shared
// machines do, for up to a tenth of a second), the overdue flows beyond it
// are dropped from the schedule: shed flows stay offered, count as failed,
// and make the run invalid. Without the bound a long stall ends in a burst
// larger than the broker's default 256-slot session queue, and the run
// would blame the broker for flows the generator's hiccup cost.
const maxCatchUp = 64 * time.Millisecond

// pacer decides when the generator may issue its next flow. Open loop
// (period > 0): flow i is due at start + i*period whatever the system
// does, the generator sleeps to each due time, and how late it woke is
// recorded. Closed loop (window > 0): at most window flows are in flight
// and the generator blocks on wake until a sink reports a completion.
// Neither ever spins: a prototype that yielded in a loop instead of
// blocking took a quarter of the CPU it was meant to measure.
type pacer struct {
	window int
	period time.Duration
	// done reports how many flows have reached every sink (closed loop).
	done func() int64
	// idle, when set, runs before a closed-loop generator blocks: the
	// place to flush what it has buffered.
	idle func()
	// wake is poked (non-blocking) by the sinks on every completion.
	wake chan struct{}
	stop chan struct{}

	start   time.Time
	issued  int64
	credit  int64   // closed loop: slots freed by timed-out flows
	dueRing []int64 // closed loop: due times of the last window flows
	timer   *time.Timer
	stopped atomic.Bool
}

func newPacer(window int, period time.Duration, done func() int64) *pacer {
	p := &pacer{
		window: window, period: period, done: done,
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		timer: time.NewTimer(time.Hour),
	}
	p.timer.Stop() // sleep expects a stopped, drained timer
	if window > 0 {
		p.dueRing = make([]int64, window)
	}
	return p
}

// poke tells a blocked closed-loop generator that a flow completed.
func (p *pacer) poke() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// halt makes next return false from now on, waking a blocked generator.
func (p *pacer) halt() {
	if p.stopped.CompareAndSwap(false, true) {
		close(p.stop)
	}
}

// sleep blocks for d, or until a completion or halt.
func (p *pacer) sleep(d time.Duration) {
	p.timer.Reset(d)
	select {
	case <-p.wake:
	case <-p.timer.C:
		return
	case <-p.stop:
	}
	if !p.timer.Stop() {
		<-p.timer.C
	}
}

// next blocks until flow number p.issued may go, and returns its due time
// and how late the generator is for it; ok is false once halted.
func (p *pacer) next() (due time.Time, late time.Duration, ok bool) {
	if p.start.IsZero() {
		p.start = time.Now()
	}
	if p.period > 0 {
		due = p.start.Add(time.Duration(p.issued) * p.period)
		for {
			if p.stopped.Load() {
				return due, 0, false
			}
			wait := time.Until(due)
			if behind := -wait; behind > maxCatchUp {
				skip := int64((behind - maxCatchUp) / p.period)
				p.issued += skip
				due = due.Add(time.Duration(skip) * p.period)
				wait = time.Until(due)
			}
			if wait <= 0 {
				p.issued++
				return due, -wait, true
			}
			p.sleep(wait)
		}
	}
	for {
		if p.stopped.Load() {
			return due, 0, false
		}
		freed := p.done() + p.credit
		if p.issued-freed < int64(p.window) {
			break
		}
		// Window full. If the oldest flow in flight is past its deadline
		// it is lost: free its slot rather than stall the loop forever.
		oldest := time.Unix(0, p.dueRing[freed%int64(p.window)])
		if wait := time.Until(oldest.Add(flowDeadline)); wait <= 0 {
			p.credit++
		} else {
			if p.idle != nil {
				p.idle()
			}
			p.sleep(wait)
		}
	}
	due = time.Now()
	p.dueRing[p.issued%int64(p.window)] = due.UnixNano()
	p.issued++
	return due, 0, true
}

// slotsDue counts the schedule slots of an open loop, sent or shed, that
// were due in [t0, t1) before the generator halted.
func (p *pacer) slotsDue(t0, t1 time.Time) int64 {
	firstAtOrAfter := func(t time.Time) int64 {
		return max(0, int64((t.Sub(p.start)+p.period-1)/p.period))
	}
	return min(firstAtOrAfter(t1), p.issued) - firstAtOrAfter(t0)
}

// classShift is how far a flow's class moves its channel-0 readings from
// zero, in standard deviations. It gives the training rule's two labels a
// margin a linear model can learn, so that predict accuracy sits well
// clear of its floor and falls only when the model is lost or stale, not
// with the luck of the draw.
const classShift = 0.5

// flowValues draws the sensor readings of one flow: n samples of three
// channels, unit Gaussian, channel 0 centred on ±classShift by the flow's
// class. Every input of every workload comes from here, so a seed fixes
// the inputs exactly.
func flowValues(rng *rand.Rand, n int, out [][3]float32) [][3]float32 {
	out = out[:0]
	shift := classShift
	if rng.Intn(2) == 0 {
		shift = -classShift
	}
	for s := 0; s < n; s++ {
		out = append(out, [3]float32{
			float32(shift + rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64()),
		})
	}
	return out
}

// truthLabel is the rule the Learning class labels a batch by (core's
// labelFor with no fixed label): the sign of the summed channel 0.
func truthLabel(values [][3]float32) int8 {
	var sum float64
	for _, v := range values {
		sum += float64(v[0])
	}
	if sum >= 0 {
		return labelPos
	}
	return labelNeg
}

// Label codes the recorder stores instead of strings.
const (
	labelNone  int8 = iota // "" — a judge with no model yet
	labelPos               // "pos"
	labelNeg               // "neg"
	labelOther             // anything else
)

func labelCode(s string) int8 {
	switch s {
	case "":
		return labelNone
	case "pos":
		return labelPos
	case "neg":
		return labelNeg
	}
	return labelOther
}
