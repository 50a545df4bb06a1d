package core

import (
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// noShard is the own shard of a receiver that trains nothing (a modelFrom
// predictor): it keeps a slot for every shard.
const noShard = -1

// mixContrib is one shard's contribution to a MIX model: per-label weights
// over interned feature IDs, dense like the model's own.
type mixContrib struct {
	labels []string
	w      [][]float64
}

func (c *mixContrib) add(d *ml.MixDelta) {
	for i := range d.Labels {
		ld := &d.Labels[i]
		li := slices.Index(c.labels, ld.Label)
		if li < 0 {
			li = len(c.labels)
			c.labels, c.w = append(c.labels, ld.Label), append(c.w, nil)
		}
		for j, id := range ld.IDs {
			c.w[li] = feature.GrowDense(c.w[li], id+1)
			c.w[li][id] += ld.Vals[j]
		}
	}
}

// exportInto fills d with the contribution's nonzero entries; every label
// is emitted, so a receiver learns the full label set.
func (c *mixContrib) exportInto(d *ml.MixDelta) {
	d.Reset()
	for li, label := range c.labels {
		ld := d.Grow(label)
		for id, v := range c.w[li] {
			if v != 0 {
				ld.IDs = append(ld.IDs, uint32(id))
				ld.Vals = append(ld.Vals, v)
			}
		}
	}
}

// replace makes d the contribution and fills diff with d minus the old
// contribution. An entry d leaves unchanged comes out exactly zero and is
// not emitted, so replacing a contribution with itself changes nothing.
func (c *mixContrib) replace(d, diff *ml.MixDelta) {
	for _, w := range c.w {
		for id := range w {
			w[id] = -w[id]
		}
	}
	c.add(d)
	c.exportInto(diff)
	for _, w := range c.w {
		clear(w)
	}
	c.add(d)
}

// mixSlot is what a receiver knows of one shard. A slot that has an owner
// but is not synced lost sync (round gap or eviction) and waits for a
// keyframe.
type mixSlot struct {
	owner     string // module whose keyframe the slot last took
	contrib   mixContrib
	lastRound uint64
	synced    bool // the owner's deltas apply in round order
	lastAt    time.Time
}

// mixReceiver is the MIX state of one participant, a trainer shard or a
// modelFrom predictor alike: its model is the sum of one contribution per
// shard — the local one (a trainer's own shard, skipped on the wire) plus
// one slot per other shard. A shard's keyframe replaces its slot; its delta
// adds to the slot only when it comes from the slot's owner at exactly the
// next round, and a gap desynchronizes the slot until the next keyframe.
// The scale of an update is decided once, by the shard that trained on it,
// so two participants that disagree on n still agree on the model.
type mixReceiver struct {
	model      ml.DeltaMixer
	ownShard   int // a trainer's own shard, or noShard
	staleAfter time.Duration
	evictions  *telemetry.Counter // may be nil
	events     *telemetry.EventLog
	module     string // the receiving module, in events

	mu    sync.Mutex
	slots map[int]*mixSlot
	diff  ml.MixDelta // keyframe scratch
}

func newMixReceiver(model ml.DeltaMixer, ownShard int, staleAfter time.Duration, evictions *telemetry.Counter) *mixReceiver {
	return &mixReceiver{model: model, ownShard: ownShard, staleAfter: staleAfter, evictions: evictions,
		slots: make(map[int]*mixSlot)}
}

// onPayload ingests one decoded payload received at local time now.
func (rx *mixReceiver) onPayload(h MixHeader, d *ml.MixDelta, now time.Time) {
	if h.Shard == rx.ownShard {
		return
	}
	rx.mu.Lock()
	defer rx.mu.Unlock()
	s := rx.slots[h.Shard]
	if s == nil {
		s = &mixSlot{}
		rx.slots[h.Shard] = s
	}
	s.lastAt = now
	if h.Keyframe {
		// Every keyframe replaces the slot, whatever its round or module:
		// a restarted publisher (rounds back at 1) or a shard's new host is
		// heard at once, and an in-sync publisher's keyframe is a no-op.
		if s.owner != "" && !s.synced {
			rx.events.Eventf(telemetry.SevInfo, rx.module, "mix_resync",
				"peer", h.ModuleID, "shard", strconv.Itoa(h.Shard), "round", strconv.FormatUint(h.Round, 10))
		}
		s.contrib.replace(d, &rx.diff)
		rx.model.ApplyDelta(&rx.diff, 1)
		s.owner, s.lastRound, s.synced = h.ModuleID, h.Round, true
		return
	}
	if !s.synced || h.ModuleID != s.owner || h.Round <= s.lastRound {
		return // no keyframe yet, another module's delta, or a replay
	}
	if h.Round != s.lastRound+1 {
		s.synced = false
		rx.events.Eventf(telemetry.SevWarn, rx.module, "mix_desync",
			"peer", h.ModuleID, "shard", strconv.Itoa(h.Shard),
			"expected", strconv.FormatUint(s.lastRound+1, 10), "got", strconv.FormatUint(h.Round, 10))
		return
	}
	s.lastRound = h.Round
	s.contrib.add(d)
	rx.model.ApplyDelta(d, 1)
}

// shardCount is n for a publisher's round: its own shard plus every other
// shard whose slot is in sync. A synced slot silent for longer than
// staleAfter is evicted here: it stops counting toward n and the staleness
// gauge, while its contribution stays in the model and in the slot for its
// next keyframe to replace.
func (rx *mixReceiver) shardCount(now time.Time) int {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	n := 1
	for shard, s := range rx.slots {
		if s.synced && rx.staleAfter > 0 && now.Sub(s.lastAt) > rx.staleAfter {
			s.synced = false
			if rx.evictions != nil {
				rx.evictions.Inc()
			}
			rx.events.Eventf(telemetry.SevWarn, rx.module, "mix_peer_evicted",
				"peer", s.owner, "shard", strconv.Itoa(shard), "age", now.Sub(s.lastAt).String())
		}
		if s.synced {
			n++
		}
	}
	return n
}

// staleness returns the age of the oldest synced slot's last payload — the
// value behind ifot_mix_peer_staleness_seconds.
func (rx *mixReceiver) staleness(now time.Time) time.Duration {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	var worst time.Duration
	for _, s := range rx.slots {
		if s.synced {
			worst = max(worst, now.Sub(s.lastAt))
		}
	}
	return worst
}

// mixPublisher is a trainer shard's side of MIX. It keeps the shard's own
// contribution: the learner's state when the task started plus every delta
// published since, exactly as published.
type mixPublisher struct {
	model         ml.DeltaMixer
	rx            *mixReceiver // the trainer's receiver: n for each round
	h             MixHeader    // module, shard and the last round published
	keyframeEvery uint64

	contrib      mixContrib
	delta, frame ml.MixDelta
	enc          []byte
}

// newMixPublisher switches delta tracking on and captures the starting
// contribution, the learner's state as restored. Call it before the task's
// first input subscription, so no update is missed or counted twice. With
// shardCount > 1 the model and the contribution are scaled by
// 1/shardCount, so shards restored from one converged model sum back to it.
func newMixPublisher(model ml.DeltaMixer, rx *mixReceiver, module string, shard, shardCount, keyframeEvery int) *mixPublisher {
	model.EnableDeltaTracking()
	p := &mixPublisher{model: model, rx: rx, h: MixHeader{ModuleID: module, Shard: shard}, keyframeEvery: uint64(keyframeEvery)}
	model.ExportDenseInto(&p.frame)
	if shardCount > 1 {
		model.ApplyDelta(&p.frame, 1/float64(shardCount)-1)
		model.ExportDenseInto(&p.frame)
	}
	p.contrib.add(&p.frame)
	return p
}

// publishRound runs one MIX round at now. It drains the learner's updates,
// keeps 1/n of them in the model and publishes them scaled by 1/n as the
// round's delta, adding exactly what it published to the contribution;
// every keyframeEvery rounds it also publishes the contribution as a
// keyframe. publish must not retain the payload. It returns the bytes
// published.
func (p *mixPublisher) publishRound(now time.Time, publish func(payload []byte, keyframe bool)) int {
	p.h.Round, p.h.At = p.h.Round+1, now
	p.model.ExportDeltaInto(&p.delta)
	if n := float64(p.rx.shardCount(now)); n > 1 {
		p.model.ApplyDelta(&p.delta, 1/n-1)
		for _, ld := range p.delta.Labels {
			for j := range ld.Vals {
				ld.Vals[j] /= n
			}
		}
	}
	p.contrib.add(&p.delta)
	p.enc = AppendEncodeMix(p.enc[:0], p.h, &p.delta, feature.DefaultSymbols())
	publish(p.enc, false)
	bytes := len(p.enc)
	if p.keyframeEvery <= 1 || p.h.Round%p.keyframeEvery == 1 {
		p.contrib.exportInto(&p.frame)
		kf := p.h
		kf.Keyframe = true
		p.enc = AppendEncodeMix(p.enc[:0], kf, &p.frame, feature.DefaultSymbols())
		publish(p.enc, true)
		bytes += len(p.enc)
	}
	return bytes
}
