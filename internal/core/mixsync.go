package core

import (
	"strconv"
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/ml"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// mixPeer is the per-publisher sync state a receiver keeps.
type mixPeer struct {
	lastRound uint64
	synced    bool // bootstrapped from a keyframe; deltas apply in order
	desynced  bool // lost sync to a round gap; pending keyframe recovery
	lastAt    time.Time
}

// mixReceiver folds peer MIX payloads into one local model with round-
// sequence discipline (the idempotent-replay rules the WAL/snapshot pair
// established): deltas apply only in unbroken round order at 1/n weight; a
// gap desynchronizes the peer until its next keyframe; keyframes bootstrap
// joiners (wholesale import when nothing is blended locally yet) and
// resynchronize at contractive merge weight otherwise. Peers whose last
// payload is older than staleAfter are evicted, so departed modules stop
// dragging the average — the fix for the retained-snapshot drag bug.
//
// Shared by the trainer mix loop (hasLocal: the local model is a shard
// member) and by predictor model sync (hasLocal false).
type mixReceiver struct {
	model      ml.DeltaMixer
	hasLocal   bool
	staleAfter time.Duration

	mu          sync.Mutex
	peers       map[string]*mixPeer
	localMember bool // local state already represents >=1 blend member

	evictions *telemetry.Counter // may be nil

	// events (may be nil) receives sync-discipline occurrences: peer
	// evictions, delta-gap desyncs, keyframe resyncs. module names the
	// receiving module in those events.
	events *telemetry.EventLog
	module string
}

func newMixReceiver(model ml.DeltaMixer, hasLocal bool, staleAfter time.Duration, evictions *telemetry.Counter) *mixReceiver {
	return &mixReceiver{
		model:      model,
		hasLocal:   hasLocal,
		staleAfter: staleAfter,
		peers:      make(map[string]*mixPeer),
		evictions:  evictions,
	}
}

// setEvents routes sync-discipline events (evictions, desyncs, resyncs)
// into the module's event log. Call before the receiver sees traffic.
func (rx *mixReceiver) setEvents(l *telemetry.EventLog, moduleID string) {
	rx.events = l
	rx.module = moduleID
}

// noteLocalUpdate marks the local model as holding real state (the trainer
// produced updates), so later keyframes merge instead of wholesale-import.
func (rx *mixReceiver) noteLocalUpdate() {
	rx.mu.Lock()
	rx.localMember = true
	rx.mu.Unlock()
}

// onPayload ingests one decoded peer payload received at local time now.
func (rx *mixReceiver) onPayload(h MixHeader, d *ml.MixDelta, now time.Time) {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	// Refresh the publisher before the eviction sweep: an arriving payload
	// proves the peer is alive, even after a long silence.
	p := rx.peers[h.ModuleID]
	if p == nil {
		p = &mixPeer{}
		rx.peers[h.ModuleID] = p
	}
	p.lastAt = now
	rx.evictLocked(now)
	switch {
	case h.Keyframe:
		if p.synced && h.Round <= p.lastRound {
			return // periodic keyframe for an in-sync peer: nothing new
		}
		// Join, or resync after missed deltas: count the peer out of the
		// current blend first, then fold its full state in.
		if p.desynced {
			p.desynced = false
			rx.events.Eventf(telemetry.SevInfo, rx.module, "mix_resync",
				"peer", h.ModuleID, "round", strconv.FormatUint(h.Round, 10))
		}
		p.synced = false
		rx.absorbLocked(d, rx.blendMembersLocked(now)+1)
		p.synced = true
		p.lastRound = h.Round
	default: // delta
		if !p.synced {
			return // not bootstrapped; wait for the peer's next keyframe
		}
		if h.Round <= p.lastRound {
			return // duplicate replay: idempotent skip
		}
		if h.Round != p.lastRound+1 {
			p.synced = false // gap: desync until the next keyframe
			p.desynced = true
			rx.events.Eventf(telemetry.SevWarn, rx.module, "mix_desync",
				"peer", h.ModuleID,
				"expected", strconv.FormatUint(p.lastRound+1, 10),
				"got", strconv.FormatUint(h.Round, 10))
			return
		}
		p.lastRound = h.Round
		rx.model.ApplyDelta(d, 1/float64(rx.shardCountLocked(now)))
	}
}

// absorbLocked folds a full peer state into the local model as the total-th
// blend member: wholesale import when nothing is represented locally yet
// (joiner bootstrap), contractive merge at 1/total otherwise.
func (rx *mixReceiver) absorbLocked(d *ml.MixDelta, total int) {
	if total <= 1 {
		rx.model.ImportDense(d)
	} else {
		rx.model.MergeDense(d, 1/float64(total))
	}
	rx.localMember = true
}

// blendMembersLocked counts how many members the local state represents:
// the local shard (once it holds real state) plus every fresh in-sync peer.
func (rx *mixReceiver) blendMembersLocked(now time.Time) int {
	n := 0
	if rx.hasLocal && rx.localMember {
		n++
	}
	for _, p := range rx.peers {
		if p.synced && rx.freshLocked(p, now) {
			n++
		}
	}
	return n
}

// shardCountLocked is n for delta weighting: the live shard members — the
// local trainer (if any) plus every fresh in-sync delta publisher.
func (rx *mixReceiver) shardCountLocked(now time.Time) int {
	n := 0
	if rx.hasLocal {
		n++
	}
	for _, p := range rx.peers {
		if p.synced && rx.freshLocked(p, now) {
			n++
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (rx *mixReceiver) freshLocked(p *mixPeer, now time.Time) bool {
	return rx.staleAfter <= 0 || now.Sub(p.lastAt) <= rx.staleAfter
}

// evictLocked drops peers not heard from within staleAfter. Their already-
// blended contribution stays (it is part of history); they simply stop
// counting toward n and never re-average in — a reappearing peer starts
// over with a keyframe bootstrap.
func (rx *mixReceiver) evictLocked(now time.Time) {
	if rx.staleAfter <= 0 {
		return
	}
	for id, p := range rx.peers {
		if now.Sub(p.lastAt) > rx.staleAfter {
			delete(rx.peers, id)
			if rx.evictions != nil {
				rx.evictions.Inc()
			}
			rx.events.Eventf(telemetry.SevWarn, rx.module, "mix_peer_evicted",
				"peer", id, "age", now.Sub(p.lastAt).String())
		}
	}
}

// shardCount is the exported-for-the-loop view of live shard membership.
func (rx *mixReceiver) shardCount(now time.Time) int {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	rx.evictLocked(now)
	return rx.shardCountLocked(now)
}

// staleness returns the age of the oldest live peer's last payload — the
// value behind ifot_mix_peer_staleness_seconds.
func (rx *mixReceiver) staleness(now time.Time) time.Duration {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	var worst time.Duration
	for _, p := range rx.peers {
		if age := now.Sub(p.lastAt); age > worst {
			worst = age
		}
	}
	return worst
}
