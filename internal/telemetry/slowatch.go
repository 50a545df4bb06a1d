package telemetry

import (
	"fmt"
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
)

// SLOTarget is one latency objective: "the stage's q-th quantile stays
// under Target". Stage "*" (or "") is the default objective for stages
// without an exact-match target.
type SLOTarget struct {
	Stage    string
	Quantile float64 // objective quantile, e.g. 0.95 → 5% error budget
	Target   time.Duration
}

// StageHistSource is anything owning per-stage latency LogHistograms —
// the in-process Tracer or the management node's trace collector.
type StageHistSource interface {
	StageHistograms() map[string]*LogHistogram
}

// SLOConfig parameterizes the watchdog. A zero BurnThreshold takes
// DefaultSLOBurnThreshold.
type SLOConfig struct {
	Targets       []SLOTarget
	BurnThreshold float64 // alert when both windows burn ≥ this multiple of budget
	Module        string  // stamped on alert events
}

// DefaultSLOBurnThreshold is the burn-rate multiple that trips an alert
// when SLOConfig leaves it zero.
const DefaultSLOBurnThreshold = 2.0

// The burn-rate windows and the snapshot cadence.
const (
	sloFastWindow   = time.Minute     // recent window confirming the burn is current
	sloSlowWindow   = 5 * time.Minute // long window confirming the burn is sustained
	sloEvalInterval = 10 * time.Second
)

// sloSnap is one cumulative (total, violating) observation of a stage's
// histogram at an instant; windowed rates are deltas between snapshots.
type sloSnap struct {
	at    time.Time
	total int64
	bad   int64
}

type sloStage struct {
	target SLOTarget
	snaps  []sloSnap // ascending by time, pruned past the slow window
	fast   float64   // last computed fast-window burn rate
	slow   float64
	alert  bool
}

// SLOWatchdog turns the per-stage latency histograms the tracer already
// maintains into multi-window burn-rate alerts: at each evaluation it
// snapshots every stage's cumulative (total, above-target) counts, and a
// stage alerts when the fraction of violating samples burns the error
// budget (1 − quantile) faster than BurnThreshold over BOTH windows — the
// fast window proves the burn is happening now, the slow window that it
// is not a blip. Transitions emit slo_breach / slo_recovered events and
// drive ifot_slo_burn_rate{stage} / ifot_slo_breaches_total.
type SLOWatchdog struct {
	src    StageHistSource
	cfg    SLOConfig
	events *EventLog
	reg    *Registry

	mu     sync.Mutex
	stages map[string]*sloStage

	breaches *Counter
}

// NewSLOWatchdog creates a watchdog over src. events and reg may be nil
// (disabling alert events and metrics respectively). No targets means the
// watchdog never alerts.
func NewSLOWatchdog(src StageHistSource, cfg SLOConfig, events *EventLog, reg *Registry) *SLOWatchdog {
	if cfg.BurnThreshold <= 0 {
		cfg.BurnThreshold = DefaultSLOBurnThreshold
	}
	w := &SLOWatchdog{
		src:    src,
		cfg:    cfg,
		events: events,
		reg:    reg,
		stages: make(map[string]*sloStage),
	}
	if reg != nil {
		w.breaches = reg.Counter("ifot_slo_breaches_total",
			"SLO burn-rate alert activations")
	}
	return w
}

// targetFor resolves the objective for a stage: exact match first, then
// the wildcard default. ok is false when the stage is unwatched.
func (w *SLOWatchdog) targetFor(stage string) (SLOTarget, bool) {
	var def SLOTarget
	var hasDef bool
	for _, t := range w.cfg.Targets {
		if t.Stage == stage {
			return t, true
		}
		if t.Stage == "*" || t.Stage == "" {
			def, hasDef = t, true
		}
	}
	if hasDef {
		def.Stage = stage
	}
	return def, hasDef
}

// EvalOnce runs one evaluation pass at the given instant. Exported so
// tests (and the simulator) can drive virtual time.
func (w *SLOWatchdog) EvalOnce(now time.Time) {
	hists := w.src.StageHistograms()
	w.mu.Lock()
	defer w.mu.Unlock()
	for stage, h := range hists {
		st, ok := w.stages[stage]
		if !ok {
			target, watched := w.targetFor(stage)
			if !watched {
				continue
			}
			if target.Quantile <= 0 || target.Quantile >= 1 {
				target.Quantile = 0.95
			}
			st = &sloStage{target: target}
			w.stages[stage] = st
			if w.reg != nil {
				st := st
				w.reg.GaugeFunc("ifot_slo_burn_rate",
					"fast-window error-budget burn rate per stage (1 = burning exactly the budget)",
					func() float64 {
						w.mu.Lock()
						defer w.mu.Unlock()
						return st.fast
					}, L("stage", stage))
			}
		}
		st.snaps = append(st.snaps, sloSnap{
			at:    now,
			total: h.Count(),
			bad:   h.CountAbove(st.target.Target),
		})
		// Prune history beyond the slow window (keep one snapshot past the
		// edge so the window delta spans the full width).
		cut := 0
		for cut < len(st.snaps)-1 && now.Sub(st.snaps[cut+1].at) >= sloSlowWindow {
			cut++
		}
		st.snaps = st.snaps[cut:]

		budget := 1 - st.target.Quantile
		st.fast = burnRate(st.snaps, now, sloFastWindow, budget)
		st.slow = burnRate(st.snaps, now, sloSlowWindow, budget)

		breaching := st.fast >= w.cfg.BurnThreshold && st.slow >= w.cfg.BurnThreshold
		if breaching && !st.alert {
			st.alert = true
			if w.breaches != nil {
				w.breaches.Inc()
			}
			w.events.Eventf(SevError, w.cfg.Module, "slo_breach",
				"stage", stage,
				"quantile", trimFloat(st.target.Quantile),
				"target", st.target.Target.String(),
				"burn_fast", fmt.Sprintf("%.2f", st.fast),
				"burn_slow", fmt.Sprintf("%.2f", st.slow))
		} else if !breaching && st.alert {
			st.alert = false
			w.events.Eventf(SevInfo, w.cfg.Module, "slo_recovered",
				"stage", stage,
				"burn_fast", fmt.Sprintf("%.2f", st.fast),
				"burn_slow", fmt.Sprintf("%.2f", st.slow))
		}
	}
}

// burnRate computes (violating fraction over the window) / budget from
// the snapshot deque: the delta between now's snapshot and the oldest one
// inside the window.
func burnRate(snaps []sloSnap, now time.Time, window time.Duration, budget float64) float64 {
	if len(snaps) < 2 || budget <= 0 {
		return 0
	}
	last := snaps[len(snaps)-1]
	base := snaps[0]
	for _, s := range snaps {
		if now.Sub(s.at) <= window {
			base = s
			break
		}
	}
	dTotal := last.total - base.total
	if dTotal <= 0 {
		return 0
	}
	dBad := last.bad - base.bad
	if dBad < 0 {
		dBad = 0
	}
	return (float64(dBad) / float64(dTotal)) / budget
}

// BurnRate reports the last computed burn rates for a stage (zero before
// the first evaluation or for unwatched stages).
func (w *SLOWatchdog) BurnRate(stage string) (fast, slow float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if st, ok := w.stages[stage]; ok {
		return st.fast, st.slow
	}
	return 0, 0
}

// Alerting reports whether a stage is currently in breach.
func (w *SLOWatchdog) Alerting(stage string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, ok := w.stages[stage]
	return ok && st.alert
}

// Start launches the evaluation loop, every sloEvalInterval on clk (the
// caller's clock, so a virtual clock drives it too), and returns a stop
// function.
func (w *SLOWatchdog) Start(clk clock.Clock) (stop func()) {
	quit := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			select {
			case t := <-clk.After(sloEvalInterval):
				w.EvalOnce(t)
			case <-quit:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(quit) }) }
}
