package core

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// Module health states, as classified by the manager's HealthMonitor
// from announce-beacon liveness: a module is healthy while beacons
// arrive on time, suspect once it has been silent past SuspectAfter,
// and dead past DeadAfter. A clean leave removes the module instead.
const (
	HealthHealthy = "healthy"
	HealthSuspect = "suspect"
	HealthDead    = "dead"
)

// HealthConfig tunes the missed-beacon state machine.
type HealthConfig struct {
	// BeaconInterval is the expected announce spacing — the module
	// default HeartbeatInterval (5s). Only used to express silence as a
	// missed-beacon count in snapshots.
	BeaconInterval time.Duration
	// SuspectAfter is the silence bound for healthy→suspect (default
	// 15s) and the manager's one staleness bound: a module silent longer
	// leaves its module table and placement pool.
	SuspectAfter time.Duration
	// DeadAfter is the silence bound for suspect→dead (default
	// 2×SuspectAfter).
	DeadAfter time.Duration
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = 5 * time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 15 * time.Second
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	return c
}

// maxHealthModules bounds per-module metric registration: a churning
// fleet with unique IDs must not grow the registry without bound. The
// /health endpoint still reports every module; only the per-module
// gauge series stop appearing past the bound.
const maxHealthModules = 128

// healthEntry is one module's liveness record.
type healthEntry struct {
	ann      Announce
	lastSeen time.Time
	state    string
	bound    bool // per-module gauges registered
}

// HealthMonitor classifies announced modules through the
// healthy→suspect→dead missed-beacon state machine and keeps the last
// runtime stats each beacon carried. Transitions emit structured events;
// per-module health and runtime gauges land on the bound registry. It
// implements telemetry.HealthSource for the manager's /health endpoint.
type HealthMonitor struct {
	clk    clock.Clock
	cfg    HealthConfig
	events *telemetry.EventLog // may be nil

	mu           sync.Mutex
	modules      map[string]*healthEntry
	reg          *telemetry.Registry
	onTransition func(moduleID, state string)
}

// SetOnTransition installs a callback invoked (outside the monitor's
// lock, from the sweeping goroutine) for every sweep-driven state
// transition — the manager's hook for acting on dead classifications.
// Set before the sweep loop starts; not safe to change concurrently
// with Sweep.
func (h *HealthMonitor) SetOnTransition(fn func(moduleID, state string)) {
	h.onTransition = fn
}

// NewHealthMonitor creates a monitor reading time from clk (nil = wall
// clock), emitting transition events into events (may be nil).
func NewHealthMonitor(clk clock.Clock, cfg HealthConfig, events *telemetry.EventLog) *HealthMonitor {
	if clk == nil {
		clk = clock.NewReal()
	}
	return &HealthMonitor{
		clk:     clk,
		cfg:     cfg.withDefaults(),
		events:  events,
		modules: make(map[string]*healthEntry),
	}
}

// BindRegistry arms per-module gauge registration: each module observed
// (up to maxHealthModules) gets ifot_mgmt_module_health{module,state}
// 0/1 gauges plus ifot_runtime_* gauges mirroring its latest beacon's
// runtime stats.
func (h *HealthMonitor) BindRegistry(reg *telemetry.Registry) {
	h.mu.Lock()
	h.reg = reg
	for id, e := range h.modules {
		h.bindModuleLocked(id, e)
	}
	h.mu.Unlock()
}

// bindModuleLocked registers the per-module series once, bounded by
// maxHealthModules. Called with h.mu held.
func (h *HealthMonitor) bindModuleLocked(id string, e *healthEntry) {
	if h.reg == nil || e.bound {
		return
	}
	if h.reg.SeriesCount("ifot_runtime_goroutines") >= maxHealthModules {
		return
	}
	e.bound = true
	lbl := telemetry.L("module", id)
	for _, state := range []string{HealthHealthy, HealthSuspect, HealthDead} {
		state := state
		h.reg.GaugeFunc("ifot_mgmt_module_health",
			"1 when the module is in the labelled liveness state",
			func() float64 {
				if h.State(id) == state {
					return 1
				}
				return 0
			}, lbl, telemetry.L("state", state))
	}
	rt := func(pick func(telemetry.RuntimeStats) float64) func() float64 {
		return func() float64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			e, ok := h.modules[id]
			if !ok || e.ann.Runtime == nil {
				return 0
			}
			return pick(*e.ann.Runtime)
		}
	}
	h.reg.GaugeFunc("ifot_runtime_heap_bytes", "module heap bytes from its last announce beacon",
		rt(func(r telemetry.RuntimeStats) float64 { return float64(r.HeapBytes) }), lbl)
	h.reg.GaugeFunc("ifot_runtime_goroutines", "module goroutine count from its last announce beacon",
		rt(func(r telemetry.RuntimeStats) float64 { return float64(r.Goroutines) }), lbl)
	h.reg.GaugeFunc("ifot_runtime_gc_pause_p99_seconds", "module p99 GC pause from its last announce beacon",
		rt(func(r telemetry.RuntimeStats) float64 { return r.GCPauseP99 }), lbl)
	h.reg.GaugeFunc("ifot_runtime_tasks_running", "subtasks the module reported hosting in its last beacon",
		rt(func(r telemetry.RuntimeStats) float64 { return float64(r.TasksRunning) }), lbl)
}

// Observe folds one announce beacon in and returns the module's prior
// state ("" when it was unknown): the module refreshes to healthy,
// emitting module_recovered when it was suspect or dead. Reading the prior
// state in the same critical section as the refresh is what lets the
// manager tell a zombie rejoin from a routine beacon.
func (h *HealthMonitor) Observe(ann Announce, now time.Time) string {
	if ann.ModuleID == "" {
		return ""
	}
	h.mu.Lock()
	e, ok := h.modules[ann.ModuleID]
	if !ok {
		e = &healthEntry{}
		h.modules[ann.ModuleID] = e
		h.bindModuleLocked(ann.ModuleID, e)
	}
	prev := e.state
	e.ann = ann
	e.lastSeen = now
	e.state = HealthHealthy
	h.mu.Unlock()
	if prev != "" && prev != HealthHealthy {
		h.events.Eventf(telemetry.SevInfo, ann.ModuleID, "module_recovered", "was", prev)
	}
	return prev
}

// Remove drops a module on clean leave; departure is intentional, not a
// liveness failure, so no suspect/dead transition fires for it.
func (h *HealthMonitor) Remove(moduleID string) {
	h.mu.Lock()
	delete(h.modules, moduleID)
	h.mu.Unlock()
}

// State reports a module's current classification ("" when unknown).
func (h *HealthMonitor) State(moduleID string) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.modules[moduleID]
	if !ok {
		return ""
	}
	return e.state
}

// Live lists the announces of modules healthy at now — silent no longer
// than SuspectAfter and not declared dead — sorted by ID. This is the
// manager's module table.
func (h *HealthMonitor) Live(now time.Time) []Announce {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Announce, 0, len(h.modules))
	for _, e := range h.modules {
		if state, _ := h.classify(e, now); state == HealthHealthy {
			out = append(out, e.ann)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModuleID < out[j].ModuleID })
	return out
}

// classify is the state machine's age rule: silent past DeadAfter is
// dead, past SuspectAfter suspect (a dead module stays dead until a beacon
// refreshes it), otherwise the recorded state. Called with h.mu held.
func (h *HealthMonitor) classify(e *healthEntry, now time.Time) (string, time.Duration) {
	age := now.Sub(e.lastSeen)
	switch {
	case age > h.cfg.DeadAfter:
		return HealthDead, age
	case age > h.cfg.SuspectAfter && e.state != HealthDead:
		return HealthSuspect, age
	}
	return e.state, age
}

// Sweep advances the state machine to now: modules silent past
// SuspectAfter turn suspect, past DeadAfter dead. Exported so tests
// drive transitions deterministically; the manager calls it on a timer.
func (h *HealthMonitor) Sweep(now time.Time) {
	type transition struct {
		id    string
		state string
		age   time.Duration
	}
	var changed []transition
	h.mu.Lock()
	for id, e := range h.modules {
		next, age := h.classify(e, now)
		if next != e.state {
			e.state = next
			changed = append(changed, transition{id: id, state: next, age: age})
		}
	}
	h.mu.Unlock()
	for _, tr := range changed {
		sev := telemetry.SevWarn
		kind := "module_suspect"
		if tr.state == HealthDead {
			sev = telemetry.SevError
			kind = "module_dead"
		}
		h.events.Eventf(sev, tr.id, kind,
			"silent_for", tr.age.String(),
			"missed_beacons", strconv.Itoa(h.missedBeacons(tr.age)))
		if h.onTransition != nil {
			h.onTransition(tr.id, tr.state)
		}
	}
}

func (h *HealthMonitor) missedBeacons(age time.Duration) int {
	return int(age / h.cfg.BeaconInterval)
}

// HealthSnapshot reports every known module's classification at the
// monitor's current clock, implementing telemetry.HealthSource for the
// /health endpoint. Snapshot ages are computed fresh, so a module that
// crossed a bound between sweeps already reads as suspect/dead here
// (the sweep still owns the transition events).
func (h *HealthMonitor) HealthSnapshot() telemetry.HealthSnapshot {
	now := h.clk.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := telemetry.HealthSnapshot{Now: now}
	for id, e := range h.modules {
		state, age := h.classify(e, now)
		switch state {
		case HealthSuspect:
			hs.Suspect++
		case HealthDead:
			hs.Dead++
		default:
			hs.Healthy++
		}
		hs.Modules = append(hs.Modules, telemetry.ModuleHealth{
			Module:        id,
			State:         state,
			LastSeen:      e.lastSeen,
			MissedBeacons: h.missedBeacons(age),
			CapacityOps:   e.ann.CapacityOps,
			Tasks:         e.ann.RunningTasks,
			Runtime:       e.ann.Runtime,
		})
	}
	sort.Slice(hs.Modules, func(i, j int) bool { return hs.Modules[i].Module < hs.Modules[j].Module })
	return hs
}
