package core

import (
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

func healthEventsOf(l *telemetry.EventLog, kind string) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range l.Events(0, time.Time{}) {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

func TestHealthMonitorStateMachine(t *testing.T) {
	t0 := time.Unix(9000, 0)
	clk := clock.NewVirtual(t0)
	events := telemetry.NewEventLog(64)
	cfg := HealthConfig{BeaconInterval: time.Second, SuspectAfter: 3 * time.Second, DeadAfter: 6 * time.Second}
	h := NewHealthMonitor(clk, cfg, events)

	if prev := h.Observe(Announce{ModuleID: "a", CapacityOps: 100}, t0); prev != "" {
		t.Fatalf("Observe(a) on first beacon returned %q, want \"\" (unknown)", prev)
	}
	h.Observe(Announce{ModuleID: "b"}, t0)
	if got := h.State("a"); got != HealthHealthy {
		t.Fatalf("state(a) = %q after announce, want healthy", got)
	}

	// Module b keeps beaconing; a falls silent.
	if prev := h.Observe(Announce{ModuleID: "b"}, t0.Add(2*time.Second)); prev != HealthHealthy {
		t.Fatalf("Observe(b) on a routine beacon returned %q, want healthy", prev)
	}
	// The live set drops a module silent past SuspectAfter even before a
	// sweep classifies it.
	if live := h.Live(t0.Add(4 * time.Second)); len(live) != 1 || live[0].ModuleID != "b" {
		t.Fatalf("Live = %+v, want only b (a silent 4s > SuspectAfter)", live)
	}
	h.Sweep(t0.Add(4 * time.Second)) // a silent 4s > SuspectAfter
	if got := h.State("a"); got != HealthSuspect {
		t.Fatalf("state(a) = %q, want suspect", got)
	}
	if got := h.State("b"); got != HealthHealthy {
		t.Fatalf("state(b) = %q, want healthy (2s silence is within bounds)", got)
	}
	sus := healthEventsOf(events, "module_suspect")
	if len(sus) != 1 || sus[0].Module != "a" || sus[0].Severity != telemetry.SevWarn {
		t.Fatalf("module_suspect events = %+v, want exactly one for a", sus)
	}
	if sus[0].Fields["missed_beacons"] != "4" {
		t.Fatalf("missed_beacons = %q, want 4 (4s silence at 1s beacons)", sus[0].Fields["missed_beacons"])
	}

	// Re-sweeping without progress must not re-emit.
	h.Sweep(t0.Add(5 * time.Second))
	if got := healthEventsOf(events, "module_suspect"); len(got) != 1 {
		t.Fatalf("module_suspect re-emitted on an unchanged state: %d events", len(got))
	}

	// Past DeadAfter the module is declared dead (skipping is fine when a
	// sweep was missed entirely).
	h.Observe(Announce{ModuleID: "b"}, t0.Add(7*time.Second))
	h.Sweep(t0.Add(8 * time.Second))
	if got := h.State("a"); got != HealthDead {
		t.Fatalf("state(a) = %q, want dead", got)
	}
	dead := healthEventsOf(events, "module_dead")
	if len(dead) != 1 || dead[0].Module != "a" || dead[0].Severity != telemetry.SevError {
		t.Fatalf("module_dead events = %+v", dead)
	}

	// A fresh beacon resurrects the module and emits module_recovered;
	// Observe hands back the dead state it replaced.
	if prev := h.Observe(Announce{ModuleID: "a"}, t0.Add(9*time.Second)); prev != HealthDead {
		t.Fatalf("Observe(a) on the resurrection beacon returned %q, want dead", prev)
	}
	if live := h.Live(t0.Add(9 * time.Second)); len(live) != 2 {
		t.Fatalf("Live = %+v, want a and b after a's resurrection", live)
	}
	if got := h.State("a"); got != HealthHealthy {
		t.Fatalf("state(a) = %q after resurrection beacon, want healthy", got)
	}
	rec := healthEventsOf(events, "module_recovered")
	if len(rec) != 1 || rec[0].Module != "a" || rec[0].Fields["was"] != HealthDead {
		t.Fatalf("module_recovered events = %+v", rec)
	}

	// Clean leave removes without a liveness transition.
	h.Remove("b")
	if got := h.State("b"); got != "" {
		t.Fatalf("state(b) = %q after leave, want unknown", got)
	}
	h.Sweep(t0.Add(30 * time.Second))
	for _, ev := range events.Events(0, time.Time{}) {
		if ev.Module == "b" && (ev.Kind == "module_suspect" || ev.Kind == "module_dead") {
			t.Fatalf("removed module produced a liveness transition: %+v", ev)
		}
	}
}

func TestHealthMonitorAnnounceChurn(t *testing.T) {
	// A beacon arriving every interval must hold the module healthy across
	// many sweeps, and the dead→healthy→dead cycle must emit an event per
	// transition, never duplicates.
	t0 := time.Unix(9100, 0)
	clk := clock.NewVirtual(t0)
	events := telemetry.NewEventLog(256)
	h := NewHealthMonitor(clk, HealthConfig{
		BeaconInterval: time.Second, SuspectAfter: 3 * time.Second, DeadAfter: 6 * time.Second,
	}, events)

	now := t0
	for i := 0; i < 50; i++ {
		h.Observe(Announce{ModuleID: "m"}, now)
		now = now.Add(time.Second)
		h.Sweep(now)
	}
	if got := h.State("m"); got != HealthHealthy {
		t.Fatalf("state = %q after steady beacons, want healthy", got)
	}
	if total := len(events.Events(0, time.Time{})); total != 0 {
		t.Fatalf("steady beacons produced %d transition events, want 0", total)
	}

	// Three silence→recovery cycles.
	for cycle := 0; cycle < 3; cycle++ {
		now = now.Add(10 * time.Second) // past DeadAfter
		h.Sweep(now)
		h.Observe(Announce{ModuleID: "m"}, now)
	}
	if got := healthEventsOf(events, "module_dead"); len(got) != 3 {
		t.Fatalf("module_dead events = %d, want 3", len(got))
	}
	if got := healthEventsOf(events, "module_recovered"); len(got) != 3 {
		t.Fatalf("module_recovered events = %d, want 3", len(got))
	}
	// Silence long enough to cross both bounds in one sweep goes straight
	// to dead — no intermediate suspect event fired for these cycles.
	if got := healthEventsOf(events, "module_suspect"); len(got) != 0 {
		t.Fatalf("module_suspect events = %d, want 0 for straight-to-dead cycles", len(got))
	}
}

func TestHealthMonitorSnapshotAndGauges(t *testing.T) {
	t0 := time.Unix(9200, 0)
	clk := clock.NewVirtual(t0)
	reg := telemetry.NewRegistry()
	h := NewHealthMonitor(clk, HealthConfig{
		BeaconInterval: time.Second, SuspectAfter: 3 * time.Second, DeadAfter: 6 * time.Second,
	}, nil)
	h.BindRegistry(reg)

	rt := telemetry.RuntimeStats{HeapBytes: 1 << 20, Goroutines: 42, TasksRunning: 2}
	h.Observe(Announce{ModuleID: "a", CapacityOps: 500, RunningTasks: []string{"r/t1", "r/t2"}, Runtime: &rt}, t0)
	h.Observe(Announce{ModuleID: "b"}, t0)

	// Between sweeps the snapshot classifies from fresh ages: advance past
	// SuspectAfter without sweeping.
	clk.Advance(4 * time.Second)
	h.Observe(Announce{ModuleID: "b"}, clk.Now())
	snap := h.HealthSnapshot()
	if snap.Healthy != 1 || snap.Suspect != 1 || snap.Dead != 0 {
		t.Fatalf("snapshot counts = %d/%d/%d, want 1 healthy 1 suspect", snap.Healthy, snap.Suspect, snap.Dead)
	}
	if len(snap.Modules) != 2 || snap.Modules[0].Module != "a" || snap.Modules[1].Module != "b" {
		t.Fatalf("modules = %+v, want sorted [a b]", snap.Modules)
	}
	a := snap.Modules[0]
	if a.State != HealthSuspect || a.MissedBeacons != 4 || a.CapacityOps != 500 {
		t.Fatalf("module a = %+v", a)
	}
	if a.Runtime == nil || a.Runtime.Goroutines != 42 {
		t.Fatalf("module a runtime = %+v, want last beacon's stats", a.Runtime)
	}
	// The sweep still owns transitions: internal state is unchanged until
	// Sweep runs.
	if got := h.State("a"); got != HealthHealthy {
		t.Fatalf("internal state flipped without a sweep: %q", got)
	}

	// Gauges follow the live state.
	if v := gaugeSample(t, reg, "ifot_runtime_goroutines", "module", "a"); v != 42 {
		t.Fatalf("ifot_runtime_goroutines{a} = %v, want 42", v)
	}
	h.Sweep(clk.Now())
	if v := gaugeSample(t, reg, "ifot_mgmt_module_health", "module", "a", "state", HealthSuspect); v != 1 {
		t.Fatalf("module_health{a,suspect} = %v, want 1", v)
	}
	if v := gaugeSample(t, reg, "ifot_mgmt_module_health", "module", "a", "state", HealthHealthy); v != 0 {
		t.Fatalf("module_health{a,healthy} = %v, want 0", v)
	}
}

// gaugeSample finds one series in the registry by name plus label k=v
// pairs, failing the test when absent.
func gaugeSample(t *testing.T, reg *telemetry.Registry, name string, kv ...string) float64 {
	t.Helper()
next:
	for _, s := range reg.Samples() {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			found := false
			for _, l := range s.Labels {
				if l.Name == kv[i] && l.Value == kv[i+1] {
					found = true
					break
				}
			}
			if !found {
				continue next
			}
		}
		return s.Value
	}
	t.Fatalf("no sample %s with labels %v", name, kv)
	return 0
}
