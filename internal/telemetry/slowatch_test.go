package telemetry

import (
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
)

type fakeHistSource map[string]*LogHistogram

func (f fakeHistSource) StageHistograms() map[string]*LogHistogram { return f }

func observeN(h *LogHistogram, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		h.Observe(d)
	}
}

func TestSLOWatchdogBreachAndRecovery(t *testing.T) {
	h := NewLogHistogram(0, 0, 0)
	src := fakeHistSource{"judge": h}
	events := NewEventLog(32)
	reg := NewRegistry()
	w := NewSLOWatchdog(src, SLOConfig{
		Targets:       []SLOTarget{{Stage: "judge", Quantile: 0.95, Target: 10 * time.Millisecond}},
		FastWindow:    time.Minute,
		SlowWindow:    5 * time.Minute,
		BurnThreshold: 2,
		Module:        "mgmt",
	}, events, reg)

	t0 := time.Unix(5000, 0)
	w.EvalOnce(t0) // baseline snapshot, nothing recorded yet
	if w.Alerting("judge") {
		t.Fatal("alerting before any samples")
	}

	// 100 compliant samples: burn stays at zero.
	observeN(h, 100, time.Millisecond)
	w.EvalOnce(t0.Add(10 * time.Second))
	if fast, slow := w.BurnRate("judge"); fast != 0 || slow != 0 {
		t.Fatalf("burn = %v/%v with only compliant samples, want 0/0", fast, slow)
	}

	// 100 violating samples: half the window's traffic blows a 5% error
	// budget at 10x — both windows burn, the alert must trip once.
	observeN(h, 100, 100*time.Millisecond)
	w.EvalOnce(t0.Add(20 * time.Second))
	if !w.Alerting("judge") {
		t.Fatal("not alerting after sustained budget burn")
	}
	if fast, slow := w.BurnRate("judge"); fast < 2 || slow < 2 {
		t.Fatalf("burn = %v/%v, want both >= threshold 2", fast, slow)
	}
	breaches := findEvents(events, "slo_breach")
	if len(breaches) != 1 {
		t.Fatalf("slo_breach events = %d, want 1", len(breaches))
	}
	if ev := breaches[0]; ev.Severity != SevError || ev.Module != "mgmt" || ev.Fields["stage"] != "judge" {
		t.Fatalf("breach event = %+v", ev)
	}
	if got := scrape(t, reg)["ifot_slo_breaches_total"]; got != 1 {
		t.Fatalf("ifot_slo_breaches_total = %v, want 1", got)
	}
	if got := scrape(t, reg)["ifot_slo_burn_rate{stage=judge}"]; got < 2 {
		t.Fatalf("ifot_slo_burn_rate{judge} = %v, want >= 2", got)
	}

	// A flood of compliant samples dilutes the burn below threshold: the
	// alert clears and exactly one recovery event lands.
	observeN(h, 10000, time.Millisecond)
	w.EvalOnce(t0.Add(30 * time.Second))
	if w.Alerting("judge") {
		t.Fatal("still alerting after burn subsided")
	}
	if got := findEvents(events, "slo_recovered"); len(got) != 1 {
		t.Fatalf("slo_recovered events = %d, want 1", len(got))
	}
	// No re-trip without a new transition.
	w.EvalOnce(t0.Add(40 * time.Second))
	if got := scrape(t, reg)["ifot_slo_breaches_total"]; got != 1 {
		t.Fatalf("breach counter re-incremented without a transition: %v", got)
	}
}

func TestSLOWatchdogNeedsBothWindows(t *testing.T) {
	// A fresh burst burns both windows and trips the alert; once the burst
	// ages past the fast window the slow-window burn alone must NOT hold
	// the alert — the fast window proves the burn is current.
	h := NewLogHistogram(0, 0, 0)
	events := NewEventLog(32)
	w := NewSLOWatchdog(fakeHistSource{"judge": h}, SLOConfig{
		Targets:       []SLOTarget{{Stage: "*", Quantile: 0.95, Target: 10 * time.Millisecond}},
		FastWindow:    time.Minute,
		SlowWindow:    5 * time.Minute,
		BurnThreshold: 2,
	}, events, nil)

	t0 := time.Unix(6000, 0)
	w.EvalOnce(t0)
	observeN(h, 100, 100*time.Millisecond) // burst, all violating
	w.EvalOnce(t0.Add(30 * time.Second))
	if !w.Alerting("judge") {
		t.Fatal("a fresh burst burns both windows and must alert")
	}
	// Quiet period: the burst ages past the fast window.
	w.EvalOnce(t0.Add(90 * time.Second))
	fast, slow := w.BurnRate("judge")
	if fast != 0 {
		t.Fatalf("fast burn = %v after a clean fast window, want 0", fast)
	}
	if slow < 2 {
		t.Fatalf("slow burn = %v, want the burst still visible in the slow window", slow)
	}
	if w.Alerting("judge") {
		t.Fatal("slow-window burn alone held the alert")
	}
	if got := findEvents(events, "slo_recovered"); len(got) != 1 {
		t.Fatalf("slo_recovered events = %d, want 1", len(got))
	}
}

func TestSLOWatchdogUnwatchedStage(t *testing.T) {
	h := NewLogHistogram(0, 0, 0)
	w := NewSLOWatchdog(fakeHistSource{"judge": h},
		SLOConfig{Targets: []SLOTarget{{Stage: "train", Quantile: 0.95, Target: time.Millisecond}}},
		nil, nil)
	observeN(h, 100, time.Second) // all violating, but no matching target
	t0 := time.Unix(7000, 0)
	w.EvalOnce(t0)
	w.EvalOnce(t0.Add(10 * time.Second))
	if w.Alerting("judge") {
		t.Fatal("stage without a target must never alert")
	}
	if fast, slow := w.BurnRate("judge"); fast != 0 || slow != 0 {
		t.Fatalf("unwatched stage burn = %v/%v, want 0/0", fast, slow)
	}
}

func findEvents(l *EventLog, kind string) []Event {
	var out []Event
	for _, ev := range l.Events(0, time.Time{}) {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// TestSLOWatchdogStartOnVirtualClock drives the Start loop by advancing a
// virtual clock alone: the watchdog must evaluate on the caller's clock,
// not the wall clock.
func TestSLOWatchdogStartOnVirtualClock(t *testing.T) {
	h := NewLogHistogram(0, 0, 0)
	events := NewEventLog(32)
	clk := clock.NewVirtual(time.Unix(8000, 0))
	w := NewSLOWatchdog(fakeHistSource{"judge": h}, SLOConfig{
		Targets:       []SLOTarget{{Stage: "judge", Quantile: 0.95, Target: 10 * time.Millisecond}},
		FastWindow:    time.Minute,
		SlowWindow:    5 * time.Minute,
		BurnThreshold: 2,
		EvalInterval:  10 * time.Second,
	}, events, nil)
	stop := w.Start(clk)
	defer stop()

	// armed waits until the loop has a timer pending, i.e. it finished any
	// evaluation the last Advance fired and re-armed.
	armed := func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ok := clk.NextDeadline(); ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("watchdog loop never armed its timer on the virtual clock")
			}
			time.Sleep(time.Millisecond)
		}
	}
	tick := func() {
		armed()
		clk.Advance(10 * time.Second)
		armed()
	}

	tick() // baseline snapshot
	observeN(h, 100, 100*time.Millisecond)
	tick()
	if !w.Alerting("judge") {
		t.Fatal("not alerting after a violating burst evaluated on the virtual clock")
	}
	if got := findEvents(events, "slo_breach"); len(got) != 1 {
		t.Fatalf("slo_breach events = %d, want 1", len(got))
	}
	observeN(h, 10000, time.Millisecond)
	tick()
	if w.Alerting("judge") {
		t.Fatal("still alerting after compliant traffic diluted the burn")
	}
	if got := findEvents(events, "slo_recovered"); len(got) != 1 {
		t.Fatalf("slo_recovered events = %d, want 1", len(got))
	}
}
