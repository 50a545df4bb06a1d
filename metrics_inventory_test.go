package ifot_test

import (
	"context"
	"net"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// TestMetricInventoryMatchesDocs runs one flow through a broker with a
// store, a manager with an SLO target and a traced module, wired the way
// the three daemons wire their registries, and checks that the metric
// families they register are exactly those docs/observability.md lists
// in its inventory, and that every family is a counter or a gauge.
func TestMetricInventoryMatchesDocs(t *testing.T) {
	documented := documentedMetrics(t)

	// Broker: registry, store and event log as ifot-broker -data wires them.
	brokerReg := telemetry.NewRegistry()
	brokerEvents := telemetry.NewEventLog(64)
	brokerEvents.BindRegistry(brokerReg, telemetry.L("module", "broker"))
	st, err := store.Open(t.TempDir(), store.Options{Name: "broker", NoSync: true, Registry: brokerReg, Events: brokerEvents})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b, err := broker.Open(broker.Options{Registry: brokerReg, Store: st, Events: brokerEvents})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	dial := func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }

	// Manager on a virtual clock, so the test can run the SLO watchdog's
	// first evaluation (which registers the burn-rate gauges) at once.
	mgrReg := telemetry.NewRegistry()
	mgrClock := clock.NewVirtual(time.Now())
	mgr := core.NewManager(core.ManagerConfig{
		Dial:      dial,
		Clock:     mgrClock,
		Telemetry: mgrReg,
		SLO:       telemetry.SLOConfig{Targets: []telemetry.SLOTarget{{Stage: "*", Quantile: 0.95, Target: time.Second}}},
	})
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	// Neuron: registry, bound tracer exporting every flow, event log.
	modReg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(nil, 256)
	tracer.BindRegistry(modReg, "")
	decisions := make(chan core.Decision, 1)
	mod := core.NewModule(core.Config{
		ID:                  "inventory",
		Dial:                dial,
		Telemetry:           modReg,
		Tracer:              tracer,
		TraceSampleEvery:    1,
		TraceExportInterval: 20 * time.Millisecond,
		Events:              telemetry.NewEventLog(64),
		HeartbeatInterval:   50 * time.Millisecond,
		Observer: core.Observer{OnDecision: func(d core.Decision) {
			select {
			case decisions <- d:
			default:
			}
		}},
	})
	mod.RegisterSensor(&sensor.Sensor{ID: "t1", Kind: sensor.Temperature, RateHz: 50, Gen: sensor.GaussianNoise(20, 1, 3)})
	if err := mod.Start(); err != nil {
		t.Fatal(err)
	}
	defer mod.Close()

	waitCond(t, "module announced", func() bool { return len(mgr.Modules()) > 0 })
	dep, err := mgr.Deploy(&recipe.Recipe{
		Name: "inventory",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "inv/raw", Params: map[string]string{"sensor": "t1"}},
			{ID: "watch", Kind: recipe.KindAnomaly, Inputs: []string{"task:sense"}, Output: "inv/alerts"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-decisions:
	case <-time.After(10 * time.Second):
		t.Fatal("no decision from the deployed flow")
	}
	waitCond(t, "spans at the manager", func() bool {
		return mgrReg.SeriesCount(telemetry.DefaultStageMetric) > 0
	})
	waitCond(t, "SLO evaluation", func() bool {
		mgrClock.Advance(time.Second)
		return mgrReg.SeriesCount("ifot_slo_burn_rate") > 0
	})

	registered := map[string]bool{}
	for _, reg := range []*telemetry.Registry{brokerReg, mgrReg, modReg} {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			f := strings.Fields(line)
			if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
				continue
			}
			registered[f[2]] = true
			if f[3] != "counter" && f[3] != "gauge" {
				t.Errorf("family %s has type %s; every family is a counter or a gauge", f[2], f[3])
			}
		}
	}
	for _, name := range sortedKeys(registered) {
		if !documented[name] {
			t.Errorf("%s is registered but not in the docs/observability.md inventory", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !registered[name] {
			t.Errorf("%s is in the docs/observability.md inventory but no registry has it", name)
		}
	}
}

// documentedMetrics reads the metric names of docs/observability.md's
// inventory table: one metric per row, named in the first cell.
func documentedMetrics(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `(ifot_[a-z0-9_]+)[{`]")
	names := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			if names[m[1]] {
				t.Errorf("docs/observability.md lists %s twice", m[1])
			}
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("no inventory rows found in docs/observability.md")
	}
	return names
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
