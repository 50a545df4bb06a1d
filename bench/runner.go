package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/ifot-middleware/ifot/bench/benchfmt"
)

// procStart is as close to "child start" as the program can see.
var procStart = time.Now()

// Run shape. A run warms up with the load running, measures one window,
// and sets up several times so that set-up time is a median too.
const (
	warmup       = 3 * time.Second
	setupRepeats = 101
	// A traced run splits its time: a quarter window on an untraced stack
	// for the tracing-overhead base, half a window traced and profiled;
	// the probes take the rest.
	tracedBaseShare = 4
	tracedShare     = 2
)

// runConfig is one measurement of one workload.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	warmup   time.Duration
	traced   bool
	setups   int
	began    time.Time // when this attempt's first set-up began
	outDir   string
	scratch  string // where durable stores live for the duration of the run
}

// instance is a live workload: what the runner needs from it.
type instance interface {
	generate(t0, t1 time.Time) // start the load generator; flows due in [t0, t1) are measured
	halt()                     // stop it and let flows in flight finish
	collect(t0, t1 time.Time, traced bool) (*measurement, error)
	close()
	stackOf() *stack
}

func startInstance(def *workloadDef, cfg runConfig) (instance, error) {
	if def.flow == nil {
		return startRelayRun(cfg)
	}
	return startFlowRun(*def.flow, cfg)
}

// measured is one window's raw outcome, before it becomes metrics.
type measured struct {
	m        *measurement
	a, b     snapshot // the counters at the window's two ends
	setups   []time.Duration
	phases   setupPhases
	durable  bool // the stack runs on file stores
	heapPeak uint64
	layer    map[string]float64 // registry counts read before the stack closed
	probeIn  probeInput
	profile  string
}

// measure sets the workload up cfg.setups times, keeps the last stack,
// and measures one window on it.
func measure(def *workloadDef, cfg runConfig) (*measured, error) {
	out := &measured{layer: map[string]float64{}}
	var inst instance
	began := cfg.began
	for k := 0; k < cfg.setups; k++ {
		if k > 0 {
			inst.close()
			began = time.Now()
		}
		var err error
		if inst, err = startInstance(def, cfg); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		out.setups = append(out.setups, time.Since(began))
	}
	defer inst.close()
	st := inst.stackOf()
	out.phases, out.durable = st.phases, st.opts.durable

	t0 := time.Now().Add(cfg.warmup)
	t1 := t0.Add(cfg.window)
	inst.generate(t0, t1)
	time.Sleep(time.Until(t0))

	var prof *os.File
	if cfg.traced {
		out.profile = filepath.Join(cfg.outDir, cfg.workload+".cpu.pprof")
		var err error
		if prof, err = os.Create(out.profile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
	}
	sm := startSampler(st)
	out.a = takeSnapshot(st)
	time.Sleep(time.Until(t1))
	out.b = takeSnapshot(st)
	sm.finish()
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	out.heapPeak = sm.heapPeak

	inst.halt()
	var err error
	if out.m, err = inst.collect(out.a.at, out.b.at, cfg.traced); err != nil {
		return nil, err
	}
	if cfg.traced {
		if def.flow != nil { // broker_relay has no client library and no module
			out.layer["mqttclient.lane_depth_max"] = sm.laneDepth
			_, out.layer["mqttclient.lane_dropped"] = st.gauge("ifot_client_lane_dropped_total")
			_, rounds := st.gauge("ifot_mix_rounds_total")
			_, bytes := st.gauge("ifot_mix_bytes_total")
			out.layer["core.mix_rounds"] = rounds
			if rounds > 0 {
				out.layer["core.mix_bytes_per_round"] = bytes / rounds
			}
		}
		out.probeIn = probeInputOf(def, inst, cfg)
	}
	return out, nil
}

// probeInputOf collects what the layer probes replay: the payloads the
// generator sent and the subscription set the broker routed them into.
func probeInputOf(def *workloadDef, inst instance, cfg runConfig) probeInput {
	in := probeInput{workload: def.name, scratch: cfg.scratch}
	switch w := inst.(type) {
	case *relayRun:
		in.topics = w.topics
		for _, f := range w.frames {
			in.payloads = append(in.payloads, slices.Clone(f[len(f)-relayPayload:]))
		}
		in.filters = [][]string{relayFilters}
	case *flowRun:
		in.payloads = w.payloads
		if w.spec.wide {
			in.topics = []string{wideBatchIn}
			in.filters = [][]string{{wideBatchIn}}
		} else {
			in.topics = fig9RawTopics
			in.filters = [][]string{
				append(slices.Clone(fig9RawTopics), fig9JoinE),
				append(slices.Clone(fig9RawTopics), fig9JoinF),
				{"fig9/decision"},
			}
		}
	}
	return in
}

func ms(ns float64) float64 { return ns / 1e6 }

// timing reports one latency distribution: p50 and p95 are the gated
// metrics; p99, max, the sample count, and the highest percentile the
// sample supports go to detail.
func timing(name string, observed []int64, metrics, detail map[string]benchfmt.Metric) {
	samples := slices.Clone(observed)
	slices.Sort(samples)
	metrics[name+"_p50_ms"] = benchfmt.Metric{Value: ms(benchfmt.Percentile(samples, 50)), Unit: "ms"}
	metrics[name+"_p95_ms"] = benchfmt.Metric{Value: ms(benchfmt.Percentile(samples, 95)), Unit: "ms"}
	detail[name+"_p99_ms"] = benchfmt.Metric{Value: ms(benchfmt.Percentile(samples, 99)), Unit: "ms"}
	detail[name+"_max_ms"] = benchfmt.Metric{Value: ms(benchfmt.Percentile(samples, 100)), Unit: "ms"}
	detail[name+"_samples"] = benchfmt.Metric{Value: float64(len(samples)), Unit: "count"}
	top := benchfmt.TopPercentile(len(samples))
	detail[name+"_top_pct"] = benchfmt.Metric{Value: top, Unit: "%"}
	detail[name+"_top_ms"] = benchfmt.Metric{Value: ms(benchfmt.Percentile(samples, top)), Unit: "ms"}
}

// verdict folds a window's checks and the generator's lateness into the
// run: a failed check makes it incorrect, either makes it invalid.
func verdict(def *workloadDef, r *benchfmt.Run, me *measured) {
	m := me.m
	closed := def.flow == nil || def.flow.window > 0
	if closed {
		drops := me.b.brokerDrop - me.a.brokerDrop
		m.check("broker_no_drops", drops == 0, "%d messages dropped by the broker in the window", drops)
	}
	r.Checks = m.checks
	r.Attempted, r.Failed = m.offered, m.offered-m.completed
	r.Correct = true
	var reasons []string
	for _, c := range m.checks {
		if !c.OK {
			r.Correct = false
			reasons = append(reasons, c.Name+": "+c.Detail)
		}
	}
	// A late generator is the host's doing, not the system's: the run is
	// repeated, where a check that failed for another reason would fail again.
	if late := m.layer["loadgen.late_max_ms"]; !closed && (late > float64(lateInvalidAfter/time.Millisecond) || m.shed > 0) {
		reasons = append(reasons, fmt.Sprintf("generator ran %.1f ms late (limit %v) and shed %d flows", late, lateInvalidAfter, m.shed))
		r.Repeat = true
	}
	r.Invalid = strings.Join(reasons, "; ")
	r.Detail["loadgen.shed_flows"] = benchfmt.Metric{Value: float64(m.shed), Unit: "count"}
}

// untracedRun measures the end-to-end metrics.
func untracedRun(def *workloadDef, cfg runConfig) (*benchfmt.Run, error) {
	cfg.traced, cfg.setups = false, setupRepeats
	me, err := measure(def, cfg)
	if err != nil {
		return nil, err
	}
	r := &benchfmt.Run{Workload: def.name, Seed: cfg.seed, WindowS: me.b.at.Sub(me.a.at).Seconds(),
		Metrics: map[string]benchfmt.Metric{}, Detail: map[string]benchfmt.Metric{}}
	verdict(def, r, me)
	m := me.m
	if len(m.flow) == 0 {
		return nil, fmt.Errorf("no flow of %d completed in the window", m.offered)
	}
	flows := float64(len(m.flow))
	setups := make([]float64, len(me.setups))
	for i, d := range me.setups {
		setups[i] = d.Seconds()
		r.Detail[fmt.Sprintf("setup_%d_s", i+1)] = benchfmt.Metric{Value: setups[i], Unit: "s"}
	}
	_, setupMedian, _ := benchfmt.Quartiles(setups)
	r.Metrics["setup_s"] = benchfmt.Metric{Value: setupMedian, Unit: "s"}
	r.Metrics["flows_per_s"] = benchfmt.Metric{Value: flows / r.WindowS, Unit: "1/s"}
	timing("flow", m.flow, r.Metrics, r.Detail)
	if def.flow != nil { // broker_relay has no learner and no judge
		timing("train", m.train, r.Metrics, r.Detail)
		timing("predict", m.predict, r.Metrics, r.Detail)
	}
	r.Metrics["cpu_us_per_flow"] = benchfmt.Metric{Value: float64((me.b.cpu - me.a.cpu).Microseconds()) / flows, Unit: "us"}
	r.Metrics["alloc_kb_per_flow"] = benchfmt.Metric{Value: float64(me.b.allocBytes-me.a.allocBytes) / 1024 / flows, Unit: "KB"}
	r.Detail["loss_ratio"] = benchfmt.Metric{Value: float64(r.Failed) / float64(r.Attempted), Unit: "ratio"}
	for k, v := range boundaryCounts(me) {
		r.Detail[k] = benchfmt.Metric{Value: v, Unit: perLayerUnit[k]}
	}
	return r, nil
}

// boundaryCounts are the per-layer numbers both kinds of run can take:
// counter deltas over the window through the layers' public accessors,
// and what the recording itself says.
func boundaryCounts(me *measured) map[string]float64 {
	out := map[string]float64{}
	put := func(name string, v float64) { out[name] = v }
	flows := float64(max(len(me.m.flow), 1))
	a, b := me.a, me.b
	put("broker.msgs_in_per_flow", float64(b.brokerIn-a.brokerIn)/flows)
	put("broker.msgs_out_per_flow", float64(b.brokerOut-a.brokerOut)/flows)
	put("broker.dropped", float64(b.brokerDrop-a.brokerDrop))
	if lookups := (b.cacheHits - a.cacheHits) + (b.cacheMisses - a.cacheMisses); lookups > 0 {
		put("broker.route_cache_hit_ratio", float64(b.cacheHits-a.cacheHits)/float64(lookups))
	}
	if me.durable {
		put("store.wal_bytes_per_flow", float64(b.walBytes-a.walBytes)/flows)
		put("store.fsyncs_per_kflow", float64(b.fsyncs-a.fsyncs)/flows*1000)
	}
	put("setup.announce_ms", ms(float64(me.phases.announce)))
	if me.phases.deploy > 0 { // broker_relay deploys nothing
		put("setup.deploy_ms", ms(float64(me.phases.deploy)))
	}
	put("setup.first_flow_ms", ms(float64(me.phases.firstFlow)))
	put("runtime.gc_pause_p99_ms", pauseP99(a.gcPauses, b.gcPauses)*1e3)
	if cpu := (b.cpu - a.cpu).Seconds(); cpu > 0 {
		put("runtime.gc_cpu_pct", 100*(b.gcCPU-a.gcCPU)/cpu)
	}
	put("runtime.heap_peak_mb", float64(me.heapPeak)/(1<<20))
	put("runtime.rss_peak_mb", peakRSSMB())
	put("runtime.mallocs_per_flow", float64(b.allocObjects-a.allocObjects)/flows)
	for k, v := range me.m.layer {
		put(k, v)
	}
	return out
}

// tracedRun measures the per-layer metrics: a short untraced window for
// the tracing-overhead base, then the traced, tapped and profiled window,
// then the layer probes and the CPU shares.
func tracedRun(def *workloadDef, cfg runConfig) (*benchfmt.Run, error) {
	base := cfg
	base.traced, base.setups, base.window = false, 1, cfg.window/tracedBaseShare
	bm, err := measure(def, base)
	if err != nil {
		return nil, fmt.Errorf("untraced base: %w", err)
	}
	baseCPU := float64((bm.b.cpu - bm.a.cpu).Microseconds()) / float64(max(len(bm.m.flow), 1))

	cfg.traced, cfg.setups, cfg.window = true, 1, cfg.window/tracedShare
	me, err := measure(def, cfg)
	if err != nil {
		return nil, err
	}
	r := &benchfmt.Run{Workload: def.name, Seed: cfg.seed, Traced: true, WindowS: me.b.at.Sub(me.a.at).Seconds(),
		Metrics: map[string]benchfmt.Metric{}, Detail: map[string]benchfmt.Metric{}}
	if me.m.stages != nil {
		residual := me.m.layer["stage.residual_pct"]
		me.m.check("stage_residual", residual <= 1, "%.4f %% of flow time not covered by a stage span (limit 1 %%)", residual)
		if err := writeSpans(filepath.Join(cfg.outDir, cfg.workload+".spans.jsonl"), me.m.spans); err != nil {
			return nil, err
		}
	}
	verdict(def, r, me)
	// A layer metric that does not apply to the workload is left out.
	set := func(name string, v float64) {
		r.Metrics[name] = benchfmt.Metric{Value: v, Unit: perLayerUnit[name]}
	}
	for k, v := range boundaryCounts(me) {
		set(k, v)
	}
	for k, v := range me.layer {
		set(k, v)
	}
	if baseCPU > 0 {
		tracedCPU := float64((me.b.cpu - me.a.cpu).Microseconds()) / float64(max(len(me.m.flow), 1))
		set("telemetry.obs_tax_ratio", tracedCPU/baseCPU)
	}
	for _, st := range stageNames {
		d := me.m.stages[st]
		if len(d) == 0 {
			continue // analysis_wide has no join and no actuator
		}
		slices.Sort(d)
		set("stage."+st+"_p50_ms", ms(benchfmt.Percentile(d, 50)))
		set("stage."+st+"_p95_ms", ms(benchfmt.Percentile(d, 95)))
		r.Detail["stage."+st+"_samples"] = benchfmt.Metric{Value: float64(len(d)), Unit: "count"}
	}

	probed := map[string]float64{}
	if err := runProbes(me.probeIn, probed); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probed {
		set(k, v)
	}
	shares, err := cpuShares(me.profile)
	if err != nil {
		return nil, err
	}
	for g, v := range shares {
		set("cpu_share."+g, v)
	}
	return r, nil
}
