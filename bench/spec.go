package main

import (
	"time"

	"github.com/ifot-middleware/ifot/bench/benchfmt"
)

// workloadDef is one benchmark workload. Names are final: result files
// and BENCHMARK.json are keyed by them.
type workloadDef struct {
	name string
	why  string
	flow *flowSpec // nil for broker_relay
}

var workloads = []workloadDef{
	{"fig9_paced",
		"Paper Fig. 9 at 1000 flows/s, open loop, far below capacity: latency is the sum of per-hop costs, so a per-hop saving in any layer shows and batching that trades latency for throughput shows as a loss",
		&flowSpec{period: time.Second / fig9PacedRate}},
	{"fig9_saturate",
		"Same topology, closed loop, 32 flows in flight: sustainable flows/s and CPU per flow when every layer is busy; broker, wire, mqttclient, sockets and JSON do nearly all the work, ml almost none",
		&flowSpec{window: fig9Window}},
	{"fig9_durable",
		"Same topology at QoS 1 on file stores: PUBACK round trips, inflight tracking, journaling and checkpoints; a QoS 0 fast-path gain that costs the acknowledged or durable path shows only here",
		&flowSpec{window: durableWindow, durable: true}},
	{"broker_relay",
		"Broker only: raw 32-byte publishes over 1024 topics to one wildcard subscriber, 128 in flight; bare forwarding at the smallest packet, no core or ml: a transport change shows here, an ml one must not",
		nil},
	{"analysis_wide",
		"One module, four analysis tasks on pre-joined 16-sample batches with planted spikes, 16 in flight: kNN scoring dominates; an ml or feature change shows here, a transport change must not",
		&flowSpec{wide: true, window: wideWindow}},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd lists the gated metrics in report order; BENCHMARK.json holds
// the same list with each metric's bound (a test keeps the two in step).
// loss_ratio, the eleventh end-to-end number, is not in this list: its
// healthy value is 0, which a relative bound cannot gate, so it travels
// as failed/attempted on the result line and bench/compare gates it
// absolutely.
var endToEnd = []benchfmt.SpecMetric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "flows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "flow_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "flow_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "train_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "train_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "predict_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "predict_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_us_per_flow", Unit: "us", Better: "lower"},
	{Name: "alloc_kb_per_flow", Unit: "KB", Better: "lower"},
}

// stageNames are the stage spans with a reported p50 and p95.
var stageNames = []string{"ingress", "join", "learn", "judge", "actuate"}

// perLayer lists every per-layer metric a traced run may report, in
// report order. A workload leaves out the ones that do not apply to it.
var perLayer = buildPerLayer()

// perLayerUnit is each per-layer metric's unit.
var perLayerUnit = func() map[string]string {
	units := make(map[string]string, len(perLayer))
	for _, sm := range perLayer {
		units[sm.Name] = sm.Unit
	}
	return units
}()

func buildPerLayer() []benchfmt.SpecMetric {
	var out []benchfmt.SpecMetric
	add := func(name, unit, better string) {
		out = append(out, benchfmt.SpecMetric{Name: name, Unit: unit, Better: better})
	}
	for _, st := range stageNames {
		add("stage."+st+"_p50_ms", "ms", "lower")
		add("stage."+st+"_p95_ms", "ms", "lower")
	}
	add("stage.residual_pct", "%", "lower")

	add("wire.encode_publish_ns", "ns", "lower")
	add("wire.decode_publish_ns", "ns", "lower")
	add("wire.allocs_per_packet", "count", "lower")
	add("broker.publish_ns", "ns", "lower")
	add("flow.join_push_ns", "ns", "lower")
	add("core.encode_batch_ns", "ns", "lower")
	add("core.decode_batch_ns", "ns", "lower")
	add("core.batch_dense_ns", "ns", "lower")
	add("core.encode_decision_ns", "ns", "lower")
	add("core.decode_decision_ns", "ns", "lower")
	add("core.analysis_allocs_per_flow", "count", "lower")
	add("ml.train_dense_ns", "ns", "lower")
	add("ml.best_dense_ns", "ns", "lower")
	add("ml.zscore_ns", "ns", "lower")
	add("ml.knn_score_us", "us", "lower")
	add("ml.kmeans_add_ns", "ns", "lower")
	add("store.append_ns", "ns", "lower")
	add("store.append_sync_us", "us", "lower")

	add("broker.msgs_in_per_flow", "count", "lower")
	add("broker.msgs_out_per_flow", "count", "lower")
	add("broker.dropped", "count", "lower")
	add("broker.route_cache_hit_ratio", "ratio", "higher")
	add("mqttclient.publish_call_p50_us", "us", "lower")
	add("mqttclient.publish_call_p99_us", "us", "lower")
	add("mqttclient.lane_depth_max", "count", "lower")
	add("mqttclient.lane_dropped", "count", "lower")
	add("store.wal_bytes_per_flow", "B", "lower")
	add("store.fsyncs_per_kflow", "count", "lower")
	add("core.mix_rounds", "count", "lower")
	add("core.mix_bytes_per_round", "B", "lower")
	add("ml.predict_accuracy", "ratio", "higher")
	add("ml.spike_recall", "ratio", "higher")
	add("telemetry.obs_tax_ratio", "ratio", "lower")
	add("setup.announce_ms", "ms", "lower")
	add("setup.deploy_ms", "ms", "lower")
	add("setup.first_flow_ms", "ms", "lower")
	add("loadgen.late_p99_ms", "ms", "lower")
	add("loadgen.late_max_ms", "ms", "lower")
	add("runtime.gc_pause_p99_ms", "ms", "lower")
	add("runtime.gc_cpu_pct", "%", "lower")
	add("runtime.heap_peak_mb", "MB", "lower")
	add("runtime.rss_peak_mb", "MB", "lower")
	add("runtime.mallocs_per_flow", "count", "lower")

	for _, g := range cpuGroups {
		add("cpu_share."+g, "ratio", "lower")
	}
	return out
}
