package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/bench/benchfmt"
)

// The k-th actuation belongs to the k-th decision; when the actuator
// missed a decision the join must skip exactly that one and pick up the
// rest, not shift every later flow by one.
func TestJoinByIndexResyncsAfterGap(t *testing.T) {
	dec := []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5}
	act := []float64{0.5, 1.5, 2.5 /* 3.5 lost */, 4.5, 5.5 /* 6.5 lost */, 7.5}
	actOf, skipped, unmatched := joinByIndex(len(dec), len(act), func(d, a int) bool { return dec[d] == act[a] })
	want := []int32{0, 1, 2, -1, 3, 4, -1, 5}
	if !reflect.DeepEqual(actOf, want) || skipped != 2 || unmatched != 0 {
		t.Errorf("actOf=%v skipped=%d unmatched=%d, want %v 2 0", actOf, skipped, unmatched, want)
	}

	// No gap: a plain index join.
	actOf, skipped, unmatched = joinByIndex(3, 3, func(d, a int) bool { return d == a })
	if !reflect.DeepEqual(actOf, []int32{0, 1, 2}) || skipped != 0 || unmatched != 0 {
		t.Errorf("gapless join: actOf=%v skipped=%d unmatched=%d", actOf, skipped, unmatched)
	}

	// An actuation no decision explains is reported, and does not derail
	// the ones after it.
	act = []float64{0.5, 99, 1.5}
	actOf, skipped, unmatched = joinByIndex(len(dec), len(act), func(d, a int) bool { return dec[d] == act[a] })
	if actOf[0] != 0 || actOf[1] != 2 || skipped != 0 || unmatched != 1 {
		t.Errorf("unexplained actuation: actOf=%v skipped=%d unmatched=%d", actOf[:3], skipped, unmatched)
	}
}

// The same seed must generate the same inputs, flow for flow; another
// seed must not.
func TestInputsDeterministicBySeed(t *testing.T) {
	draw := func(seed int64) ([][3]float32, []int8) {
		rng := rand.New(rand.NewSource(seed))
		var all [][3]float32
		var labels []int8
		var buf [][3]float32
		for flow := 0; flow < 50; flow++ {
			buf = flowValues(rng, fig9Sensors, buf)
			all = append(all, buf...)
			labels = append(labels, truthLabel(buf))
		}
		return all, labels
	}
	a, la := draw(7)
	b, lb := draw(7)
	c, _ := draw(8)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(la, lb) {
		t.Error("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds generated the same inputs")
	}
}

func TestTruthLabelIsSignOfSummedChannelZero(t *testing.T) {
	if got := truthLabel([][3]float32{{1, -9, -9}, {-0.5, -9, -9}}); got != labelPos {
		t.Errorf("sum +0.5: label %d, want pos", got)
	}
	if got := truthLabel([][3]float32{{-1, 9, 9}, {0.5, 9, 9}}); got != labelNeg {
		t.Errorf("sum -0.5: label %d, want neg", got)
	}
	if got := truthLabel([][3]float32{{0, 0, 0}}); got != labelPos {
		t.Errorf("sum 0: label %d, want pos (core's rule is >= 0)", got)
	}
}

// An open loop's due times are start + i*period whatever the system does,
// and how late each flow went out is reported.
func TestOpenLoopSchedule(t *testing.T) {
	p := newPacer(0, 2*time.Millisecond, nil)
	var dues []time.Time
	for i := 0; i < 5; i++ {
		due, late, ok := p.next()
		if !ok || late < 0 {
			t.Fatalf("flow %d: ok=%v late=%v", i, ok, late)
		}
		if now := time.Now(); now.Before(due) {
			t.Errorf("flow %d released %v before it was due", i, due.Sub(now))
		}
		dues = append(dues, due)
	}
	for i := 1; i < len(dues); i++ {
		if d := dues[i].Sub(dues[i-1]); d != 2*time.Millisecond {
			t.Errorf("due times %d and %d are %v apart, want the period", i-1, i, d)
		}
	}
	p.halt()
	if _, _, ok := p.next(); ok {
		t.Error("next returned a flow after halt")
	}
}

// After a stall longer than maxCatchUp the generator sends at most
// maxCatchUp's worth of overdue flows and sheds the rest.
func TestOpenLoopShedsBeyondCatchUp(t *testing.T) {
	p := newPacer(0, time.Millisecond, nil)
	p.start = time.Now().Add(-200 * time.Millisecond) // as if stalled for 200 ms
	due, late, ok := p.next()
	if !ok {
		t.Fatal("next refused after a stall")
	}
	shed := p.issued - 1 // every slot before the one just sent
	if shed < 130 || shed > 137 {
		t.Errorf("shed %d flows after a 200 ms stall at 1 ms period, want about 136", shed)
	}
	if late > maxCatchUp+5*time.Millisecond {
		t.Errorf("first flow after the stall is %v late, want at most about %v", late, maxCatchUp)
	}
	if want := p.start.Add(time.Duration(shed) * time.Millisecond); !due.Equal(want) {
		t.Errorf("due %v, want %v: shed flows keep their places in the schedule", due, want)
	}
	// Shed flows were offered: a window over the stall counts their slots.
	p.halt()
	if got := p.slotsDue(p.start, due.Add(time.Nanosecond)); got != shed+1 {
		t.Errorf("slotsDue over the stall = %d, want the %d shed flows and the one sent", got, shed)
	}
	if got := p.slotsDue(p.start.Add(10*time.Millisecond), p.start.Add(20*time.Millisecond)); got != 10 {
		t.Errorf("slotsDue over 10 ms at a 1 ms period = %d, want 10", got)
	}
	if got := p.slotsDue(due, due.Add(time.Hour)); got != 1 {
		t.Errorf("slotsDue past the halt = %d, want only the one slot issued", got)
	}
}

// A closed loop never has more than its window in flight, and a blocked
// generator resumes on a completion.
func TestClosedLoopWindow(t *testing.T) {
	var done atomic.Int64
	p := newPacer(2, 0, done.Load)
	for i := 0; i < 2; i++ {
		if _, _, ok := p.next(); !ok {
			t.Fatal("window not yet full, next refused")
		}
	}
	released := make(chan struct{})
	go func() {
		p.next()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("a third flow went out with two in flight and a window of two")
	case <-time.After(20 * time.Millisecond):
	}
	done.Add(1)
	p.poke()
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("the generator did not resume after a completion")
	}
}

func TestSelfTimeAndResidual(t *testing.T) {
	root := interval{0, 100}
	// Overlapping children count once; a child reaching past its parent is
	// clipped; a child outside covers nothing.
	kids := []interval{{10, 30}, {20, 50}, {90, 120}, {200, 300}}
	if got := selfTime(root, kids); got != 50 {
		t.Errorf("selfTime = %d, want 50 (covered 10–50 and 90–100)", got)
	}
	if got := selfTime(root, nil); got != 100 {
		t.Errorf("selfTime with no children = %d, want the whole span", got)
	}
	// Stages that telescope leave nothing.
	if got := selfTime(root, []interval{{0, 25}, {25, 25}, {25, 80}, {80, 100}}); got != 0 {
		t.Errorf("telescoping stages leave %d uncovered, want 0", got)
	}
	if got := residualPct(5, 1000); got != 0.5 {
		t.Errorf("residualPct(5, 1000) = %v, want 0.5", got)
	}
	if got := residualPct(0, 0); got != 100 {
		t.Errorf("residualPct with no flows = %v, want 100 (nothing was covered)", got)
	}
}

func TestMonotoneKeepsEndsAndOrder(t *testing.T) {
	b := []int64{0, 40, 35, 90, 80}
	monotone(b)
	if want := []int64{0, 35, 35, 80, 80}; !reflect.DeepEqual(b, want) {
		t.Errorf("monotone = %v, want %v", b, want)
	}
}

// cannedStacks is what a CPU profile of the stack looks like, leaf first.
var cannedStacks = []profStack{
	{ns: 60e6, funcs: []string{
		"slices.partitionOrdered[go.shape.float64]",
		"slices.pdqsortOrdered[go.shape.float64]",
		"sort.Float64s",
		"github.com/ifot-middleware/ifot/internal/ml.(*KNNAnomalyDetector).kthDistance",
		"github.com/ifot-middleware/ifot/internal/core.(*Module).startAnomaly.func2"}},
	{ns: 40e6, funcs: []string{
		"internal/runtime/syscall.Syscall6",
		"syscall.write",
		"net.(*conn).Write",
		"github.com/ifot-middleware/ifot/internal/broker.(*session).writeLoop"}},
	{ns: 20e6, funcs: []string{
		"runtime.mallocgc",
		"runtime.newobject",
		"encoding/json.Marshal",
		"github.com/ifot-middleware/ifot/internal/core.EncodeJSON"}},
	{ns: 20e6, funcs: []string{"runtime.futex", "runtime.notewakeup"}},
	{ns: 20e6, funcs: []string{
		"encoding/json.(*encodeState).string",
		"github.com/ifot-middleware/ifot/internal/core.EncodeJSON"}},
	{ns: 10e6, funcs: []string{
		"strings.genSplit",
		"github.com/ifot-middleware/ifot/internal/mqttclient.(*Client).dispatch"}},
	{ns: 10e6, funcs: []string{
		"github.com/ifot-middleware/ifot/internal/feature.(*DenseVec).SquaredDistance",
		"github.com/ifot-middleware/ifot/internal/ml.(*KNNAnomalyDetector).kthDistance"}},
	{ns: 10e6, funcs: []string{"main.(*flowRun).emit"}},
	{ns: 10e6, funcs: []string{"indexbytebody"}},
}

func TestCPUShareGrouping(t *testing.T) {
	got, err := groupShares(cannedStacks)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"ml": 0.30, "net_syscall": 0.20, "runtime_gc": 0.10, "runtime_sched": 0.10, "json": 0.10,
		"mqttclient": 0.05, "feature": 0.05, "loadgen": 0.05, "other": 0.05,
	}
	sum := 0.0
	for _, g := range cpuGroups {
		sum += got[g]
		if math.Abs(got[g]-want[g]) > 1e-9 {
			t.Errorf("cpu_share.%s = %v, want %v", g, got[g], want[g])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if _, err := groupShares(nil); err == nil {
		t.Error("a profile without samples grouped without error")
	}
}

// pb builds protobuf messages for the profile decoder's test.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3|2), uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return b.bytes(num, data)
}

// A profile as runtime/pprof writes it: two sample types, packed
// location ids and values, a location with an inlined frame.
func TestDecodeProfile(t *testing.T) {
	strs := []string{"", "leaf.inlined", "leaf.outer", "caller"}
	var p pb
	p = p.bytes(2, pb{}.packed(1, 1, 2).packed(2, 3, 30e6))        // sample: locations 1, 2; 3 samples, 30 ms
	p = p.bytes(2, pb{}.varint(1, 2).varint(2, 1).varint(2, 10e6)) // the same fields unpacked
	p = p.bytes(4, pb{}.varint(1, 1).varint(3, 0xdead).
		bytes(4, pb{}.varint(1, 1).varint(2, 17)).
		bytes(4, pb{}.varint(1, 2).varint(2, 40)))
	p = p.bytes(4, pb{}.varint(1, 2).bytes(4, pb{}.varint(1, 3)))
	for id := uint64(1); id <= 3; id++ {
		p = p.bytes(5, pb{}.varint(1, id).varint(2, id))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	got, err := decodeProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []profStack{
		{ns: 30e6, funcs: []string{"leaf.inlined", "leaf.outer", "caller"}},
		{ns: 10e6, funcs: []string{"caller"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decodeProfile = %+v, want %+v", got, want)
	}
	if _, err := decodeProfile(p[:len(p)-2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// BENCHMARK.json is what the driver and bench/compare read; the harness
// must report exactly what it lists.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec, err := benchfmt.ReadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or their whys differ)", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(kind string, listed, reported []benchfmt.SpecMetric, bounded bool) {
		if len(listed) != len(reported) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(listed), len(reported))
		}
		for i, m := range reported {
			l := listed[i]
			if l.Name != m.Name || l.Unit != m.Unit || l.Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, l, m)
			}
			if bounded && (l.Bound <= 0 || l.Bound > 0.25) {
				t.Errorf("%s: bound %v is outside (0, 0.25]", l.Name, l.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
}

// The result line carries every listed metric; what does not apply to
// the workload is a stand-in there and absent everywhere else.
func TestLineMetricsStandIns(t *testing.T) {
	relay := &benchfmt.Run{Metrics: map[string]benchfmt.Metric{
		"setup_s": {Value: 0.01, Unit: "s"}, "flows_per_s": {Value: 4e5, Unit: "1/s"},
		"flow_p50_ms": {Value: 0.3, Unit: "ms"}, "flow_p95_ms": {Value: 0.5, Unit: "ms"},
		"cpu_us_per_flow": {Value: 4, Unit: "us"}, "alloc_kb_per_flow": {Value: 0.1, Unit: "KB"},
	}}
	line := lineMetrics(relay)
	if len(line) != len(endToEnd) {
		t.Fatalf("the line holds %d metrics, BENCHMARK.json lists %d", len(line), len(endToEnd))
	}
	for name, want := range map[string]float64{"train_p50_ms": 0.3, "predict_p95_ms": 0.5, "flow_p50_ms": 0.3, "setup_s": 0.01} {
		if got := line[name]; got.Value != want || got.Unit == "" {
			t.Errorf("line[%s] = %+v, want %v", name, got, want)
		}
	}
	if _, ok := relay.Metrics["train_p50_ms"]; ok {
		t.Error("the stand-in leaked into the run's own metrics")
	}

	traced := &benchfmt.Run{Traced: true, Metrics: map[string]benchfmt.Metric{"broker.dropped": {Unit: "count"}, "cpu_share.ml": {Value: 0.8, Unit: "ratio"}}}
	line = lineMetrics(traced)
	if len(line) != len(perLayer) {
		t.Fatalf("the traced line holds %d metrics, BENCHMARK.json lists %d", len(line), len(perLayer))
	}
	if got := line["store.append_ns"]; got.Value != 0 || got.Unit != "ns" {
		t.Errorf("a layer metric that does not apply reads %+v on the line, want 0 ns", got)
	}
	if got := line["cpu_share.ml"].Value; got != 0.8 {
		t.Errorf("cpu_share.ml = %v on the line, want the measured 0.8", got)
	}
}
