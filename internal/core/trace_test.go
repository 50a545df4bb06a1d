package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

func TestTraceContextRoundTrip(t *testing.T) {
	batch := []sensor.Sample{
		{SensorIndex: 1, Kind: sensor.Sound, Seq: 7, Timestamp: time.Unix(5, 0), Values: [3]float32{1, 2, 3}},
		{SensorIndex: 2, Kind: sensor.Motion, Seq: 7, Timestamp: time.Unix(6, 0)},
	}
	tc := &TraceContext{
		Key:            telemetry.TraceKey{Recipe: "monitor", TaskID: "senseA", Seq: 7},
		OriginUnixNano: time.Unix(5, 123456789).UnixNano(),
		OriginModule:   "moduleA",
		Hops:           3,
	}
	payload, err := AppendEncodeBatch(nil, batch, tc)
	if err != nil {
		t.Fatal(err)
	}
	got, gotCtx, err := AppendDecodeBatch(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].SensorIndex != 1 || got[1].Kind != sensor.Motion {
		t.Fatalf("samples round trip = %+v", got)
	}
	if gotCtx == nil {
		t.Fatal("trace context lost in round trip")
	}
	if gotCtx.Key != tc.Key || gotCtx.OriginModule != "moduleA" || gotCtx.Hops != 3 {
		t.Fatalf("context round trip = %+v", gotCtx)
	}
	if !gotCtx.Origin().Equal(tc.Origin()) {
		t.Fatalf("origin = %v, want %v (nanosecond precision)", gotCtx.Origin(), tc.Origin())
	}
}

func TestTraceContextAbsentBackwardCompat(t *testing.T) {
	batch := []sensor.Sample{{SensorIndex: 1, Seq: 1, Timestamp: time.Unix(1, 0)}}

	// An untraced batch decodes with a nil context: old producers keep
	// working against new consumers.
	plain, err := EncodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, ctx, err := AppendDecodeBatch(nil, plain)
	if err != nil || len(got) != 1 || ctx != nil {
		t.Fatalf("untraced decode = %d samples, ctx=%v, err=%v", len(got), ctx, err)
	}

	// A traced batch still decodes through the untraced entry point: new
	// producers keep working against old consumers.
	traced, err := AppendEncodeBatch(nil, batch, &TraceContext{Key: telemetry.TraceKey{Recipe: "r"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeBatch(traced)
	if err != nil || len(got) != 1 {
		t.Fatalf("traced batch via DecodeBatch = %d samples, err=%v", len(got), err)
	}

	// An untraced AppendEncodeBatch must be byte-identical to EncodeBatch.
	tracedNil, err := AppendEncodeBatch(nil, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(tracedNil) != string(plain) {
		t.Fatal("AppendEncodeBatch with a nil context should match EncodeBatch exactly")
	}
}

func TestTraceTrailerMalformedRejected(t *testing.T) {
	batch := []sensor.Sample{{SensorIndex: 1, Seq: 1, Timestamp: time.Unix(1, 0)}}
	traced, err := AppendEncodeBatch(nil, batch, &TraceContext{
		Key:            telemetry.TraceKey{Recipe: "monitor", TaskID: "sense", Seq: 1},
		OriginUnixNano: time.Unix(1, 0).UnixNano(),
		OriginModule:   "A",
	})
	if err != nil {
		t.Fatal(err)
	}
	plainLen := 2 + sensor.SampleSize

	cases := map[string][]byte{
		"truncated trailer":  traced[:len(traced)-1],
		"one stray byte":     traced[:plainLen+1],
		"bad magic":          append(append([]byte{}, traced[:plainLen]...), 0xFF, traceTrailerVersion, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
		"bad version":        append(append([]byte{}, traced[:plainLen]...), traceTrailerMagic, 99, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
		"string over length": append(append([]byte{}, traced[:plainLen]...), traceTrailerMagic, traceTrailerVersion, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 200, 'x'),
	}
	for name, payload := range cases {
		if _, _, err := AppendDecodeBatch(nil, payload); !errors.Is(err, ErrBadBatch) {
			t.Errorf("%s: err = %v, want ErrBadBatch", name, err)
		}
	}

	// Oversized strings are refused at encode time, not silently truncated.
	long := make([]byte, maxTraceString+1)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := AppendEncodeBatch(nil, batch, &TraceContext{Key: telemetry.TraceKey{Recipe: string(long)}}); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized recipe name err = %v, want ErrBatchTooLarge", err)
	}
}

func TestTraceContextNextSaturates(t *testing.T) {
	tc := TraceContext{Hops: 254}
	if tc = tc.Next(); tc.Hops != 255 {
		t.Fatalf("hops = %d, want 255", tc.Hops)
	}
	if tc = tc.Next(); tc.Hops != 255 {
		t.Fatalf("hops must saturate at 255, got %d", tc.Hops)
	}
}

func TestTraceCollectorSkewAdjustment(t *testing.T) {
	base := time.Unix(1000, 0)
	col := NewTraceCollector(16)

	// moduleB's clock runs 2s ahead: its announce arrives "2s before it
	// was sent" from the manager's perspective.
	const skew = 2 * time.Second
	col.NoteAnnounce("moduleA", base, base)
	col.NoteAnnounce("moduleB", base.Add(skew), base)

	// moduleB records a judge span whose start instant came from
	// moduleA's clock (via the propagated trace context) and whose end
	// was stamped by its own skewed clock.
	key := telemetry.TraceKey{Recipe: "monitor", TaskID: "sense", Seq: 1}
	payload, err := telemetry.EncodeSpanBatch(telemetry.SpanBatch{
		Module: "moduleB",
		Spans: []telemetry.Span{{
			Key:          key,
			Stage:        "judge",
			Module:       "moduleB",
			OriginModule: "moduleA",
			Start:        base,                                     // moduleA's clock
			End:          base.Add(skew).Add(5 * time.Millisecond), // moduleB's skewed clock
		}},
		Dropped: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Ingest(payload); err != nil {
		t.Fatal(err)
	}

	traces := col.Traces()
	if len(traces) != 1 || traces[0].Key != key || len(traces[0].Spans) != 1 {
		t.Fatalf("traces = %+v, want one trace of one span under %+v", traces, key)
	}
	s := traces[0].Spans[0]
	if !s.Start.Equal(base) {
		t.Fatalf("adjusted start = %v, want unchanged %v (moduleA offset is 0)", s.Start, base)
	}
	if want := base.Add(5 * time.Millisecond); !s.End.Equal(want) {
		t.Fatalf("adjusted end = %v, want %v (2s skew removed)", s.End, want)
	}
	if d := s.Duration(); d != 5*time.Millisecond {
		t.Fatalf("adjusted duration = %v, want 5ms", d)
	}
	if got := col.DroppedSpans(); got != 3 {
		t.Fatalf("DroppedSpans = %d, want 3", got)
	}
	if got := col.TotalSpans(); got != 1 {
		t.Fatalf("TotalSpans = %d, want 1", got)
	}
	// A span whose shifted end lands before its start (an end moduleB
	// did not really stamp with its skewed clock) is clamped, not
	// negative.
	payload, _ = telemetry.EncodeSpanBatch(telemetry.SpanBatch{Module: "moduleB", Spans: []telemetry.Span{
		{Key: key, Stage: "skewed", OriginModule: "moduleA", Start: base, End: base.Add(time.Millisecond)},
	}})
	if err := col.Ingest(payload); err != nil {
		t.Fatal(err)
	}
	if spans := col.Spans(); spans[len(spans)-1].Duration() != 0 {
		t.Fatalf("skewed span duration = %v, want clamped to 0", spans[len(spans)-1].Duration())
	}
	if err := col.Ingest([]byte("{nope")); err == nil {
		t.Fatal("malformed span batch should error")
	}
}

// skewedClock shifts Now() by a fixed offset, modelling a module whose
// wall clock disagrees with the rest of the cluster. Timers are
// unaffected (skew shifts the epoch, not the tick rate).
type skewedClock struct {
	clock.Clock
	off time.Duration
}

func (c skewedClock) Now() time.Time { return c.Clock.Now().Add(c.off) }

// TestDistributedTraceEndToEnd drives a live four-module pipeline —
// sensing (S), Learning (L), Judging (J, with a deliberately skewed
// clock), actuation (A) — plus a management node, and asserts the
// manager's trace collector assembles one cross-module trace with
// ordered, skew-corrected spans.
func TestDistributedTraceEndToEnd(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})

	const skew = 2 * time.Second
	traced := func(id string, clk clock.Clock) Config {
		return Config{
			ID:                  id,
			CapacityOps:         1000,
			Clock:               clk,
			Tracer:              telemetry.NewTracer(clk, 1024),
			TraceExportInterval: 20 * time.Millisecond,
		}
	}

	modS := tc.module(traced("S", nil))
	modS.RegisterSensor(accelSensor("accS", 1, 50))
	modL := tc.module(traced("L", nil))
	jClock := skewedClock{Clock: clock.NewReal(), off: skew}
	modJ := tc.module(traced("J", jClock))
	modA := tc.module(traced("A", nil))
	light := sensor.NewVirtualActuator("alert")
	modA.RegisterActuator(light)

	mods := []*Module{modS, modL, modJ, modA}
	for _, m := range mods {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules visible", func() bool { return len(mgr.Modules()) == len(mods) })

	// The announce beacons teach the collector J's skew before its spans
	// arrive: the manager notes the offset before it lists the module,
	// and spans only flow once the recipe below deploys.

	rec := &recipe.Recipe{
		Name: "traced",
		Tasks: []recipe.Task{
			{ID: "sense", Kind: recipe.KindSense, Output: "t/raw", Params: map[string]string{"sensor": "accS"}},
			{ID: "learn", Kind: recipe.KindTrain, Inputs: []string{"task:sense"}, Output: "t/train",
				Placement: recipe.Placement{Module: "L"}},
			{ID: "detect", Kind: recipe.KindAnomaly, Inputs: []string{"task:sense"}, Output: "t/alerts",
				Params:    map[string]string{"detector": "zscore", "threshold": "50"},
				Placement: recipe.Placement{Module: "J"}},
			{ID: "alert", Kind: recipe.KindActuate, Inputs: []string{"task:detect"},
				Params: map[string]string{"actuator": "alert", "command": "beep"}},
		},
	}
	dep, err := mgr.Deploy(rec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		t.Fatalf("WaitRunning: %v (pending %v)", err, dep.PendingTasks())
	}

	// The collector must assemble at least one flow whose spans cover
	// all four stages across all four modules.
	wantStages := []string{"publish", "learn", "judge", "actuate"}
	var flow telemetry.Trace
	waitFor(t, "assembled cross-module trace", func() bool {
		for _, tr := range mgr.Collector().Traces() {
			byStage := map[string]telemetry.Span{}
			for _, s := range tr.Spans {
				if _, ok := byStage[s.Stage]; !ok {
					byStage[s.Stage] = s
				}
			}
			ok := true
			for _, st := range wantStages {
				if _, found := byStage[st]; !found {
					ok = false
					break
				}
			}
			if ok {
				flow = tr
				return true
			}
		}
		return false
	})

	byStage := map[string]telemetry.Span{}
	for _, s := range flow.Spans {
		if _, ok := byStage[s.Stage]; !ok {
			byStage[s.Stage] = s
		}
	}
	wantModule := map[string]string{"publish": "S", "learn": "L", "judge": "J", "actuate": "A"}
	for stage, mod := range wantModule {
		if got := byStage[stage].Module; got != mod {
			t.Errorf("stage %s recorded by %q, want %q", stage, got, mod)
		}
	}
	if flow.Key.Recipe != "traced" || flow.Key.TaskID != "sense" {
		t.Fatalf("flow key = %+v, want the origin sense task's identity", flow.Key)
	}

	// Spans are cumulative from the sensing instant, so stage end times
	// must respect pipeline order (small tolerance: S/A clocks are
	// reconciled only to announce-beacon precision).
	const tol = 250 * time.Millisecond
	pub, judge, act := byStage["publish"], byStage["judge"], byStage["actuate"]
	if judge.End.Before(pub.End.Add(-tol)) {
		t.Errorf("judge ends %v before publish %v", judge.End, pub.End)
	}
	if act.End.Before(judge.End.Add(-tol)) {
		t.Errorf("actuate ends %v before judge %v", act.End, judge.End)
	}

	// Skew reconciliation: J's raw span carries the 2s clock error, the
	// collector's adjusted span must not.
	if d := judge.Duration(); d >= skew {
		t.Errorf("adjusted judge latency %v still contains the %v skew", d, skew)
	}
	var rawJudge *telemetry.Span
	for _, s := range modJ.cfg.Tracer.Spans() {
		if s.Stage == "judge" && s.Key == flow.Key {
			s := s
			rawJudge = &s
			break
		}
	}
	if rawJudge == nil {
		t.Fatal("J's local tracer retained no judge span for the flow")
	}
	if d := rawJudge.Duration(); d < skew {
		t.Errorf("raw judge latency %v should contain the %v skew", d, skew)
	}

	// The cluster-wide SLO digest covers every stage, and the terminal
	// stage's quantiles are the end-to-end latency distribution.
	sum := mgr.Collector().FlowSummary()
	if sum.Flows == 0 || sum.Spans == 0 {
		t.Fatalf("flow summary empty: %+v", sum)
	}
	seen := map[string]bool{}
	for _, st := range sum.Stages {
		seen[st.Stage] = true
		if st.Count > 0 && st.P95Ms < st.P50Ms {
			t.Errorf("stage %s quantiles not monotone: %+v", st.Stage, st)
		}
	}
	for _, st := range wantStages {
		if !seen[st] {
			t.Errorf("flow summary missing stage %s (got %+v)", st, sum.Stages)
		}
	}
	// DefaultCollectorSpans budgets 6 spans per flow key; a complete
	// flow of this pipeline must fit that budget.
	if n := len(flow.Spans); n > DefaultCollectorSpans/1024 {
		t.Errorf("one flow recorded %d spans, more than the %d per key DefaultCollectorSpans budgets", n, DefaultCollectorSpans/1024)
	}
	t.Logf("spans per flow key: %d (%v)", len(flow.Spans), flowStages(flow))
}

// TestFig9FlowFitsCollectorBudget runs the paper's Fig. 9 application
// with a sensor on each of three modules, so trace contexts propagate:
// the joins on E and F adopt one sensor's key, under which the flow
// records publish, join, learn, join, judge and actuate. No retained key
// may hold more spans than the per-key budget DefaultCollectorSpans
// assumes, or the collector keeps fewer than 1,024 such flow keys.
func TestFig9FlowFitsCollectorBudget(t *testing.T) {
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{})
	cfg := func(id string) Config {
		return Config{ID: id, CapacityOps: 1000, Tracer: telemetry.NewTracer(nil, 1024),
			TraceExportInterval: 20 * time.Millisecond}
	}
	var mods []*Module
	for i, id := range []string{"A", "B", "C"} {
		m := tc.module(cfg(id))
		m.RegisterSensor(accelSensor("acc"+id, uint16(i+1), 50))
		mods = append(mods, m)
	}
	for _, id := range []string{"E", "F", "G"} {
		mods = append(mods, tc.module(cfg(id)))
	}
	mods[5].RegisterActuator(sensor.NewVirtualActuator("light"))
	for _, m := range mods {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "modules visible", func() bool { return len(mgr.Modules()) == len(mods) })

	pin := func(id string) recipe.Placement { return recipe.Placement{Module: id} }
	raw := []string{"task:senseA", "task:senseB", "task:senseC"}
	rec := &recipe.Recipe{Name: "fig9", Tasks: []recipe.Task{
		{ID: "senseA", Kind: recipe.KindSense, Output: "f9/raw/a", Params: map[string]string{"sensor": "accA"}, Placement: pin("A")},
		{ID: "senseB", Kind: recipe.KindSense, Output: "f9/raw/b", Params: map[string]string{"sensor": "accB"}, Placement: pin("B")},
		{ID: "senseC", Kind: recipe.KindSense, Output: "f9/raw/c", Params: map[string]string{"sensor": "accC"}, Placement: pin("C")},
		{ID: "joinE", Kind: recipe.KindAggregate, Inputs: raw, Output: "f9/joined/e", Placement: pin("E")},
		{ID: "train", Kind: recipe.KindTrain, Inputs: []string{"task:joinE"}, Output: "f9/trained", Placement: pin("E")},
		{ID: "joinF", Kind: recipe.KindAggregate, Inputs: raw, Output: "f9/joined/f", Placement: pin("F")},
		{ID: "predict", Kind: recipe.KindPredict, Inputs: []string{"task:joinF"}, Output: "f9/decision",
			Params: map[string]string{"modelFrom": "train"}, Placement: pin("F")},
		{ID: "actuate", Kind: recipe.KindActuate, Inputs: []string{"task:predict"},
			Params: map[string]string{"actuator": "light"}, Placement: pin("G")},
	}}
	dep, err := mgr.Deploy(rec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		t.Fatalf("WaitRunning: %v (pending %v)", err, dep.PendingTasks())
	}

	var flow telemetry.Trace
	waitFor(t, "a flow through every Fig. 9 stage", func() bool {
		for _, tr := range mgr.Collector().Traces() {
			stages := map[string]int{}
			for _, s := range tr.Spans {
				stages[s.Stage]++
			}
			if stages["publish"] == 1 && stages["join"] == 2 && stages["learn"] == 1 &&
				stages["judge"] == 1 && stages["actuate"] == 1 {
				flow = tr
				return true
			}
		}
		return false
	})
	budget := DefaultCollectorSpans / 1024
	for _, tr := range mgr.Collector().Traces() {
		if len(tr.Spans) > budget {
			t.Errorf("key %+v holds %d spans (%v), more than the %d per key DefaultCollectorSpans budgets",
				tr.Key, len(tr.Spans), flowStages(tr), budget)
		}
	}
	t.Logf("spans per Fig. 9 flow key: %d (%v)", len(flow.Spans), flowStages(flow))
}

func flowStages(tr telemetry.Trace) []string {
	out := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		out[i] = s.Stage + "@" + s.Module
	}
	return out
}

// TestTraceCollectorCapsStages ingests one batch naming 200 distinct
// stages — anyone may publish on the trace topic — and asserts the
// collector's histograms and gauge series stop at telemetry.MaxStages
// while every span is still kept and counted.
func TestTraceCollectorCapsStages(t *testing.T) {
	reg := telemetry.NewRegistry()
	col := NewTraceCollector(256)
	col.BindRegistry(reg, "", telemetry.L("scope", "cluster"))
	base := time.Unix(100, 0)
	batch := telemetry.SpanBatch{Module: "rogue"}
	for i := 0; i < 200; i++ {
		batch.Spans = append(batch.Spans, telemetry.Span{
			Key: telemetry.TraceKey{Recipe: "r", TaskID: "t", Seq: 1}, Stage: fmt.Sprintf("stage-%03d", i),
			Start: base, End: base.Add(time.Millisecond),
		})
	}
	payload, err := telemetry.EncodeSpanBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Ingest(payload); err != nil {
		t.Fatal(err)
	}
	if got := len(col.FlowSummary().Stages); got != 64 {
		t.Fatalf("FlowSummary stages = %d, want 64", got)
	}
	if got := reg.SeriesCount(telemetry.DefaultStageMetric); got != 64*4 {
		t.Fatalf("quantile series = %d, want %d", got, 64*4)
	}
	if got := len(col.StageHistograms()); got != 64 {
		t.Fatalf("stage histograms = %d, want 64", got)
	}
	if got := col.TotalSpans(); got != 200 {
		t.Fatalf("TotalSpans = %d, want 200", got)
	}
	if traces := col.Traces(); len(traces) != 1 || len(traces[0].Spans) != 200 {
		t.Fatalf("traces = %d, want one keeping all 200 spans", len(traces))
	}
}

// TestTraceCollectorBoundsOneKey publishes ten times the collector's
// capacity in spans under a single trace key, the way any client on
// ifot/ctrl/trace/# can: the manager must retain at most its capacity
// while /flows still counts every span.
func TestTraceCollectorBoundsOneKey(t *testing.T) {
	const capacity, batches, perBatch = 64, 10, 64
	tc := newTestCluster(t)
	mgr := tc.manager(ManagerConfig{TraceCapacity: capacity})
	pub := tc.rawClient("rogue")
	key := telemetry.TraceKey{Recipe: "r", TaskID: "t", Seq: 1}
	base := time.Unix(100, 0)
	for b := 0; b < batches; b++ {
		batch := telemetry.SpanBatch{Module: "rogue"}
		for i := 0; i < perBatch; i++ {
			batch.Spans = append(batch.Spans, telemetry.Span{Key: key, Stage: "s", Start: base, End: base.Add(time.Millisecond)})
		}
		payload, err := telemetry.EncodeSpanBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Publish(TopicTracePrefix+"rogue", payload, wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	const total = batches * perBatch
	waitFor(t, "every span counted", func() bool { return mgr.Collector().FlowSummary().Spans == total })
	if n := len(mgr.Collector().Spans()); n > capacity {
		t.Fatalf("manager retains %d spans under one key, want at most %d", n, capacity)
	}
	if sum := mgr.Collector().FlowSummary(); sum.Flows != 1 || sum.Spans != total {
		t.Fatalf("/flows = %d flows, %d spans; want 1 flow, %d spans", sum.Flows, sum.Spans, total)
	}
}
