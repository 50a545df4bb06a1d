package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

func dataplaneTrace() *TraceContext {
	return &TraceContext{
		Key:            telemetry.TraceKey{Recipe: "fig9", TaskID: "sense", Seq: 7},
		OriginUnixNano: 1700000000123456789, OriginModule: "moduleA", Hops: 1,
	}
}

// startRecipe starts every subtask of rec on m, downstream first so each
// consumer is subscribed before its producer publishes.
func startRecipe(t *testing.T, m *Module, rec recipe.Recipe) {
	t.Helper()
	subs, err := recipe.Split(&rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(subs) - 1; i >= 0; i-- {
		if err := m.StartTask(rec, subs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendEncodeBatchAllocs: encoding a batch, traced or not, into a
// buffer with room allocates nothing and writes the bytes a fresh encode does.
func TestAppendEncodeBatchAllocs(t *testing.T) {
	batch := benchBatch(3, 7)
	buf := make([]byte, 0, 512)
	for _, tc := range []*TraceContext{nil, dataplaneTrace()} {
		want, err := AppendEncodeBatch(nil, batch, tc)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := AppendEncodeBatch(buf[:0], batch, tc); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendEncodeBatch(traced %v) = %x, %v; want %x", tc != nil, got, err, want)
		}
		if n := testing.AllocsPerRun(1000, func() { buf, _ = AppendEncodeBatch(buf[:0], batch, tc) }); n != 0 {
			t.Errorf("AppendEncodeBatch(traced %v): %v allocs, want 0", tc != nil, n)
		}
	}
}

// TestAppendDecodeSamplesAllocs: decoding a bare sample or an untraced
// batch into a lane's scratch slice allocates nothing.
func TestAppendDecodeSamplesAllocs(t *testing.T) {
	batch := benchBatch(3, 7)
	bare := batch[1].Encode()
	payload, err := EncodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]sensor.Sample, 0, 16)
	for name, c := range map[string]struct {
		payload []byte
		want    []sensor.Sample
	}{"bare sample": {bare, batch[1:2]}, "batch": {payload, batch}} {
		got, tc, err := appendDecodeSamples(scratch[:0], c.payload)
		if err != nil || tc != nil || len(got) != len(c.want) {
			t.Fatalf("%s: decoded %d samples, tc %v, err %v", name, len(got), tc, err)
		}
		for i := range got {
			if got[i].Seq != c.want[i].Seq || got[i].Values != c.want[i].Values || !got[i].Timestamp.Equal(c.want[i].Timestamp) {
				t.Fatalf("%s: sample %d = %+v, want %+v", name, i, got[i], c.want[i])
			}
		}
		if &got[0] != &scratch[:1][0] {
			t.Fatalf("%s: decoded outside the scratch slice", name)
		}
		if n := testing.AllocsPerRun(1000, func() { scratch, _, _ = appendDecodeSamples(scratch[:0], c.payload) }); n != 0 {
			t.Errorf("%s: %v allocs, want 0", name, n)
		}
	}
	// A malformed payload leaves the scratch slice as it was.
	if got, _, err := appendDecodeSamples(scratch[:0], payload[:40]); err == nil || len(got) != 0 || cap(got) != cap(scratch) {
		t.Fatalf("truncated batch: %d samples (cap %d), err %v", len(got), cap(got), err)
	}
}

// A trace context the trailer cannot carry (a string over 255 bytes)
// costs the trace, never the data: the batch or sample goes out untraced.
func TestPayloadFallsBackUntraced(t *testing.T) {
	batch := benchBatch(3, 7)
	long := dataplaneTrace()
	long.Key.Recipe = strings.Repeat("r", 300)
	if _, err := AppendEncodeBatch(nil, batch, long); err == nil {
		t.Fatal("a 300-byte recipe name fit the trace trailer")
	}
	want, _ := EncodeBatch(batch)
	if got, err := appendBatchPayload(nil, batch, long); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("appendBatchPayload = %x, %v; want the untraced batch %x", got, err, want)
	}
	if got := appendSamplePayload(nil, batch[0], long); !bytes.Equal(got, batch[0].Encode()) {
		t.Fatalf("appendSamplePayload = %x, want the bare sample", got)
	}
	traced, _ := AppendEncodeBatch(nil, batch, dataplaneTrace())
	if got, err := appendBatchPayload(nil, batch, dataplaneTrace()); err != nil || !bytes.Equal(got, traced) {
		t.Fatalf("appendBatchPayload(fitting trace) = %x, %v; want %x", got, err, traced)
	}
}

// A traced pipeline under a recipe name too long for the trace trailer
// still delivers its joined batches: the sense tasks publish bare samples
// and the join publishes untraced.
func TestTracedJoinLongRecipeNameDelivers(t *testing.T) {
	tc := newTestCluster(t)
	m := tc.module(Config{ID: "node", Tracer: telemetry.NewTracer(nil, 256), TraceSampleEvery: 1})
	m.RegisterSensor(accelSensor("a", 1, 200))
	m.RegisterSensor(accelSensor("b", 2, 200))
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	joined := make(chan []sensor.Sample, 64)
	if err := m.Subscribe("long/joined", func(msg mqttclient.Message) {
		batch, err := DecodeBatch(msg.Payload)
		if err != nil {
			t.Errorf("joined payload: %v", err)
			return
		}
		select {
		case joined <- batch:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	startRecipe(t, m, recipe.Recipe{Name: strings.Repeat("n", 300), Tasks: []recipe.Task{
		{ID: "sa", Kind: recipe.KindSense, Output: "long/a", Params: map[string]string{"sensor": "a"}},
		{ID: "sb", Kind: recipe.KindSense, Output: "long/b", Params: map[string]string{"sensor": "b"}},
		{ID: "join", Kind: recipe.KindAggregate, Inputs: []string{"task:sa", "task:sb"}, Output: "long/joined"},
	}})
	deadline := time.After(10 * time.Second)
	for n := 0; n < 5; n++ {
		select {
		case batch := <-joined:
			if len(batch) != 2 || batch[0].Seq != batch[1].Seq || batch[0].SensorIndex != 1 || batch[1].SensorIndex != 2 {
				t.Fatalf("joined batch %+v", batch)
			}
		case <-deadline:
			t.Fatalf("only %d joined batches delivered", n)
		}
	}
}

// A kNN anomaly task over a stuck stream that then steps publishes the
// step as an anomaly on its output (its score saturates finitely), and no
// handler panics on the way.
func TestAnomalyAfterStuckStreamPublished(t *testing.T) {
	tc := newTestCluster(t)
	observed := make(chan Decision, 64)
	m := tc.module(Config{ID: "node", Observer: Observer{OnDecision: func(d Decision) {
		select {
		case observed <- d:
		default:
		}
	}}})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	published := make(chan Decision, 64)
	if err := m.Subscribe("stuck/alerts", func(msg mqttclient.Message) {
		var d Decision
		if err := DecodeJSON(msg.Payload, &d); err != nil {
			t.Errorf("alert payload %q: %v", msg.Payload, err)
			return
		}
		published <- d
	}); err != nil {
		t.Fatal(err)
	}
	startRecipe(t, m, recipe.Recipe{Name: "stuck", Tasks: []recipe.Task{
		{ID: "watch", Kind: recipe.KindAnomaly, Inputs: []string{"stuck/in"}, Output: "stuck/alerts",
			Params: map[string]string{"detector": "knn"}},
	}})
	const stuck = 20
	for seq := uint32(1); seq <= stuck+1; seq++ {
		v := [3]float32{1, 2, 3}
		if seq > stuck {
			v[0] = 5 // the stuck sensor moves
		}
		s := sensor.Sample{SensorIndex: 1, Kind: sensor.Accelerometer, Seq: seq, Timestamp: time.Now(), Values: v}
		if err := m.Publish("stuck/in", s.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for n := 0; n <= stuck; n++ {
		select {
		case d := <-published:
			if d.Seq <= stuck {
				if d.Label != "normal" {
					t.Fatalf("stuck sample %d judged %q (score %v)", d.Seq, d.Label, d.Score)
				}
				continue
			}
			if d.Label != "anomaly" || d.Score != math.MaxFloat64 {
				t.Fatalf("step judged %q with score %v, want anomaly at %v", d.Label, d.Score, math.MaxFloat64)
			}
		case <-deadline:
			t.Fatalf("only %d of %d decisions published", n, stuck+1)
		}
	}
	waitFor(t, "the observer to see every decision", func() bool { return len(observed) == stuck+1 })
	for _, ev := range m.Events().Events(0, time.Time{}) {
		if ev.Kind == "handler_panic" {
			t.Fatalf("handler panicked: %v", ev.Fields)
		}
	}
}

// The actuator decodes into one Decision per lane and resets it per
// message: a label one decision carries must not leak into the next that
// omits it.
func TestActuatorDecisionResetPerMessage(t *testing.T) {
	tc := newTestCluster(t)
	m := tc.module(Config{ID: "node"})
	light := sensor.NewVirtualActuator("light")
	m.RegisterActuator(light)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	startRecipe(t, m, recipe.Recipe{Name: "act", Tasks: []recipe.Task{
		{ID: "act", Kind: recipe.KindActuate, Inputs: []string{"act/in"}, Params: map[string]string{"actuator": "light"}},
	}})
	for _, payload := range []string{`{"kind":"predict","label":"on","score":1,"seq":1}`, `{"kind":"predict","score":2,"seq":2}`} {
		if err := m.Publish("act/in", []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "two commands", func() bool { return light.CommandCount() == 2 })
	h := light.History()
	if h[0].Detail != "on" || h[0].Value != 1 || h[1].Detail != "" || h[1].Value != 2 {
		t.Fatalf("commands %+v, want detail \"on\" then \"\"", h)
	}
}

// laneBatch is lane's seq-th three-sample batch: the samples arrive out of
// timestamp order, and every field derives from (lane, seq), so a sample
// from another lane's or another message's batch shows.
func laneBatch(lane int, seq uint32, base time.Time) []sensor.Sample {
	at := base.Add(time.Duration(seq) * time.Millisecond)
	b := make([]sensor.Sample, 3)
	for i := range b {
		b[i] = sensor.Sample{
			SensorIndex: uint16(lane*10 + i), Kind: sensor.Accelerometer, Seq: seq,
			Timestamp: at.Add(time.Duration((i+1)%3) * time.Microsecond),
			Values:    [3]float32{float32(seq), float32(lane), float32(i)},
		}
	}
	return b
}

// paced publishes n messages from each of three goroutines, keeping at
// most 16 per lane unanswered so no queue on the way overflows.
func paced(t *testing.T, n int, answered func(lane int) int64, publish func(lane int, seq uint32) error) {
	t.Helper()
	var wg sync.WaitGroup
	for lane := 0; lane < 3; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for seq := uint32(1); seq <= uint32(n); seq++ {
				deadline := time.Now().Add(10 * time.Second)
				for int64(seq)-answered(lane) > 16 && time.Now().Before(deadline) {
					time.Sleep(50 * time.Microsecond)
				}
				if err := publish(lane, seq); err != nil {
					t.Error(err)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
}

// TestJoinThreeLanesIntact runs a three-source join whose input lanes
// decode into their own scratch slices while sharing the joiner's free
// list and the payload pool: every joined batch published holds its own
// seq's samples in source order.
func TestJoinThreeLanesIntact(t *testing.T) {
	const flows = 300
	tc := newTestCluster(t)
	m := tc.module(Config{ID: "node"})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	var joined atomic.Int64
	if err := m.Subscribe("lanes/joined", func(msg mqttclient.Message) {
		batch, err := DecodeBatch(msg.Payload)
		if err != nil || len(batch) != 3 {
			t.Errorf("joined payload: %d samples, %v", len(batch), err)
			return
		}
		for i, s := range batch {
			if s.Seq != batch[0].Seq || s.SensorIndex != uint16(i) || s.Values != [3]float32{float32(s.Seq), float32(i), 0} {
				t.Errorf("joined batch for seq %d slot %d holds %+v", batch[0].Seq, i, s)
			}
		}
		joined.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	topics := []string{"lanes/a", "lanes/b", "lanes/c"}
	startRecipe(t, m, recipe.Recipe{Name: "lanes", Tasks: []recipe.Task{
		{ID: "join", Kind: recipe.KindAggregate, Inputs: topics, Output: "lanes/joined"},
	}})
	base := time.Now()
	paced(t, flows, func(int) int64 { return joined.Load() }, func(lane int, seq uint32) error {
		s := sensor.Sample{SensorIndex: uint16(lane), Seq: seq, Timestamp: base.Add(time.Duration(seq)), Values: [3]float32{float32(seq), float32(lane), 0}}
		return m.Publish(topics[lane], s.Encode())
	})
	waitFor(t, fmt.Sprintf("%d joined batches", flows), func() bool { return joined.Load() == flows })
}

// TestBatchTaskThreeLanesIntact runs a judging task on three input lanes,
// each decoding into its own scratch slice, all encoding decisions into
// pooled buffers: every decision, observed and published, carries its own
// batch's seq and earliest timestamp.
func TestBatchTaskThreeLanesIntact(t *testing.T) {
	const flows = 300
	base := time.Unix(1700000000, 0)
	tc := newTestCluster(t)
	var observed [3]atomic.Int64
	check := func(how string, d Decision) {
		lane, seq := int(d.Seq/10000), d.Seq%10000
		if want := EarliestTimestamp(laneBatch(lane, seq, base)); lane > 2 || !d.SensedAt.Equal(want) {
			t.Errorf("%s decision seq %d sensed at %v, want %v", how, d.Seq, d.SensedAt, want)
		}
	}
	m := tc.module(Config{ID: "node", Observer: Observer{OnDecision: func(d Decision) {
		check("observed", d)
		observed[min(d.Seq/10000, 2)].Add(1)
	}}})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	var published atomic.Int64
	if err := m.Subscribe("bt/decisions", func(msg mqttclient.Message) {
		var d Decision
		if err := DecodeJSON(msg.Payload, &d); err != nil {
			t.Errorf("decision payload %q: %v", msg.Payload, err)
			return
		}
		check("published", d)
		published.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	topics := []string{"bt/a", "bt/b", "bt/c"}
	startRecipe(t, m, recipe.Recipe{Name: "bt", Tasks: []recipe.Task{
		{ID: "judge", Kind: recipe.KindPredict, Inputs: topics, Output: "bt/decisions"},
	}})
	paced(t, flows, func(lane int) int64 { return observed[lane].Load() }, func(lane int, seq uint32) error {
		batch := laneBatch(lane, seq, base)
		for i := range batch {
			batch[i].Seq += uint32(lane) * 10000
		}
		payload, err := EncodeBatch(batch)
		if err != nil {
			return err
		}
		return m.Publish(topics[lane], payload)
	})
	waitFor(t, "every decision published", func() bool { return published.Load() == 3*flows })
}
