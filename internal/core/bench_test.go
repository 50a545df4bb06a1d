package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/netsim"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// benchBatch builds a joined batch like the Fig. 9 Subscribe-class join:
// one sample per sensor stream, same sequence number.
func benchBatch(sensors int, seq uint32) []sensor.Sample {
	batch := make([]sensor.Sample, sensors)
	for i := range batch {
		batch[i] = sensor.Sample{
			SensorIndex: uint16(i),
			Kind:        sensor.Accelerometer,
			Seq:         seq,
			Timestamp:   time.Unix(1700000000, int64(seq)),
			Values:      [3]float32{float32(i) + 0.5, -float32(i), float32(seq % 7)},
		}
	}
	return batch
}

// benchClassifier returns a PA-I classifier warmed with both labels so the
// classify path scores real weight vectors.
func benchClassifier(sensors int) ml.Classifier {
	clf := ml.NewPassiveAggressive(1)
	for seq := uint32(1); seq <= 64; seq++ {
		batch := benchBatch(sensors, seq)
		label := "pos"
		if seq%2 == 0 {
			label = "neg"
			for i := range batch {
				batch[i].Values[0] = -batch[i].Values[0] - 1
			}
		}
		dv := BatchDense(batch)
		clf.TrainDense(dv, label)
		feature.PutDense(dv)
	}
	return clf
}

func BenchmarkBatchDense(b *testing.B) {
	for _, n := range []int{3, 16} {
		b.Run(fmt.Sprintf("dense/sensors=%d", n), func(b *testing.B) {
			batch := benchBatch(n, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dv := BatchDense(batch)
				if dv.Len() != n*3 {
					b.Fatalf("features = %d", dv.Len())
				}
				feature.PutDense(dv)
			}
		})
	}
}

func BenchmarkClassify(b *testing.B) {
	const sensors = 3
	clf := benchClassifier(sensors)
	batch := benchBatch(sensors, 9)
	dclf := clf.(ml.DenseClassifier)
	b.Run("dense/predict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dv := BatchDense(batch)
			best, err := dclf.BestDense(dv)
			if err != nil || best.Label == "" {
				b.Fatalf("classify: %+v %v", best, err)
			}
			feature.PutDense(dv)
		}
	})
	b.Run("dense/train", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dv := BatchDense(batch)
			dclf.TrainDense(dv, "pos")
			feature.PutDense(dv)
		}
	})
}

// analyzeDense is the interned per-message analysis hot path as wired in
// startPredict: decode → pooled dense features → single-pass BestDense →
// decision JSON.
func analyzeDense(payload []byte, clf ml.DenseClassifier) ([]byte, error) {
	batch, _, err := appendDecodeSamples(nil, payload)
	if err != nil {
		return nil, err
	}
	dv := BatchDense(batch)
	label := ""
	score := 0.0
	if best, err := clf.BestDense(dv); err == nil {
		label, score = best.Label, best.Score
	}
	feature.PutDense(dv)
	d := Decision{
		Kind:     string(recipe.KindPredict),
		Label:    label,
		Score:    score,
		Seq:      batch[0].Seq,
		SensedAt: EarliestTimestamp(batch),
	}
	return d.appendJSON(nil)
}

// analyzeDenseTraced is the same hot path with distributed tracing on, as
// wired in startPredict when a Tracer is set: the payload carries a trace
// trailer, the decision forwards the context, and a cumulative judge span
// is recorded (tracer ring + histogram + export sink).
func analyzeDenseTraced(payload []byte, clf ml.DenseClassifier, tr *telemetry.Tracer) ([]byte, error) {
	batch, tctx, err := appendDecodeSamples(nil, payload)
	if err != nil {
		return nil, err
	}
	dv := BatchDense(batch)
	label := ""
	score := 0.0
	if best, err := clf.BestDense(dv); err == nil {
		label, score = best.Label, best.Score
	}
	feature.PutDense(dv)
	d := Decision{
		Kind:     string(recipe.KindPredict),
		Label:    label,
		Score:    score,
		Seq:      batch[0].Seq,
		SensedAt: EarliestTimestamp(batch),
		Trace:    forward(tctx),
	}
	out, err := d.appendJSON(nil)
	if err != nil {
		return nil, err
	}
	if tctx != nil {
		end := tr.Now()
		from := tctx.Origin()
		if from.After(end) {
			from = end
		}
		tr.Record(telemetry.Span{
			Key: tctx.Key, Stage: "judge", Module: "bench",
			OriginModule: tctx.OriginModule, Start: from, End: end,
		})
	}
	return out, nil
}

// BenchmarkAnalysisPipeline measures the neuron-side analysis path end to
// end (decode → features → classify → decision) as a pure in-process loop.
// The dense-traced variant adds the full distributed-tracing cost (trailer
// decode, context forward, span record + export sink) and must stay within
// 5% of dense.
func BenchmarkAnalysisPipeline(b *testing.B) {
	const sensors = 3
	clf := benchClassifier(sensors)
	payload, err := EncodeBatch(benchBatch(sensors, 9))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dense", func(b *testing.B) {
		dclf := clf.(ml.DenseClassifier)
		b.ReportAllocs()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := analyzeDense(payload, dclf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "msgs/sec")
	})
	// runStream drives the traced analysis path over one sampling period
	// of distinct messages (32 flows), as an upstream sense task with
	// TraceSampleEvery=sampleEvery emits them: flows whose seq divides
	// sampleEvery carry a trace trailer, the rest ship bare. sampleEvery=0
	// disables tracing entirely — the baseline over the identical stream,
	// so the traced/untraced delta is pure tracing cost (a fixed single
	// payload, as the plain dense case uses, flatters both sides equally
	// but hides nothing).
	const period = 32
	runStream := func(b *testing.B, sampleEvery uint32) {
		dclf := clf.(ml.DenseClassifier)
		payloads := make([][]byte, period)
		for seq := uint32(0); seq < period; seq++ {
			batch := benchBatch(sensors, seq)
			var err error
			if sampleEvery > 0 && seq%sampleEvery == 0 {
				payloads[seq], err = AppendEncodeBatch(nil, batch, &TraceContext{
					Key:            telemetry.TraceKey{Recipe: "bench", TaskID: "sense", Seq: seq},
					OriginUnixNano: batch[0].Timestamp.UnixNano(),
					OriginModule:   "benchSensor",
					Hops:           1,
				})
			} else {
				payloads[seq], err = EncodeBatch(batch)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		tr := telemetry.NewTracer(nil, telemetry.DefaultTraceCapacity)
		b.ReportAllocs()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := analyzeDenseTraced(payloads[uint32(i)%period], dclf, tr); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "msgs/sec")
	}
	// Baseline: the same 32-flow stream with tracing off.
	b.Run("dense-untraced", func(b *testing.B) { runStream(b, 0) })
	// Tracing at the neuron daemon's default 1-in-32 flow sampling: the
	// acceptance bar is ≤5% below dense-untraced.
	b.Run("dense-traced", func(b *testing.B) { runStream(b, 32) })
	// Every flow traced (TraceSampleEvery=1): the worst case, recorded so
	// the full per-message cost of tracing stays visible.
	b.Run("dense-traced-all", func(b *testing.B) { runStream(b, 1) })
	// Structured event emission alongside the untraced stream, at the
	// worst cadence the rate-limited emitters produce under sustained
	// pressure (one event per 32-message period, exported from the ring as
	// the MQTT exporter would). The acceptance bar is ≤5%
	// below dense-untraced — event reporting must be invisible on the
	// analysis path.
	b.Run("dense-events", func(b *testing.B) {
		dclf := clf.(ml.DenseClassifier)
		payloads := make([][]byte, period)
		for seq := uint32(0); seq < period; seq++ {
			p, err := EncodeBatch(benchBatch(sensors, seq))
			if err != nil {
				b.Fatal(err)
			}
			payloads[seq] = p
		}
		events := telemetry.NewEventLog(0)
		b.ReportAllocs()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if uint32(i)%period == 0 {
				events.Eventf(telemetry.SevWarn, "bench", "mix_bad_payload", "topic", "bench/stream")
				// Export as the periodic exporter would: far less often
				// than events are emitted, before the ring wraps.
				if uint32(i)%(period*128) == 0 {
					events.ExportBatch("bench", time.Time{})
				}
			}
			if _, err := analyzeDense(payloads[uint32(i)%period], dclf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "msgs/sec")
	})
}

// BenchmarkAnalysisPipelineLanes runs the same analysis handler behind a
// real broker and mqttclient dispatch across 4 subscriptions — the
// per-lane variant. The publisher is paced by a fixed in-flight window so
// nothing is dropped anywhere (drops/op is reported and must be 0);
// msgs/sec therefore measures sustained analyzed throughput.
func BenchmarkAnalysisPipelineLanes(b *testing.B) {
	const (
		sensors = 3
		topics  = 4
		window  = 128
	)
	br := broker.New(broker.Options{})
	listener := netsim.NewPipeListener()
	go func() { _ = br.Serve(listener) }()
	defer func() { _ = br.Close(); _ = listener.Close() }()

	clf := benchClassifier(sensors)
	payload, err := EncodeBatch(benchBatch(sensors, 9))
	if err != nil {
		b.Fatal(err)
	}

	subConn, err := listener.Dial()
	if err != nil {
		b.Fatal(err)
	}
	subCl, err := mqttclient.Connect(subConn, mqttclient.NewOptions("bench-analyze"))
	if err != nil {
		b.Fatal(err)
	}
	defer subCl.Close()

	dclf := clf.(ml.DenseClassifier)
	var processed atomic.Int64
	for i := 0; i < topics; i++ {
		topic := fmt.Sprintf("bench/analysis/%d", i)
		if _, err := subCl.Subscribe(topic, wire.QoS0, func(m mqttclient.Message) {
			if _, err := analyzeDense(m.Payload, dclf); err == nil {
				processed.Add(1)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}

	pubConn, err := listener.Dial()
	if err != nil {
		b.Fatal(err)
	}
	pubCl, err := mqttclient.Connect(pubConn, mqttclient.NewOptions("bench-feed"))
	if err != nil {
		b.Fatal(err)
	}
	defer pubCl.Close()

	topicNames := make([]string, topics)
	for i := range topicNames {
		topicNames[i] = fmt.Sprintf("bench/analysis/%d", i)
	}

	dropsBefore := br.Stats().MessagesDropped
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		// Pace: cap the in-flight window so queues never overflow.
		for int64(i)-processed.Load() > window {
			time.Sleep(10 * time.Microsecond)
		}
		if err := pubCl.Publish(topicNames[i%topics], payload, wire.QoS0, false); err != nil {
			b.Fatal(err)
		}
	}
	for processed.Load() < int64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "msgs/sec")
	b.ReportMetric(float64(br.Stats().MessagesDropped-dropsBefore)/float64(b.N), "drops/op")
}
