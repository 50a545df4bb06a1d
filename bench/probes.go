package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/flow"
	"github.com/ifot-middleware/ifot/internal/ml"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Layer probes: after a traced run, the payloads the workload itself sent
// are replayed single-threaded through each layer's public entry points,
// and each call's time and allocations are reported. They say what a call
// costs in isolation; what it costs under load is the stage spans' and CPU
// shares' business. A probe runs only for workloads whose flows make that
// call (the ml probes all run on analysis_wide, the workload built to show
// an ml change); elsewhere the metric is left out.

const probeBudget = 40 * time.Millisecond

// sink keeps the compiler from discarding a probed call's result.
var sink any

// probe calls fn repeatedly for about probeBudget and returns the time
// and heap allocations of one call.
func probe(fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm caches and pools
	objs := []metrics.Sample{{Name: rmAllocObjects}}
	metrics.Read(objs)
	before := objs[0].Value.Uint64()
	began := time.Now()
	n := 0
	for batch := 16; time.Since(began) < probeBudget; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	elapsed := time.Since(began)
	metrics.Read(objs)
	return float64(elapsed) / float64(n), float64(objs[0].Value.Uint64()-before) / float64(n)
}

// probeInput is what a finished run hands the probes.
type probeInput struct {
	workload string
	topics   []string // topics the workload publishes on, in order
	payloads [][]byte // payloads it published, payloads[i] on topics[i%len(topics)]
	filters  [][]string
	scratch  string
}

// runProbes fills out with every probe that applies to the workload.
func runProbes(in probeInput, out map[string]float64) error {
	if len(in.payloads) == 0 {
		return fmt.Errorf("no recorded payloads to replay")
	}
	probeWire(in, out)
	if err := probeBroker(in, out); err != nil {
		return err
	}
	if in.workload == "broker_relay" {
		return nil
	}
	batches := probeBatches(in)
	probeCore(batches, out)
	probeML(in.workload == "analysis_wide", batches, out)
	if in.workload != "analysis_wide" {
		probeJoin(in, out)
	}
	if in.workload == "fig9_durable" {
		return probeStore(in.scratch, out)
	}
	return nil
}

func probeWire(in probeInput, out map[string]float64) {
	var buf []byte
	i := 0
	encNs, encAllocs := probe(func() {
		buf, _ = wire.AppendEncodePublish(buf[:0], in.topics[i%len(in.topics)], in.payloads[i%len(in.payloads)])
		i++
	})
	frame, _ := wire.AppendEncodePublish(nil, in.topics[0], in.payloads[0])
	rd := bytes.NewReader(frame)
	decNs, decAllocs := probe(func() {
		rd.Reset(frame)
		sink, _ = wire.ReadPacket(rd, 0)
	})
	out["wire.encode_publish_ns"] = encNs
	out["wire.decode_publish_ns"] = decNs
	out["wire.allocs_per_packet"] = encAllocs + decAllocs
}

// probeBroker times Broker.Publish into the workload's subscription set.
// The sessions are real connections drained by reader goroutines; calls
// go out in bursts the default session queue holds, and only the calls
// are timed, not the waits for the drain between bursts.
func probeBroker(in probeInput, out map[string]float64) error {
	b := broker.New(broker.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = b.Serve(l)
	}()
	var drains sync.WaitGroup
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		drains.Wait()
		_ = b.Close()
		l.Close()
		<-served
	}()
	for i, filters := range in.filters {
		c, err := rawSubscribe(l.Addr().String(), fmt.Sprintf("probe-%d", i), filters)
		if err != nil {
			return err
		}
		conns = append(conns, c)
		drains.Add(1)
		go func() {
			defer drains.Done()
			_, _ = io.Copy(io.Discard, c)
		}()
	}
	const burst = 128
	var spent time.Duration
	calls := 0
	for spent < probeBudget {
		settled := b.Stats()
		began := time.Now()
		for i := 0; i < burst; i++ {
			b.Publish(in.topics[calls%len(in.topics)], in.payloads[calls%len(in.payloads)], wire.QoS0, false)
			calls++
		}
		spent += time.Since(began)
		// Let the writers drain before the next burst, for at most a moment.
		for wait := time.Now().Add(50 * time.Millisecond); time.Now().Before(wait); {
			st := b.Stats()
			if st.MessagesDelivered+st.MessagesDropped-settled.MessagesDelivered-settled.MessagesDropped >= burst {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	out["broker.publish_ns"] = float64(spent) / float64(calls)
	return nil
}

// probeBatches rebuilds the joined batches the workload's tasks saw from
// the payloads its generator sent: analysis_wide sends batches as they
// are; the fig9 workloads send raw samples that the join assembles three
// at a time.
func probeBatches(in probeInput) [][]sensor.Sample {
	var batches [][]sensor.Sample
	if in.workload == "analysis_wide" {
		for _, p := range in.payloads {
			if b, err := core.DecodeBatch(p); err == nil {
				batches = append(batches, b)
			}
		}
		return batches
	}
	for i := 0; i+fig9Sensors <= len(in.payloads); i += fig9Sensors {
		var b []sensor.Sample
		for _, p := range in.payloads[i : i+fig9Sensors] {
			if s, err := sensor.DecodeSample(p); err == nil {
				b = append(b, s)
			}
		}
		batches = append(batches, b)
	}
	return batches
}

func probeCore(batches [][]sensor.Sample, out map[string]float64) {
	i := 0
	next := func() []sensor.Sample { i++; return batches[i%len(batches)] }
	out["core.encode_batch_ns"], _ = probe(func() { sink, _ = core.EncodeBatch(next()) })
	payload, _ := core.EncodeBatch(batches[0])
	out["core.decode_batch_ns"], _ = probe(func() { sink, _ = core.DecodeBatch(payload) })
	out["core.batch_dense_ns"], _ = probe(func() { feature.PutDense(core.BatchDense(next())) })
	now := time.Now()
	dec := core.Decision{Recipe: "probe", TaskID: "predict", Kind: "predict", Label: "pos", Score: 1.25, Seq: 7, SensedAt: now, At: now}
	out["core.encode_decision_ns"], _ = probe(func() { dec.Seq++; sink = core.EncodeJSON(dec) })
	encoded := core.EncodeJSON(dec)
	out["core.decode_decision_ns"], _ = probe(func() {
		var d core.Decision
		_ = core.DecodeJSON(encoded, &d)
		sink = d.Seq
	})
	// One flow's worth of analysis work as the train and predict tasks do
	// it: decode, featurize, learn, judge, encode both results.
	clf := ml.NewPassiveAggressive(1)
	_, out["core.analysis_allocs_per_flow"] = probe(func() {
		batch, _ := core.DecodeBatch(payload)
		dv := core.BatchDense(batch)
		clf.TrainDense(dv, "pos")
		best, _ := clf.BestDense(dv)
		feature.PutDense(dv)
		sink = core.EncodeJSON(core.TrainEvent{Recipe: "probe", TaskID: "train", Seq: 7, SensedAt: now, At: now})
		dec.Label, dec.Score = best.Label, best.Score
		sink = core.EncodeJSON(dec)
	})
}

func probeML(all bool, batches [][]sensor.Sample, out map[string]float64) {
	i := 0
	labels := []string{"pos", "neg"}
	clf := ml.NewPassiveAggressive(1)
	out["ml.train_dense_ns"], _ = probe(func() {
		i++
		dv := core.BatchDense(batches[i%len(batches)])
		clf.TrainDense(dv, labels[i%2])
		feature.PutDense(dv)
	})
	out["ml.best_dense_ns"], _ = probe(func() {
		i++
		dv := core.BatchDense(batches[i%len(batches)])
		sink, _ = clf.BestDense(dv)
		feature.PutDense(dv)
	})
	if !all {
		return
	}
	// The anomaly task scores one three-channel vector per sample.
	syms := feature.DefaultSymbols()
	ids := [3]uint32{syms.Intern("probe.raw0"), syms.Intern("probe.raw1"), syms.Intern("probe.raw2")}
	sample := func() *feature.DenseVec {
		i++
		b := batches[i%len(batches)]
		s := b[i%len(b)]
		dv := feature.GetDense()
		for ch, v := range s.Values {
			dv.Append(ids[ch], float64(v))
		}
		return dv
	}
	z := ml.NewZScoreDetector()
	out["ml.zscore_ns"], _ = probe(func() {
		dv := sample()
		sink = z.AddDense(dv)
		feature.PutDense(dv)
	})
	knn := ml.NewKNNAnomalyDetector(5, 256) // the anomaly task's defaults
	for n := 0; n < 256; n++ {
		dv := sample()
		knn.AddDense(dv)
		feature.PutDense(dv)
	}
	ns, _ := probe(func() {
		dv := sample()
		sink = knn.AddDense(dv)
		feature.PutDense(dv)
	})
	out["ml.knn_score_us"] = ns / 1e3
	km := ml.NewSequentialKMeans(wideClusters)
	out["ml.kmeans_add_ns"], _ = probe(func() {
		i++
		dv := core.BatchDense(batches[i%len(batches)])
		sink = km.AddDense(dv)
		feature.PutDense(dv)
	})
}

func probeJoin(in probeInput, out map[string]float64) {
	j := flow.NewJoiner(fig9RawTopics, 0, func(uint32, []sensor.Sample) {})
	var samples []sensor.Sample
	for _, p := range in.payloads {
		if s, err := sensor.DecodeSample(p); err == nil {
			samples = append(samples, s)
		}
	}
	if len(samples) == 0 {
		return
	}
	i := 0
	out["flow.join_push_ns"], _ = probe(func() {
		s := samples[i%len(samples)]
		s.Seq = uint32(i / fig9Sensors) // keep sequence numbers rising across replays
		j.Push(fig9RawTopics[i%fig9Sensors], s)
		i++
	})
}

func probeStore(scratch string, out map[string]float64) error {
	dir := filepath.Join(scratch, "probe-store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{SyncDelay: brokerSyncDelay})
	if err != nil {
		return err
	}
	rec := make([]byte, 64)
	out["store.append_ns"], _ = probe(func() { _ = st.Append(rec) })
	began := time.Now()
	const syncs = 10
	for i := 0; i < syncs; i++ {
		if err := st.AppendSync(rec); err != nil {
			st.Close()
			return err
		}
	}
	out["store.append_sync_us"] = float64(time.Since(began)) / syncs / 1e3
	return st.Close()
}
