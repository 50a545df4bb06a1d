package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/bench/benchfmt"
	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Sizes of the module workloads.
const (
	fig9Sensors   = 3    // Fig. 9: streams A, B, C
	fig9PacedRate = 1000 // flows/s offered by fig9_paced
	fig9Window    = 32   // flows in flight, fig9_saturate
	wideBatch     = 16   // samples per pre-joined analysis_wide batch
	wideWindow    = 16   // flows in flight, analysis_wide
	wideClusters  = 8    // k of the cluster task

	// fig9_durable runs close to the capacity of its acknowledged hops, so
	// its latencies fall in two groups: flows that found the hops free and
	// flows that queued. With 32 in flight the groups split 45:55 and the
	// median sits on the edge between them, moving by half from run to
	// run; with 16 they split 70:30, and p50 and p95 each sit well inside
	// one group.
	durableWindow = 16

	// Every 100th analysis_wide flow is a planted spike of 20 times the
	// magnitude: some 40 a window, so that one miss cannot fail the recall
	// check.
	wideSpikeEvery = 100
	wideSpikeScale = 20

	minAccuracy      = 0.9 // ml.predict_accuracy and ml.spike_recall floor
	lateInvalidAfter = 50 * time.Millisecond
)

// flowSpec describes one module workload: what the generator sends, how
// it is paced, and the recipe that consumes it.
type flowSpec struct {
	wide    bool          // analysis_wide: one pre-joined batch per flow, four analysis tasks
	window  int           // closed loop: flows in flight
	period  time.Duration // open loop: time between flows
	durable bool          // fig9_durable
}

func (fs flowSpec) pubsPerFlow() int {
	if fs.wide {
		return 1
	}
	return fig9Sensors
}

// Topics of the two recipes. Raw and batch topics are plain topics the
// tasks name directly as inputs, so the benchmark's generator — not a
// sense task pacing itself — decides when samples enter the system.
var (
	fig9RawTopics = []string{"fig9/raw/a", "fig9/raw/b", "fig9/raw/c"}
	fig9RawFilter = "fig9/raw/+"
	fig9JoinE     = "fig9/joined/e"
	fig9JoinF     = "fig9/joined/f"
	fig9JoinAny   = "fig9/joined/+"
	wideBatchIn   = "wide/batch"
)

// fig9Recipe is the paper's Fig. 9 application: the three streams joined
// and learned from on module E, joined and judged on module F with E's
// model, and the decision actuated on module G.
func fig9Recipe() *recipe.Recipe {
	pin := func(id string) recipe.Placement { return recipe.Placement{Module: id} }
	return &recipe.Recipe{Name: "fig9", Tasks: []recipe.Task{
		{ID: "joinE", Kind: recipe.KindAggregate, Inputs: fig9RawTopics, Output: fig9JoinE, Placement: pin("moduleE")},
		{ID: "train", Kind: recipe.KindTrain, Inputs: []string{"task:joinE"}, Output: "fig9/trained", Placement: pin("moduleE")},
		{ID: "joinF", Kind: recipe.KindAggregate, Inputs: fig9RawTopics, Output: fig9JoinF, Placement: pin("moduleF")},
		{ID: "predict", Kind: recipe.KindPredict, Inputs: []string{"task:joinF"}, Output: "fig9/decision",
			Params: map[string]string{"modelFrom": "train"}, Placement: pin("moduleF")},
		{ID: "actuate", Kind: recipe.KindActuate, Inputs: []string{"task:predict"},
			Params: map[string]string{"actuator": "light"}, Placement: pin("moduleG")},
	}}
}

// wideRecipe runs the four analysis classes on one module over one
// pre-joined input. The trainer keeps the default passive-aggressive
// model rather than the issue's AROW: AROW exports no weights, so a
// modelFrom predictor would never receive a model and every decision
// would carry the empty label.
func wideRecipe() *recipe.Recipe {
	in := []string{wideBatchIn}
	pin := recipe.Placement{Module: "moduleW"}
	return &recipe.Recipe{Name: "wide", Tasks: []recipe.Task{
		{ID: "train", Kind: recipe.KindTrain, Inputs: in, Output: "wide/trained", Placement: pin},
		{ID: "predict", Kind: recipe.KindPredict, Inputs: in, Output: "wide/decision",
			Params: map[string]string{"modelFrom": "train"}, Placement: pin},
		{ID: "anomaly", Kind: recipe.KindAnomaly, Inputs: in, Output: "wide/anomaly",
			Params: map[string]string{"detector": "knn"}, Placement: pin},
		{ID: "cluster", Kind: recipe.KindCluster, Inputs: in, Output: "wide/cluster",
			Params: map[string]string{"k": fmt.Sprint(wideClusters)}, Placement: pin},
	}}
}

// flowRun is one live instance of a module workload: stack, generator
// connection, recorder, and (traced) the tap.
type flowRun struct {
	spec  flowSpec
	stack *stack
	rec   *recorder
	gen   *mqttclient.Client
	tap   *tap
	pace  *pacer
	done  func() int64 // flows that have reached every sink
	rng   *rand.Rand
	qos   wire.QoS

	seq    uint32 // next flow's sequence number
	values [][3]float32
	batch  []sensor.Sample
	genWG  sync.WaitGroup
	genErr error
	// payloads keeps the first few payloads the generator sent, for the
	// layer probes to replay.
	payloads [][]byte
}

const keptPayloads = 256

// startFlowRun sets a module workload up: stack, deploy, generator
// connection, and one flow driven to its last sink.
func startFlowRun(fs flowSpec, cfg runConfig) (*flowRun, error) {
	rec, err := newRecorder(cfg.warmup+cfg.window, fs.pubsPerFlow())
	if err != nil {
		return nil, err
	}
	w := &flowRun{spec: fs, rec: rec, rng: rand.New(rand.NewSource(cfg.seed))}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()

	var mods []moduleSpec
	var rcp *recipe.Recipe
	if fs.wide {
		mods = []moduleSpec{{id: "moduleW", observer: core.Observer{OnTrain: rec.onTrain, OnDecision: func(d core.Decision) {
			switch d.TaskID {
			case "predict":
				rec.onPredict(d)
			case "anomaly":
				rec.onAnomaly(d)
			case "cluster":
				rec.onCluster(d)
			}
		}}}}
		rcp = wideRecipe()
		w.done = func() int64 {
			return min(rec.trained.Load(), rec.decided.Load(), rec.anomalies.Load(), rec.clustered.Load())
		}
	} else {
		mods = []moduleSpec{
			{id: "moduleE", observer: core.Observer{OnTrain: rec.onTrain}},
			{id: "moduleF", observer: core.Observer{OnDecision: rec.onPredict}},
			{id: "moduleG", actuator: benchActuator{rec}},
		}
		rcp = fig9Recipe()
		w.done = func() int64 { return min(rec.trained.Load(), rec.actuated.Load()) }
	}
	if sinks := w.done; cfg.traced {
		w.done = func() int64 {
			if w.tap == nil {
				return sinks()
			}
			return min(sinks(), w.tap.seen.Load())
		}
	}
	w.pace = newPacer(fs.window, fs.period, w.done)
	rec.onComplete = w.pace.poke

	w.stack, err = startStack(stackOpts{durable: fs.durable, traced: cfg.traced, dir: cfg.scratch}, mods)
	if err != nil {
		return nil, err
	}
	if err := w.stack.deploy(rcp); err != nil {
		return nil, err
	}
	running := time.Now()
	if fs.durable {
		w.qos = wire.QoS1
	}
	w.gen, err = mqttclient.Dial(w.stack.addr, mqttclient.NewOptions("bench-gen"))
	if err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	if cfg.traced {
		if err := w.startTap(); err != nil {
			return nil, err
		}
	}
	// First flow: resend until one reaches every sink (none should be
	// lost, but set-up must not hang on it).
	deadline := time.Now().Add(setupTimeout)
	for w.done() == 0 {
		if time.Now().After(deadline) {
			return nil, errors.New("first flow never reached its last sink")
		}
		if err := w.emit(time.Now(), 0); err != nil {
			return nil, err
		}
		for wait := time.Now().Add(200 * time.Millisecond); w.done() == 0 && time.Now().Before(wait); {
			w.pace.sleep(time.Until(wait))
		}
	}
	w.stack.phases.firstFlow = time.Since(running)
	ok = true
	return w, nil
}

// tap is the traced run's bystander: one raw wire subscriber that sees
// every raw sample and joined batch the broker routes, which is where the
// stage spans get their inner boundaries. It reads frames straight off
// its socket — no client library, no dispatch lanes — so a boundary is
// stamped as close to the broker's write as a subscriber can get, by one
// goroutine that is the only writer of the tap's arrays.
type tap struct {
	conn    net.Conn
	wg      sync.WaitGroup
	seen    atomic.Int64 // flows whose last tapped message has arrived
	closing atomic.Bool
}

// startTap subscribes the tap and starts its reader. Closed loops also
// gate on tap.seen, so the tap can never fall further behind than the
// window and overflow its own session queue.
func (w *flowRun) startTap() error {
	filters := []string{fig9RawFilter, fig9JoinAny}
	if w.spec.wide {
		filters = []string{wideBatchIn}
	}
	conn, err := rawSubscribe(w.stack.addr, "bench-tap", filters)
	if err != nil {
		return fmt.Errorf("tap: %w", err)
	}
	t := &tap{conn: conn}
	w.tap = t
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		rec := w.rec
		in := bufio.NewReaderSize(conn, relayIOBuffer)
		for {
			p, err := wire.ReadPacket(in, 0)
			if err != nil {
				return // closed by close(), or the broker went away first
			}
			pub, ok := p.(*wire.PublishPacket)
			if !ok {
				continue
			}
			now := time.Now().UnixNano()
			if strings.HasPrefix(pub.Topic, "fig9/raw/") {
				if s, err := sensor.DecodeSample(pub.Payload); err == nil && rec.slot(s.Seq) {
					rec.rawAt[s.Seq] = now // the last of the three wins
				}
				continue
			}
			seq, ok := batchSeq(pub.Payload)
			if !ok || !rec.slot(seq) {
				continue
			}
			switch pub.Topic {
			case wideBatchIn:
				rec.rawAt[seq] = now
			case fig9JoinE:
				rec.joinEAt[seq] = now
				continue
			default:
				rec.joinFAt[seq] = now
			}
			t.seen.Add(1)
			w.pace.poke()
		}
	}()
	return nil
}

// batchSeq reads the sequence number of a batch payload's first sample.
func batchSeq(payload []byte) (uint32, bool) {
	if len(payload) < 2+sensor.SampleSize {
		return 0, false
	}
	s, err := sensor.DecodeSample(payload[2 : 2+sensor.SampleSize])
	return s.Seq, err == nil
}

// emit sends one flow due at due: the recorder learns its due time and
// truth, then the samples go out on the generator's one connection.
func (w *flowRun) emit(due time.Time, late time.Duration) error {
	seq, rec := w.seq, w.rec
	if !rec.slot(seq) {
		return fmt.Errorf("recorder full after %d flows: the stack outgrew recordedFlowsPerSecond", seq)
	}
	w.seq++
	n := fig9Sensors
	if w.spec.wide {
		n = wideBatch
	}
	w.values = flowValues(w.rng, n, w.values)
	if w.spec.wide && seq%wideSpikeEvery == wideSpikeEvery-1 {
		rec.spike[seq] = 1
		for i := range w.values {
			for ch := range w.values[i] {
				w.values[i][ch] *= wideSpikeScale
			}
		}
	}
	rec.due[seq] = due.UnixNano()
	rec.late[seq] = int64(late)
	rec.truth[seq] = truthLabel(w.values)

	w.batch = w.batch[:0]
	for i, v := range w.values {
		w.batch = append(w.batch, sensor.Sample{
			SensorIndex: uint16(i + 1), Kind: sensor.Accelerometer,
			Seq: seq, Timestamp: due, Values: v,
		})
	}
	calls := rec.pubCall[int(seq)*rec.pubsPerFlow:]
	t := time.Now()
	if w.spec.wide {
		payload, err := core.EncodeBatch(w.batch)
		if err != nil {
			return err
		}
		if err := w.gen.Publish(wideBatchIn, payload, w.qos, false); err != nil {
			return fmt.Errorf("generator publish: %w", err)
		}
		calls[0] = int64(time.Since(t))
		w.keep(payload)
		return nil
	}
	for i, s := range w.batch {
		payload := s.Encode()
		if err := w.gen.Publish(fig9RawTopics[i], payload, w.qos, false); err != nil {
			return fmt.Errorf("generator publish: %w", err)
		}
		now := time.Now()
		calls[i] = int64(now.Sub(t))
		t = now
		w.keep(payload)
	}
	return nil
}

func (w *flowRun) keep(payload []byte) {
	if len(w.payloads) < keptPayloads {
		w.payloads = append(w.payloads, payload)
	}
}

// generate runs the load generator on its own goroutine until halt.
func (w *flowRun) generate(_, _ time.Time) {
	w.genWG.Add(1)
	go func() {
		defer w.genWG.Done()
		for {
			due, late, ok := w.pace.next()
			if !ok {
				return
			}
			if err := w.emit(due, late); err != nil {
				w.genErr = err
				return
			}
		}
	}()
}

// halt stops the generator, then gives flows in flight their deadline to
// finish.
func (w *flowRun) halt() {
	w.pace.halt()
	w.genWG.Wait()
	issued := int64(w.seq)
	for deadline := time.Now().Add(flowDeadline); w.done() < issued && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
}

func (w *flowRun) close() {
	if w.tap != nil {
		w.tap.conn.Close()
		w.tap.wg.Wait()
	}
	if w.gen != nil {
		_ = w.gen.Disconnect()
	}
	if w.stack != nil {
		w.stack.close()
	}
	w.rec.free()
}

func (w *flowRun) stackOf() *stack { return w.stack }

// measurement is what a workload's recording says about the flows due
// inside the measured window.
type measurement struct {
	offered   int64
	completed int64 // reached every sink within flowDeadline
	// Latencies (ns) the sinks observed inside the window.
	flow    []int64
	train   []int64
	predict []int64
	checks  []benchfmt.Check
	// shed counts, in an open loop, the flows due inside the window that the
	// generator dropped from its schedule after a stall. They are offered
	// and never completed.
	shed int64
	// layer holds the per-layer numbers only the workload can know.
	layer map[string]float64
	// stages holds, for traced runs, each stage's durations (ns).
	stages map[string][]int64
	spans  []span
}

func (m *measurement) check(name string, ok bool, format string, args ...any) {
	m.checks = append(m.checks, benchfmt.Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// joinByIndex pairs actuations with decisions. A command carries no
// sequence number, so the k-th actuation belongs to the k-th decision —
// by arrival index, not arrival time, which a prototype showed to be off
// by exactly one period. same(d, a) cross-checks the pairing on the
// decision's (label, score) against the command's (Detail, Value); on a
// mismatch the join resynchronises forward over the decisions, and the
// ones it skips are flows the actuator never saw. actOf[d] is the
// actuation paired with decision d, or -1.
func joinByIndex(decisions, actuations int, same func(d, a int) bool) (actOf []int32, skipped, unmatched int) {
	const lookahead = 4096
	actOf = make([]int32, decisions)
	for i := range actOf {
		actOf[i] = -1
	}
	d := 0
	for a := 0; a < actuations; a++ {
		m := d
		for m < decisions && m-d < lookahead && !same(m, a) {
			m++
		}
		if m >= decisions || m-d >= lookahead {
			unmatched++ // an actuation no decision explains
			continue
		}
		skipped += m - d
		actOf[m] = int32(a)
		d = m + 1
	}
	return actOf, skipped, unmatched
}

// collect analyses the recording for the flows due in [t0, t1).
func (w *flowRun) collect(t0, t1 time.Time, traced bool) (*measurement, error) {
	if w.genErr != nil {
		return nil, w.genErr
	}
	rec := w.rec
	if rec.overflowed.Load() {
		return nil, errors.New("recorder overflowed: the stack outgrew recordedFlowsPerSecond")
	}
	issued := int(w.seq)
	lo, hi := 0, issued
	for lo < issued && rec.due[lo] < t0.UnixNano() {
		lo++
	}
	for hi > lo && rec.due[hi-1] >= t1.UnixNano() {
		hi--
	}
	m := &measurement{offered: int64(hi - lo), layer: map[string]float64{}}
	if m.offered == 0 {
		return nil, errors.New("no flow was due inside the measured window")
	}
	if w.spec.period > 0 {
		// An open loop offers every slot of its schedule, sent or shed.
		m.offered = w.pace.slotsDue(t0, t1)
		m.shed = m.offered - int64(hi-lo)
	}

	// Last-sink time of every flow: fig9 joins actuations to decisions by
	// index; analysis_wide takes the last of its four results.
	endAt := make([]int64, issued)
	decidedAt := make([]int64, issued) // traced: when the judge stage ended
	copy(decidedAt, rec.predAt[:issued])
	if w.spec.wide {
		for i := 0; i < issued; i++ {
			if rec.trainAt[i] != 0 && rec.predAt[i] != 0 && rec.anomAt[i] != 0 && rec.clusAt[i] != 0 {
				endAt[i] = max(rec.trainAt[i], rec.predAt[i], rec.anomAt[i], rec.clusAt[i])
				decidedAt[i] = max(rec.predAt[i], rec.anomAt[i], rec.clusAt[i])
			}
		}
	} else {
		nDec, nAct := int(rec.decided.Load()), int(rec.actuated.Load())
		actOf, skipped, unmatched := joinByIndex(nDec, nAct, func(d, a int) bool {
			seq := rec.decSeq[d]
			return rec.predLabel[seq] == rec.applyLabel[a] && rec.predScore[seq] == rec.applyValue[a]
		})
		for d, a := range actOf {
			if a >= 0 {
				endAt[rec.decSeq[d]] = rec.applyAt[a]
			}
		}
		m.check("actuation_join", unmatched == 0 && skipped == 0,
			"%d actuations joined to %d decisions by index: %d decisions skipped, %d actuations unexplained", nAct, nDec, skipped, unmatched)
	}

	var trained, decided, ended, hit, judged, spikes, caught int64
	badCluster, badScore := 0, 0
	for i := lo; i < hi; i++ {
		okTrain := rec.trainAt[i] != 0
		okPred := rec.predAt[i] != 0
		okEnd := endAt[i] != 0
		if okTrain {
			trained++
		}
		if okPred {
			decided++
			judged++
			if rec.predLabel[i] == rec.truth[i] {
				hit++
			}
			if math.IsNaN(rec.predScore[i]) || math.IsInf(rec.predScore[i], 0) {
				badScore++
			}
		}
		if okEnd {
			ended++
			lat := max(endAt[i], rec.trainAt[i]) - rec.due[i]
			if okTrain && okPred && lat <= int64(flowDeadline) {
				m.completed++
			}
		}
		if w.spec.wide && rec.anomAt[i] != 0 {
			if s := rec.anomScore[i]; math.IsNaN(s) || math.IsInf(s, 0) {
				badScore++
			}
			if c := rec.clusIndex[i]; c < 0 || c >= wideClusters || c != math.Trunc(c) {
				badCluster++
			}
			if rec.spike[i] == 1 {
				spikes++
				if rec.anomLabel[i] == 1 {
					caught++
				}
			}
		}
	}
	// Latencies by the instant they were observed: whatever a sink saw
	// inside the window counts, whenever the flow was due.
	from, to := t0.UnixNano(), t1.UnixNano()
	inWindow := func(at int64) bool { return at >= from && at < to }
	for i := 0; i < issued; i++ {
		due := rec.due[i]
		if at := rec.trainAt[i]; inWindow(at) {
			m.train = append(m.train, at-due)
		}
		if at := rec.predAt[i]; inWindow(at) {
			m.predict = append(m.predict, at-due)
		}
		if at := endAt[i]; inWindow(at) && rec.trainAt[i] != 0 && max(at, rec.trainAt[i])-due <= int64(flowDeadline) {
			m.flow = append(m.flow, at-due)
		}
	}
	m.check("sinks_agree", trained == m.offered && decided == m.offered && ended == m.offered && m.completed == m.offered,
		"offered %d: trained %d, decided %d, reached last sink %d, completed in time %d", m.offered, trained, decided, ended, m.completed)
	m.check("seq_increasing", rec.outOfOrder.Load() == 0, "%d sequence numbers out of order at a sink", rec.outOfOrder.Load())
	acc := 0.0
	if judged > 0 {
		acc = float64(hit) / float64(judged)
	}
	m.layer["ml.predict_accuracy"] = acc
	m.check("predict_accuracy", acc >= minAccuracy, "%.4f of %d predictions match the training rule (floor %.2f)", acc, judged, minAccuracy)
	m.check("scores_finite", badScore == 0, "%d non-finite scores", badScore)
	if w.spec.wide {
		recall := 1.0 // a window too short to hold a planted spike missed none
		if spikes > 0 {
			recall = float64(caught) / float64(spikes)
		}
		m.layer["ml.spike_recall"] = recall
		m.check("spike_recall", recall >= minAccuracy, "%d of %d planted spikes flagged (floor %.2f)", caught, spikes, minAccuracy)
		m.check("cluster_index", badCluster == 0, "%d cluster indices outside [0,%d)", badCluster, wideClusters)
	}

	// Generator lateness and time inside Client.Publish, over the window.
	lates := append([]int64(nil), rec.late[lo:hi]...)
	calls := append([]int64(nil), rec.pubCall[lo*rec.pubsPerFlow:hi*rec.pubsPerFlow]...)
	slices.Sort(lates)
	slices.Sort(calls)
	m.layer["loadgen.late_p99_ms"] = benchfmt.Percentile(lates, 99) / 1e6
	m.layer["loadgen.late_max_ms"] = float64(lates[len(lates)-1]) / 1e6
	m.layer["mqttclient.publish_call_p50_us"] = benchfmt.Percentile(calls, 50) / 1e3
	m.layer["mqttclient.publish_call_p99_us"] = benchfmt.Percentile(calls, 99) / 1e3

	if traced {
		w.collectStages(m, lo, hi, endAt, decidedAt)
	}
	return m, nil
}
