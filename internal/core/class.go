package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/flow"
	"github.com/ifot-middleware/ifot/internal/ml"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// taskInstance is one running subtask: its subscriptions and shutdown hooks.
type taskInstance struct {
	name    string
	mu      sync.Mutex
	stopped bool
	fenced  bool // stopped as a stale zombie: suppress the stop-time handoff
	stopFns []func()
}

func (t *taskInstance) onStop(fn func()) {
	t.mu.Lock()
	t.stopFns = append(t.stopFns, fn)
	t.mu.Unlock()
}

// markFenced flags the instance as a fenced zombie before stop: its
// stop-time checkpoint must not be handed off — the failed-over host's
// state is authoritative.
func (t *taskInstance) markFenced() {
	t.mu.Lock()
	t.fenced = true
	t.mu.Unlock()
}

func (t *taskInstance) isFenced() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fenced
}

func (t *taskInstance) stop() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.stopped = true
	fns := t.stopFns
	t.stopFns = nil
	t.mu.Unlock()
	// LIFO, mirroring defer semantics.
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// newTaskInstance instantiates the middleware class for a subtask
// (Fig. 4's class catalog).
func (m *Module) newTaskInstance(rec recipe.Recipe, sub recipe.SubTask) (*taskInstance, error) {
	inst := &taskInstance{name: sub.Name()}
	var err error
	switch sub.Task.Kind {
	case recipe.KindSense:
		err = m.startSense(inst, rec, sub)
	case recipe.KindWindow:
		err = m.startWindow(inst, rec, sub)
	case recipe.KindFilter:
		err = m.startFilter(inst, rec, sub)
	case recipe.KindAggregate:
		err = m.startAggregate(inst, rec, sub)
	case recipe.KindTrain:
		err = m.startTrain(inst, rec, sub)
	case recipe.KindPredict:
		err = m.startPredict(inst, rec, sub)
	case recipe.KindAnomaly:
		err = m.startAnomaly(inst, rec, sub)
	case recipe.KindCluster:
		err = m.startCluster(inst, rec, sub)
	case recipe.KindActuate:
		err = m.startActuate(inst, rec, sub)
	case recipe.KindCustom:
		err = m.startCustom(inst, rec, sub)
	default:
		err = fmt.Errorf("core: unsupported task kind %q", sub.Task.Kind)
	}
	if err != nil {
		inst.stop()
		return nil, err
	}
	return inst, nil
}

// --- shared helpers ---

func (m *Module) resolveInputs(rec recipe.Recipe, sub recipe.SubTask) ([]string, error) {
	topics := make([]string, 0, len(sub.Task.Inputs))
	for _, in := range sub.Task.Inputs {
		topic, err := rec.ResolveInput(in)
		if err != nil {
			return nil, err
		}
		topics = append(topics, topic)
	}
	if len(topics) == 0 {
		return nil, fmt.Errorf("core: task %s has no inputs", sub.Name())
	}
	return topics, nil
}

// subscribeInputs is the one place a task's handlers are registered, data
// inputs and MIX streams alike: it subscribes every filter at DataQoS with
// the handler newLane builds for that filter, contains a panicking
// handler, and removes the subscriptions on task stop. newLane runs once
// per filter, before the filter is subscribed, and is told which filter
// it serves, so a join can tell its sources apart without a subscribe
// loop of its own. Each handler runs serially on its filter's lane, so
// state newLane creates for it (a decode scratch, a reused decode target)
// needs no lock.
func (m *Module) subscribeInputs(inst *taskInstance, filters []string, newLane func(filter string) mqttclient.Handler) error {
	client := m.currentClient()
	if client == nil {
		return ErrNotStarted
	}
	for _, filter := range filters {
		handler := newLane(filter)
		_, reg, err := client.SubscribeHandle(filter, m.cfg.DataQoS, func(msg mqttclient.Message) {
			// A panicking handler loses its message, not the lane, the
			// task or the module.
			defer func() {
				if v := recover(); v != nil && m.warnDue("handler_panic", filter) {
					m.events.Eventf(telemetry.SevError, m.cfg.ID, "handler_panic",
						"task", inst.name, "topic", msg.Topic, "panic", fmt.Sprint(v))
				}
			}()
			handler(msg)
		})
		if err != nil {
			return fmt.Errorf("core: subscribe %s: %w", filter, err)
		}
		inst.onStop(reg.Remove)
	}
	return nil
}

// batchTask is the frame every batch-consuming kind (train, predict,
// anomaly, cluster) runs in: resolve the inputs, subscribe, and per message
// decode the batch, drop it when it is undecodable, empty or owned by a
// sibling shard, and hand it to step with the trace context to attach to
// whatever step publishes (nil for an untraced flow). A kind contributes
// only its step. Shard ownership is decided here, once, so no kind can
// forget it: with parallelism n, exactly one subtask sees each seq.
//
// The batch is decoded into its input lane's scratch slice, so it is
// valid only during step: a step that keeps samples copies them.
func (m *Module) batchTask(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask, step func(batch []sensor.Sample, fwd *TraceContext)) error {
	topics, err := m.resolveInputs(rec, sub)
	if err != nil {
		return err
	}
	return m.subscribeInputs(inst, topics, func(string) mqttclient.Handler {
		var scratch []sensor.Sample
		return func(msg mqttclient.Message) {
			batch, tc, err := appendDecodeSamples(scratch[:0], msg.Payload)
			scratch = batch
			if err != nil || len(batch) == 0 || !shardOwnsBatch(sub, batch[0].Seq) {
				return
			}
			step(batch, forward(tc))
		}
	})
}

// judgingTask runs a Judging-class kind: step turns one batch into a
// (label, score) verdict, or ok=false for no verdict yet; the frame and
// the Decision around it are shared.
func (m *Module) judgingTask(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask, kind string, step func(batch []sensor.Sample) (label string, score float64, ok bool)) error {
	return m.batchTask(inst, rec, sub, func(batch []sensor.Sample, fwd *TraceContext) {
		label, score, ok := step(batch)
		if !ok {
			return
		}
		m.emitDecision(rec, sub, Decision{
			Kind:     kind,
			Label:    label,
			Score:    score,
			Seq:      batch[0].Seq,
			SensedAt: EarliestTimestamp(batch),
			Trace:    fwd,
		})
	})
}

func (m *Module) publishData(topic string, payload []byte) error {
	client := m.currentClient()
	if client == nil {
		return ErrNotStarted
	}
	// A self-fenced module drops task outputs instead of publishing: while
	// the manager may have failed its tasks over, duplicate decisions from
	// the partitioned side must not reach sinks (drops are counted).
	if m.outputsFenced.Load() {
		if m.metrics != nil {
			m.metrics.fencedDrops.Add(1)
		}
		return nil
	}
	return client.Publish(topic, payload, m.cfg.DataQoS, false)
}

// payloadPool recycles the data plane's output payload buffers (see
// publishEncoded).
var payloadPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxPooledPayload bounds the buffers payloadPool keeps: a rare large
// batch's buffer goes to the collector instead of staying pinned.
const maxPooledPayload = 64 << 10

// publishEncoded publishes on topic the payload encode appends to a
// pooled buffer, and reuses the buffer once publishData returns: the
// client keeps no reference to a payload after Publish returns. An encode
// error skips the publish and is returned; encode returns dst unchanged
// with it.
func (m *Module) publishEncoded(topic string, encode func(dst []byte) ([]byte, error)) error {
	bp := payloadPool.Get().(*[]byte)
	payload, err := encode((*bp)[:0])
	if err == nil {
		err = m.publishData(topic, payload)
	}
	if cap(payload) <= maxPooledPayload {
		*bp = payload[:0]
		payloadPool.Put(bp)
	}
	return err
}

// appendDecodeSamples accepts either a bare 32-byte sample or a batch
// payload, appends its samples to dst, and returns the optional trace
// context a traced publisher appended (nil when absent — the common
// untraced case costs nothing extra). On error dst is returned unchanged.
func appendDecodeSamples(dst []sensor.Sample, payload []byte) ([]sensor.Sample, *TraceContext, error) {
	if len(payload) == sensor.SampleSize {
		s, err := sensor.DecodeSample(payload)
		if err != nil {
			return dst, nil, err
		}
		return append(dst, s), nil, nil
	}
	return AppendDecodeBatch(dst, payload)
}

// appendSamplePayload appends one sample's payload: a one-sample batch
// carrying tc when the flow is traced and the trailer fits, the bare
// 32-byte sample otherwise. Tracing never costs the sample itself.
func appendSamplePayload(dst []byte, s sensor.Sample, tc *TraceContext) []byte {
	if tc != nil {
		if p, err := AppendEncodeBatch(dst, []sensor.Sample{s}, tc); err == nil {
			return p
		}
	}
	return s.AppendEncode(dst)
}

// appendBatchPayload appends a batch's payload, carrying tc when the flow
// is traced and the trailer fits (every trace string within 255 bytes),
// untraced otherwise: tracing never costs the batch.
func appendBatchPayload(dst []byte, batch []sensor.Sample, tc *TraceContext) ([]byte, error) {
	if tc != nil {
		if p, err := AppendEncodeBatch(dst, batch, tc); err == nil {
			return p, nil
		}
	}
	return AppendEncodeBatch(dst, batch, nil)
}

// forward returns the context to attach to a re-publish: the inbound
// context with its hop count bumped, or nil when the flow is untraced.
func forward(tc *TraceContext) *TraceContext {
	if tc == nil {
		return nil
	}
	next := tc.Next()
	return &next
}

// ctxCache maps in-flight sequence numbers to their adopted trace
// context at a join point, bounded FIFO so unjoined flows cannot grow it.
type ctxCache struct {
	mu   sync.Mutex
	m    map[uint32]*TraceContext
	fifo []uint32
	max  int
}

func newCtxCache(max int) *ctxCache {
	if max <= 0 {
		max = 1024
	}
	return &ctxCache{m: make(map[uint32]*TraceContext, max), max: max}
}

// put adopts tc for seq; the first source to arrive wins (follows-from
// semantics for multi-parent joins).
func (c *ctxCache) put(seq uint32, tc *TraceContext) {
	if tc == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.m[seq]; !ok {
		if len(c.fifo) >= c.max {
			delete(c.m, c.fifo[0])
			c.fifo = c.fifo[1:]
		}
		c.m[seq] = tc
		c.fifo = append(c.fifo, seq)
	}
	c.mu.Unlock()
}

// take removes and returns the context adopted for seq (nil if none).
func (c *ctxCache) take(seq uint32) *TraceContext {
	c.mu.Lock()
	tc, ok := c.m[seq]
	if ok {
		delete(c.m, seq)
		for i, s := range c.fifo {
			if s == seq {
				c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
				break
			}
		}
	}
	c.mu.Unlock()
	return tc
}

func paramString(sub recipe.SubTask, key, fallback string) string {
	if v, ok := sub.Task.Params[key]; ok && v != "" {
		return v
	}
	return fallback
}

func paramFloat(sub recipe.SubTask, key string, fallback float64) float64 {
	if v, ok := sub.Task.Params[key]; ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return fallback
}

func paramInt(sub recipe.SubTask, key string, fallback int) int {
	if v, ok := sub.Task.Params[key]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return fallback
}

// classifier is what a train or predict task needs of its model; every
// learner newClassifier builds has all of it.
type classifier interface {
	ml.DenseClassifier
	ml.Checkpointer
}

func newClassifier(sub recipe.SubTask) classifier {
	switch paramString(sub, "model", "pa") {
	case "perceptron":
		return ml.NewPerceptron(paramFloat(sub, "learningRate", 1))
	case "arow":
		return ml.NewAROW(paramFloat(sub, "r", 0.1))
	default:
		return ml.NewPassiveAggressive(paramFloat(sub, "c", 1))
	}
}

// labelFor derives the training label for a batch: a fixed "label" param,
// or the sign of the summed channel-0 values ("pos"/"neg").
func labelFor(sub recipe.SubTask, batch []sensor.Sample) string {
	if fixed := paramString(sub, "label", ""); fixed != "" {
		return fixed
	}
	var sum float64
	for _, s := range batch {
		sum += float64(s.Values[0])
	}
	if sum >= 0 {
		return "pos"
	}
	return "neg"
}

// shardOwnsBatch implements data-parallel sharding: shard i of n handles
// sequence numbers with seq % n == i.
func shardOwnsBatch(sub recipe.SubTask, seq uint32) bool {
	if sub.ShardCount <= 1 {
		return true
	}
	return int(seq%uint32(sub.ShardCount)) == sub.Shard
}

// mixTopic is the MIX weight-exchange topic for a train task.
func mixTopic(recipeName, taskID string) string {
	return TopicMixPrefix + recipeName + "/" + taskID
}

// --- Sense (Sensor class + Publish class) ---

func (m *Module) startSense(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	if sub.Task.Output == "" {
		return fmt.Errorf("core: sense task %s needs an output topic", sub.Name())
	}
	name := paramString(sub, "sensor", sub.TaskID)
	m.mu.Lock()
	s, ok := m.sensors[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSensor, name)
	}
	// The task's rate override and the module clock are this run loop's
	// own inputs: other tasks may share the sensor.
	rate, clk := s.RateHz, s.Clock
	if r := paramFloat(sub, "rate", 0); r > 0 {
		rate = r
	}
	if clk == nil {
		clk = m.cfg.Clock
	}

	ctx, cancel := context.WithCancel(m.ctx)
	done := make(chan struct{})
	inst.onStop(func() {
		cancel()
		<-done
	})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer close(done)
		traced := m.cfg.Tracer != nil
		sample := m.cfg.TraceSampleEvery
		_ = s.RunAt(ctx, rate, clk, func(smp sensor.Sample) {
			// Untraced deployments publish the bare 32-byte sample as
			// always; with tracing on, the sample rides in a one-sample
			// batch carrying the freshly minted trace context, so every
			// downstream module sees the flow's identity and origin.
			// Sampling (TraceSampleEvery > 1) mints a context only for
			// every Nth flow; the rest ship bare, costing nothing anywhere
			// downstream.
			var tc *TraceContext
			if traced && (sample <= 1 || smp.Seq%sample == 0) {
				tc = &TraceContext{
					Key:            telemetry.TraceKey{Recipe: rec.Name, TaskID: sub.TaskID, Seq: smp.Seq},
					OriginUnixNano: smp.Timestamp.UnixNano(),
					OriginModule:   m.cfg.ID,
				}
			}
			err := m.publishEncoded(sub.Task.Output, func(dst []byte) ([]byte, error) {
				return appendSamplePayload(dst, smp, tc), nil
			})
			if err != nil {
				m.logf("sense %s publish: %v", sub.Name(), err)
				return
			}
			m.traceHop(nil, rec.Name, sub.TaskID, smp.Seq, "publish", smp.Timestamp)
		})
	}()
	return nil
}

// --- Window ---

func (m *Module) startWindow(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	if sub.Task.Output == "" {
		return fmt.Errorf("core: window task %s needs an output topic", sub.Name())
	}
	topics, err := m.resolveInputs(rec, sub)
	if err != nil {
		return err
	}
	size := paramInt(sub, "size", 16)
	// pending holds the trace context of the first traced sample since the
	// last window emission; the flush below forwards it. Guarded by mu:
	// each input topic dispatches on its own lane.
	var (
		pendingMu  sync.Mutex
		pendingCtx *TraceContext
	)
	w := flow.NewSlidingWindow(size, size, func(batch []sensor.Sample) {
		pendingMu.Lock()
		tc := forward(pendingCtx)
		pendingCtx = nil
		pendingMu.Unlock()
		err := m.publishEncoded(sub.Task.Output, func(dst []byte) ([]byte, error) {
			return appendBatchPayload(dst, batch, tc)
		})
		if err != nil {
			m.logf("window %s publish: %v", sub.Name(), err)
		}
	})
	return m.subscribeInputs(inst, topics, func(string) mqttclient.Handler {
		var scratch []sensor.Sample
		return func(msg mqttclient.Message) {
			samples, tc, err := appendDecodeSamples(scratch[:0], msg.Payload)
			scratch = samples
			if err != nil {
				return
			}
			if tc != nil {
				pendingMu.Lock()
				if pendingCtx == nil {
					pendingCtx = tc
				}
				pendingMu.Unlock()
			}
			for _, s := range samples {
				w.Push(s)
			}
		}
	})
}

// --- Filter (data cleansing) ---

func (m *Module) startFilter(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	if sub.Task.Output == "" {
		return fmt.Errorf("core: filter task %s needs an output topic", sub.Name())
	}
	topics, err := m.resolveInputs(rec, sub)
	if err != nil {
		return err
	}
	min := float32(paramFloat(sub, "min", float64(-1e38)))
	max := float32(paramFloat(sub, "max", float64(1e38)))
	dedup := flow.NewDeduper(uint32(paramInt(sub, "dedupWindow", 128)))
	emit := func(s sensor.Sample, tc *TraceContext) {
		err := m.publishEncoded(sub.Task.Output, func(dst []byte) ([]byte, error) {
			return appendSamplePayload(dst, s, tc), nil
		})
		if err != nil {
			m.logf("filter %s publish: %v", sub.Name(), err)
		}
	}
	// curFwd carries the inbound message's (forwarded) trace context to
	// the filter callback; fmu serializes pushes across input lanes so the
	// context matches the samples being filtered.
	var (
		fmu    sync.Mutex
		curFwd *TraceContext
	)
	f := flow.NewFilter(flow.RangePredicate(min, max), func(s sensor.Sample) { emit(s, curFwd) })
	return m.subscribeInputs(inst, topics, func(string) mqttclient.Handler {
		var scratch []sensor.Sample
		return func(msg mqttclient.Message) {
			samples, tc, err := appendDecodeSamples(scratch[:0], msg.Payload)
			scratch = samples
			if err != nil {
				return
			}
			fmu.Lock()
			curFwd = forward(tc)
			for _, s := range samples {
				if dedup.Fresh(s) {
					f.Push(s)
				}
			}
			fmu.Unlock()
		}
	})
}

// --- Aggregate (Subscribe-class join of Fig. 9) ---

func (m *Module) startAggregate(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	if sub.Task.Output == "" {
		return fmt.Errorf("core: aggregate task %s needs an output topic", sub.Name())
	}
	topics, err := m.resolveInputs(rec, sub)
	if err != nil {
		return err
	}
	maxLag := uint32(paramInt(sub, "maxLag", 64))
	// The join adopts the first-arriving source's trace context per
	// sequence number (follows-from), so the assembled batch carries one
	// flow identity downstream; sibling sources' publish spans remain
	// visible under their own keys.
	// The joined batch is the joiner's slot slice, reused once this
	// function returns: it is encoded and published here and kept nowhere.
	ctxs := newCtxCache(int(4 * maxLag))
	joiner := flow.NewJoiner(topics, maxLag, func(seq uint32, batch []sensor.Sample) {
		adopted := ctxs.take(seq)
		m.traceHop(adopted, rec.Name, sub.TaskID, seq, "join", EarliestTimestamp(batch))
		err := m.publishEncoded(sub.Task.Output, func(dst []byte) ([]byte, error) {
			return appendBatchPayload(dst, batch, forward(adopted))
		})
		if err != nil {
			m.logf("aggregate %s publish: %v", sub.Name(), err)
		}
	})
	// The matched filter is the input topic: it names the source to the
	// joiner. Each input lane decodes into its own scratch slice.
	return m.subscribeInputs(inst, topics, func(topic string) mqttclient.Handler {
		var scratch []sensor.Sample
		return func(msg mqttclient.Message) {
			samples, tc, err := appendDecodeSamples(scratch[:0], msg.Payload)
			scratch = samples
			if err != nil {
				return
			}
			for _, s := range samples {
				ctxs.put(s.Seq, tc)
				joiner.Push(topic, s)
			}
		}
	})
}

// --- Train (Learning class) ---

// newRegressor builds the model both halves of a regression-mode pipeline
// share, and reads which sensor's channel-0 reading it predicts.
func newRegressor(sub recipe.SubTask) (reg *ml.PARegressor, targetSensor uint16) {
	return ml.NewPARegressor(paramFloat(sub, "epsilon", 0.1), paramFloat(sub, "c", 1)),
		uint16(paramInt(sub, "targetSensor", 0))
}

// startTrain is the Learning class. The "mode" param only selects the
// model and the step that feeds it one batch: a classifier labelled by
// labelFor ("classify", the default) or Jubatus's regression engine
// learning the target sensor's reading from the other streams
// ("regression"). Checkpointing, the frame, the TrainEvent and MIX are the
// same for both.
func (m *Module) startTrain(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	var (
		ckpt  ml.Checkpointer
		mixer ml.DeltaMixer                    // nil: the learner exports no weights (AROW)
		learn func(batch []sensor.Sample) bool // one model update; false: batch unusable
	)
	if paramString(sub, "mode", "classify") == "regression" {
		reg, target := newRegressor(sub)
		ckpt, mixer = reg, reg
		learn = func(batch []sensor.Sample) bool {
			dv, y, ok := regressionDense(batch, target)
			if ok {
				reg.TrainDense(dv, y)
			}
			feature.PutDense(dv)
			return ok
		}
	} else {
		clf := newClassifier(sub)
		ckpt = clf
		mixer, _ = clf.(ml.DeltaMixer)
		learn = func(batch []sensor.Sample) bool {
			dv := BatchDense(batch)
			clf.TrainDense(dv, labelFor(sub, batch))
			feature.PutDense(dv)
			return true
		}
	}
	// Restore before the first input subscription, so a restored model
	// never trains on top of fresh weights, and capture the MIX starting
	// contribution in between.
	m.registerCheckpointer(inst, sub.Name(), ckpt)
	var pub *mixPublisher
	if mixer != nil {
		pub = newMixPublisher(mixer, m.mixReceiverFor(mixer, sub.Shard), m.cfg.ID, sub.Shard, sub.ShardCount, m.cfg.MixKeyframeEvery)
	}
	var examples atomic.Int64
	err := m.batchTask(inst, rec, sub, func(batch []sensor.Sample, fwd *TraceContext) {
		if !learn(batch) {
			return
		}
		m.emitTrain(rec, sub, TrainEvent{
			Seq:      batch[0].Seq,
			SensedAt: EarliestTimestamp(batch),
			Examples: examples.Add(1),
			Trace:    fwd,
		})
	})
	if err != nil || pub == nil {
		return err
	}
	// MIX: publish this shard's updates for predictors and sibling shards;
	// fold the sibling shards' in (Jubatus-style distributed learning).
	return m.startMixLoop(inst, rec, sub, pub)
}

// mixReceiverFor returns a receiver folding MIX payloads into model, with
// its evictions and sync events reported as this module's.
func (m *Module) mixReceiverFor(model ml.DeltaMixer, ownShard int) *mixReceiver {
	rx := newMixReceiver(model, ownShard, m.cfg.MixStaleAfter, nil)
	rx.events, rx.module = m.events, m.cfg.ID
	if m.metrics != nil {
		rx.evictions = m.metrics.mixEvictions
	}
	return rx
}

// noteMixRound records one published MIX round and its payload bytes.
func (m *Module) noteMixRound(payloadBytes int, staleness time.Duration) {
	if m.metrics == nil {
		return
	}
	m.metrics.mixRounds.Inc()
	m.metrics.mixBytes.Add(int64(payloadBytes))
	m.metrics.mixStaleness.Set(staleness.Seconds())
}

// startMixLoop runs the Managing class's MIX protocol for one learner
// (mixsync.go): every MixInterval one publisher round — the round's delta
// as a QoS-DataQoS, non-retained payload and, every MixKeyframeEvery
// rounds, the shard's contribution as a retained keyframe — while a
// sharded task folds its sibling shards' payloads in.
func (m *Module) startMixLoop(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask, pub *mixPublisher) error {
	topic := mixTopic(rec.Name, sub.TaskID)
	mixClient := m.currentClient()
	if mixClient == nil {
		return ErrNotStarted
	}
	if sub.ShardCount > 1 {
		if err := m.subscribeMix(inst, topic, pub.rx); err != nil {
			return err
		}
	}
	publish := func(payload []byte, keyframe bool) {
		if err := mixClient.Publish(topic+"/"+m.cfg.ID, payload, m.cfg.DataQoS, keyframe); err != nil {
			m.logf("train %s mix publish: %v", sub.Name(), err)
		}
	}

	ctx, cancel := context.WithCancel(m.ctx)
	inst.onStop(cancel)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-m.cfg.Clock.After(m.cfg.MixInterval):
				// Self-fenced: skip the round entirely. The tasks were
				// likely failed over; stale deltas and keyframes from this
				// side of the partition must not perturb the new host.
				if m.outputsFenced.Load() {
					continue
				}
				now := m.now()
				bytes := pub.publishRound(now, publish)
				m.noteMixRound(bytes, pub.rx.staleness(now))
			}
		}
	}()
	return nil
}

// subscribeMix folds every payload of the MIX stream under topic into rx.
func (m *Module) subscribeMix(inst *taskInstance, topic string, rx *mixReceiver) error {
	syms := feature.DefaultSymbols()
	return m.subscribeInputs(inst, []string{topic + "/+"}, func(filter string) mqttclient.Handler {
		var d ml.MixDelta // reusable decode target: the handler runs serially on its lane
		return func(msg mqttclient.Message) {
			h, err := DecodeMix(msg.Payload, syms, &d)
			if err != nil {
				m.noteMixBadPayload(filter, msg.Topic, err)
				return
			}
			rx.onPayload(h, &d, m.now())
		}
	})
}

// --- Predict (Judging class) ---

// startPredict is the Judging class over a learned model. As in
// startTrain, "mode" only selects the model and its step: the best label
// and its score ("classify"), or the regression estimate of the target
// sensor's reading as the score of a "regress" decision. With "modelFrom"
// the model follows the named trainer task's MIX stream.
func (m *Module) startPredict(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	var (
		model ml.DeltaMixer // nil: no weights to sync (AROW)
		kind  = string(recipe.KindPredict)
		judge func(batch []sensor.Sample) (string, float64, bool)
	)
	if paramString(sub, "mode", "classify") == "regression" {
		reg, target := newRegressor(sub)
		model, kind = reg, "regress"
		judge = func(batch []sensor.Sample) (string, float64, bool) {
			dv, _, _ := regressionDense(batch, target)
			score := reg.PredictDense(dv)
			feature.PutDense(dv)
			return "", score, true
		}
	} else {
		clf := newClassifier(sub)
		model, _ = clf.(ml.DeltaMixer)
		judge = func(batch []sensor.Sample) (string, float64, bool) {
			dv := BatchDense(batch)
			best, _ := clf.BestDense(dv) // untrained: empty label, zero score
			feature.PutDense(dv)
			return best.Label, best.Score, true
		}
	}
	// Model sync: fold the named trainer task's MIX stream into the local
	// model, a slot for every shard.
	if from := paramString(sub, "modelFrom", ""); from != "" && model != nil {
		if err := m.subscribeMix(inst, mixTopic(rec.Name, from), m.mixReceiverFor(model, noShard)); err != nil {
			return err
		}
	}
	return m.judgingTask(inst, rec, sub, kind, judge)
}

// --- Anomaly (Judging class) ---

func (m *Module) startAnomaly(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	var detector interface {
		ml.DenseAnomalyDetector
		ml.Checkpointer
	}
	threshold := paramFloat(sub, "threshold", 3)
	switch paramString(sub, "detector", "zscore") {
	case "knn":
		detector = ml.NewKNNAnomalyDetector(paramInt(sub, "k", 5), paramInt(sub, "capacity", 256))
		if _, ok := sub.Task.Params["threshold"]; !ok {
			threshold = 2.5
		}
	default:
		detector = ml.NewZScoreDetector()
	}
	m.registerCheckpointer(inst, sub.Name(), detector)

	// With a "window" param the detector scores sliding-window summary
	// features (mean/std/energy/zero-crossings) per sensor instead of raw
	// readings — the classic pipeline for fall/activity detection from
	// accelerometer streams.
	windowSize := paramInt(sub, "window", 0)
	windowStep := paramInt(sub, "step", 1)
	var (
		winMu        sync.Mutex
		windows      = make(map[uint16]*flow.SlidingWindow)
		windowScores = make(map[uint16]float64)
	)
	scoreWindowed := func(s sensor.Sample) (float64, bool) {
		winMu.Lock()
		w, ok := windows[s.SensorIndex]
		if !ok {
			idx := s.SensorIndex
			w = flow.NewSlidingWindow(windowSize, windowStep, func(batch []sensor.Sample) {
				values := make([]float64, len(batch))
				for i, b := range batch {
					values[i] = float64(b.Values[0])
				}
				v := feature.WindowStats(symsFor(idx).prefix, values)
				winMu.Lock()
				windowScores[idx] = detector.Add(v)
				winMu.Unlock()
			})
			windows[s.SensorIndex] = w
		}
		winMu.Unlock()
		w.Push(s)
		winMu.Lock()
		score, scored := windowScores[s.SensorIndex]
		winMu.Unlock()
		return score, scored
	}

	return m.judgingTask(inst, rec, sub, string(recipe.KindAnomaly), func(batch []sensor.Sample) (string, float64, bool) {
		var worst float64
		scored := false
		for _, s := range batch {
			if windowSize > 0 {
				if score, ok := scoreWindowed(s); ok {
					scored = true
					if score > worst {
						worst = score
					}
				}
				continue
			}
			scored = true
			dv := feature.GetDense()
			appendSampleRawDense(dv, s)
			score := detector.AddDense(dv)
			feature.PutDense(dv)
			if score > worst {
				worst = score
			}
		}
		if !scored {
			return "", 0, false // windowed mode still warming up
		}
		if worst > threshold {
			return "anomaly", worst, true
		}
		return "normal", worst, true
	})
}

// --- Cluster (Judging class) ---

func (m *Module) startCluster(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	km := ml.NewSequentialKMeans(paramInt(sub, "k", 2))
	m.registerCheckpointer(inst, sub.Name(), km)
	return m.judgingTask(inst, rec, sub, string(recipe.KindCluster), func(batch []sensor.Sample) (string, float64, bool) {
		dv := BatchDense(batch)
		idx := km.AddDense(dv)
		feature.PutDense(dv)
		return "cluster-" + strconv.Itoa(idx), float64(idx), true
	})
}

// --- Actuate (Actuator class) ---

func (m *Module) startActuate(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	topics, err := m.resolveInputs(rec, sub)
	if err != nil {
		return err
	}
	name := paramString(sub, "actuator", sub.TaskID)
	m.mu.Lock()
	act, ok := m.actuators[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownActuator, name)
	}
	command := paramString(sub, "command", "actuate")
	when := paramString(sub, "when", "")

	return m.subscribeInputs(inst, topics, func(string) mqttclient.Handler {
		var d Decision // reusable decode target: the handler runs serially on its lane
		return func(msg mqttclient.Message) {
			// Reset first: Unmarshal into a used struct keeps every field
			// the new message omits (an omitted label, an absent trace).
			d = Decision{}
			if err := DecodeJSON(msg.Payload, &d); err != nil {
				return
			}
			if when != "" && d.Label != when {
				return
			}
			cmd := sensor.Command{
				Name:     command,
				Value:    d.Score,
				Detail:   d.Label,
				IssuedAt: m.now(),
			}
			if err := act.Apply(cmd); err != nil {
				m.logf("actuate %s: %v", sub.Name(), err)
				return
			}
			m.traceHop(d.Trace, d.Recipe, d.TaskID, d.Seq, "actuate", d.SensedAt)
		}
	})
}

// --- Custom ---

func (m *Module) startCustom(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	topics, err := m.resolveInputs(rec, sub)
	if err != nil {
		return err
	}
	name := paramString(sub, "handler", sub.TaskID)
	m.mu.Lock()
	fn, ok := m.customs[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHandler, name)
	}
	return m.subscribeInputs(inst, topics, func(string) mqttclient.Handler {
		return func(msg mqttclient.Message) { fn(msg, m.publishData) }
	})
}

// emitTrain is the Learning class's one emitter: it stamps ev for one
// model update, records the "learn" span and counter, publishes the event
// on the task's output (if any) and tells the observer.
func (m *Module) emitTrain(rec recipe.Recipe, sub recipe.SubTask, ev TrainEvent) {
	ev.Recipe = rec.Name
	ev.TaskID = sub.TaskID
	ev.At = m.now()
	m.traceHop(ev.Trace, ev.Recipe, ev.TaskID, ev.Seq, "learn", ev.SensedAt)
	if m.metrics != nil {
		m.metrics.trained.Inc()
	}
	if sub.Task.Output != "" {
		if err := m.publishEncoded(sub.Task.Output, ev.appendJSON); err != nil {
			m.logf("train %s publish: %v", sub.Name(), err)
		}
	}
	if m.cfg.Observer.OnTrain != nil {
		m.cfg.Observer.OnTrain(ev)
	}
}

// emitDecision is the Judging class's one emitter, the counterpart of
// emitTrain for a "judge" span and a Decision. A decision JSON cannot
// carry (a non-finite score) is logged and not published; the observer
// still sees it.
func (m *Module) emitDecision(rec recipe.Recipe, sub recipe.SubTask, d Decision) {
	d.Recipe = rec.Name
	d.TaskID = sub.TaskID
	d.At = m.now()
	m.traceHop(d.Trace, d.Recipe, d.TaskID, d.Seq, "judge", d.SensedAt)
	if m.metrics != nil {
		m.metrics.decisions.Inc()
	}
	if sub.Task.Output != "" {
		if err := m.publishEncoded(sub.Task.Output, d.appendJSON); err != nil {
			m.logf("%s %s publish: %v", sub.Task.Kind, sub.Name(), err)
		}
	}
	if m.cfg.Observer.OnDecision != nil {
		m.cfg.Observer.OnDecision(d)
	}
}

// describeKind returns a human-readable class name for a task kind
// (matching the paper's class vocabulary in Fig. 4).
func describeKind(k recipe.Kind) string {
	switch k {
	case recipe.KindSense:
		return "Sensor class"
	case recipe.KindTrain:
		return "Learning class"
	case recipe.KindPredict, recipe.KindAnomaly, recipe.KindCluster:
		return "Judging class"
	case recipe.KindActuate:
		return "Actuator class"
	case recipe.KindAggregate:
		return "Subscribe class (join)"
	default:
		return string(k) + " class"
	}
}
