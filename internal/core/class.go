package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
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

// subscribeInputs subscribes handler to every input topic and arranges
// cleanup on task stop.
func (m *Module) subscribeInputs(inst *taskInstance, topics []string, handler mqttclient.Handler) error {
	client := m.currentClient()
	if client == nil {
		return ErrNotStarted
	}
	for _, topic := range topics {
		_, reg, err := client.SubscribeHandle(topic, m.cfg.DataQoS, handler)
		if err != nil {
			return fmt.Errorf("core: subscribe %s: %w", topic, err)
		}
		inst.onStop(reg.Remove)
	}
	return nil
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

// decodeSamples accepts either a bare 32-byte sample or a batch payload.
func decodeSamples(payload []byte) ([]sensor.Sample, error) {
	samples, _, err := decodeSamplesTraced(payload)
	return samples, err
}

// decodeSamplesTraced is decodeSamples plus the optional trace context a
// traced publisher appended (nil when absent — the common untraced case
// costs nothing extra).
func decodeSamplesTraced(payload []byte) ([]sensor.Sample, *TraceContext, error) {
	if len(payload) == sensor.SampleSize {
		s, err := sensor.DecodeSample(payload)
		if err != nil {
			return nil, nil, err
		}
		return []sensor.Sample{s}, nil, nil
	}
	return DecodeBatchTraced(payload)
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

// BatchFeatures converts a joined batch into a sparse feature vector: one
// feature per sensor channel. Key strings come from the per-sensor symbol
// cache, not fmt.Sprintf. The hot analysis path uses BatchDense instead;
// this map form remains the interchange format.
func BatchFeatures(batch []sensor.Sample) feature.Vector {
	v := make(feature.Vector, len(batch)*3)
	for _, s := range batch {
		cs := symsFor(s.SensorIndex)
		for ch, val := range s.Values {
			v[cs.numKey[ch]] = float64(val)
		}
	}
	return v
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

func newClassifier(sub recipe.SubTask) ml.Classifier {
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
	if rate := paramFloat(sub, "rate", 0); rate > 0 {
		s.RateHz = rate
	}
	if s.Clock == nil {
		s.Clock = m.cfg.Clock
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
		_ = s.Run(ctx, func(smp sensor.Sample) {
			// Untraced deployments publish the bare 32-byte sample as
			// always; with tracing on, the sample rides in a one-sample
			// batch carrying the freshly minted trace context, so every
			// downstream module sees the flow's identity and origin.
			// Sampling (TraceSampleEvery > 1) mints a context only for
			// every Nth flow; the rest ship bare, costing nothing anywhere
			// downstream.
			payload := smp.Encode()
			if traced && (sample <= 1 || smp.Seq%sample == 0) {
				tc := &TraceContext{
					Key:            telemetry.TraceKey{Recipe: rec.Name, TaskID: sub.TaskID, Seq: smp.Seq},
					OriginUnixNano: smp.Timestamp.UnixNano(),
					OriginModule:   m.cfg.ID,
				}
				if p, err := EncodeBatchTraced([]sensor.Sample{smp}, tc); err == nil {
					payload = p
				}
			}
			if err := m.publishData(sub.Task.Output, payload); err != nil {
				m.logf("sense %s publish: %v", sub.Name(), err)
				return
			}
			m.traceStage(rec.Name, sub.TaskID, smp.Seq, "publish", smp.Timestamp)
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
	w := flow.NewCountWindow(size, func(batch []sensor.Sample) {
		pendingMu.Lock()
		tc := forward(pendingCtx)
		pendingCtx = nil
		pendingMu.Unlock()
		payload, err := EncodeBatchTraced(batch, tc)
		if err != nil {
			m.logf("window %s encode: %v", sub.Name(), err)
			return
		}
		if err := m.publishData(sub.Task.Output, payload); err != nil {
			m.logf("window %s publish: %v", sub.Name(), err)
		}
	})
	return m.subscribeInputs(inst, topics, func(msg mqttclient.Message) {
		samples, tc, err := decodeSamplesTraced(msg.Payload)
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
		payload := s.Encode()
		if tc != nil {
			if p, err := EncodeBatchTraced([]sensor.Sample{s}, tc); err == nil {
				payload = p
			}
		}
		if err := m.publishData(sub.Task.Output, payload); err != nil {
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
	return m.subscribeInputs(inst, topics, func(msg mqttclient.Message) {
		samples, tc, err := decodeSamplesTraced(msg.Payload)
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
	ctxs := newCtxCache(int(4 * maxLag))
	joiner := flow.NewJoiner(topics, maxLag, func(seq uint32, batch []sensor.Sample) {
		adopted := ctxs.take(seq)
		payload, err := EncodeBatchTraced(batch, forward(adopted))
		if err != nil {
			m.logf("aggregate %s encode: %v", sub.Name(), err)
			return
		}
		if adopted != nil {
			m.traceFlow(adopted.Key, adopted.OriginModule, "join", EarliestTimestamp(batch))
		} else {
			m.traceStage(rec.Name, sub.TaskID, seq, "join", EarliestTimestamp(batch))
		}
		if err := m.publishData(sub.Task.Output, payload); err != nil {
			m.logf("aggregate %s publish: %v", sub.Name(), err)
		}
	})
	// One handler per topic so the joiner learns the source.
	client := m.currentClient()
	if client == nil {
		return ErrNotStarted
	}
	for _, topic := range topics {
		topic := topic
		_, reg, err := client.SubscribeHandle(topic, m.cfg.DataQoS, func(msg mqttclient.Message) {
			samples, tc, err := decodeSamplesTraced(msg.Payload)
			if err != nil {
				return
			}
			for _, s := range samples {
				ctxs.put(s.Seq, tc)
				joiner.Push(topic, s)
			}
		})
		if err != nil {
			return fmt.Errorf("core: subscribe %s: %w", topic, err)
		}
		inst.onStop(reg.Remove)
	}
	return nil
}

// --- Train (Learning class) ---

func (m *Module) startTrain(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	topics, err := m.resolveInputs(rec, sub)
	if err != nil {
		return err
	}
	if paramString(sub, "mode", "classify") == "regression" {
		return m.startTrainRegression(inst, rec, sub, topics)
	}
	clf := newClassifier(sub)
	if ck, ok := clf.(ml.Checkpointer); ok {
		m.registerCheckpointer(inst, sub.Name(), ck)
	}
	dclf, dense := clf.(ml.DenseClassifier)
	var (
		mu       sync.Mutex
		examples int64
	)

	handler := func(msg mqttclient.Message) {
		batch, tc, err := decodeSamplesTraced(msg.Payload)
		if err != nil || len(batch) == 0 {
			return
		}
		seq := batch[0].Seq
		if !shardOwnsBatch(sub, seq) {
			return
		}
		if dense {
			dv := BatchDense(batch)
			dclf.TrainDense(dv, labelFor(sub, batch))
			feature.PutDense(dv)
		} else {
			clf.Train(BatchFeatures(batch), labelFor(sub, batch))
		}
		mu.Lock()
		examples++
		count := examples
		mu.Unlock()

		ev := TrainEvent{
			Recipe:   rec.Name,
			TaskID:   sub.TaskID,
			Seq:      seq,
			SensedAt: EarliestTimestamp(batch),
			At:       m.now(),
			Examples: count,
			Trace:    forward(tc),
		}
		m.noteTrainEvent(ev)
		if sub.Task.Output != "" {
			if err := m.publishData(sub.Task.Output, EncodeJSON(ev)); err != nil {
				m.logf("train %s publish: %v", sub.Name(), err)
			}
		}
		if m.cfg.Observer.OnTrain != nil {
			m.cfg.Observer.OnTrain(ev)
		}
	}
	if err := m.subscribeInputs(inst, topics, handler); err != nil {
		return err
	}

	// MIX: publish weights for predictors and sibling shards; average in
	// sibling snapshots (Jubatus-style distributed learning).
	if dm, mixable := clf.(ml.DeltaMixer); mixable {
		return m.startMixLoop(inst, rec, sub, dm)
	}
	return nil
}

// mixEvictCounter returns the peer-eviction counter (nil without telemetry).
func (m *Module) mixEvictCounter() *telemetry.Counter {
	if m.metrics == nil {
		return nil
	}
	return m.metrics.mixEvictions
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

// startMixLoop runs the Managing class's MIX protocol for one learner.
// Every MixInterval the updates accumulated since the last round ship as
// one QoS-DataQoS, non-retained binary delta with an unbroken round
// sequence; every MixKeyframeEvery rounds the full state follows as a
// retained keyframe (joiners bootstrap from it, desynchronized peers
// resync). Incremental averaging happens in place: each in-order peer
// delta is applied at 1/n, and after publishing, the local model keeps
// only its own 1/n share of the round's updates — algebraically one
// synchronized full average per round, without ever materializing the
// union of weight maps.
func (m *Module) startMixLoop(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask, dm ml.DeltaMixer) error {
	topic := mixTopic(rec.Name, sub.TaskID)
	mixClient := m.currentClient()
	if mixClient == nil {
		return ErrNotStarted
	}
	dm.EnableDeltaTracking()
	syms := feature.DefaultSymbols()
	rx := newMixReceiver(dm, true, m.cfg.MixStaleAfter, m.mixEvictCounter())
	rx.setEvents(m.events, m.cfg.ID)
	if sub.ShardCount > 1 {
		// Reusable decode target: the handler runs serially on its lane.
		var peerDelta ml.MixDelta
		filter := topic + "/+"
		_, reg, err := mixClient.SubscribeHandle(filter, m.cfg.DataQoS, func(msg mqttclient.Message) {
			h, err := DecodeMix(msg.Payload, syms, &peerDelta)
			if err != nil {
				m.noteMixBadPayload(filter, msg.Topic, err)
				return
			}
			if h.ModuleID == m.cfg.ID {
				return
			}
			rx.onPayload(h, &peerDelta, m.now())
		})
		if err != nil {
			return fmt.Errorf("core: subscribe mix: %w", err)
		}
		inst.onStop(reg.Remove)
	}

	ctx, cancel := context.WithCancel(m.ctx)
	inst.onStop(cancel)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		var (
			enc          []byte
			delta, dense ml.MixDelta
			round        uint64
		)
		keyframeEvery := uint64(m.cfg.MixKeyframeEvery)
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
				round++
				now := m.now()
				dm.ExportDeltaInto(&delta)
				if delta.Len() > 0 {
					rx.noteLocalUpdate()
				}
				h := MixHeader{ModuleID: m.cfg.ID, Shard: sub.Shard, Round: round, At: now}
				enc = AppendEncodeMix(enc[:0], h, &delta, syms)
				if err := mixClient.Publish(topic+"/"+m.cfg.ID, enc, m.cfg.DataQoS, false); err != nil {
					m.logf("train %s mix publish: %v", sub.Name(), err)
				}
				bytes := len(enc)
				// Keep only the local 1/n share of this round's updates;
				// every live peer applies the published delta at 1/n too,
				// so the cluster-wide sum still adds each update exactly
				// once — incremental averaging without the union maps.
				if sub.ShardCount > 1 && delta.Len() > 0 {
					if n := rx.shardCount(now); n > 1 {
						dm.ApplyDelta(&delta, 1/float64(n)-1)
					}
				}
				if keyframeEvery <= 1 || round%keyframeEvery == 1 {
					dm.ExportDenseInto(&dense)
					hk := h
					hk.Keyframe = true
					enc = AppendEncodeMix(enc[:0], hk, &dense, syms)
					if err := mixClient.Publish(topic+"/"+m.cfg.ID, enc, m.cfg.DataQoS, true); err != nil {
						m.logf("train %s mix keyframe publish: %v", sub.Name(), err)
					}
					bytes += len(enc)
				}
				m.noteMixRound(bytes, rx.staleness(now))
			}
		}
	}()
	return nil
}

// startModelSync subscribes a Judging-class model to the named trainer
// task's MIX stream and folds arriving payloads (binary deltas and
// keyframes) into it via a mixReceiver with no local shard membership.
func (m *Module) startModelSync(inst *taskInstance, rec recipe.Recipe, from string, model ml.DeltaMixer) error {
	client := m.currentClient()
	if client == nil {
		return ErrNotStarted
	}
	syms := feature.DefaultSymbols()
	rx := newMixReceiver(model, false, m.cfg.MixStaleAfter, m.mixEvictCounter())
	rx.setEvents(m.events, m.cfg.ID)
	// Reusable decode target: the handler runs serially on its lane.
	var pd ml.MixDelta
	filter := mixTopic(rec.Name, from) + "/+"
	_, reg, err := client.SubscribeHandle(filter, m.cfg.DataQoS, func(msg mqttclient.Message) {
		h, err := DecodeMix(msg.Payload, syms, &pd)
		if err != nil {
			m.noteMixBadPayload(filter, msg.Topic, err)
			return
		}
		rx.onPayload(h, &pd, m.now())
	})
	if err != nil {
		return fmt.Errorf("core: subscribe model: %w", err)
	}
	inst.onStop(reg.Remove)
	return nil
}

// regressionSplit separates one batch into regression features and the
// target value: the target sensor's channel-0 reading is predicted from
// every other sample's channels. ok is false when the target sensor is
// absent from the batch.
func regressionSplit(batch []sensor.Sample, targetSensor uint16) (v feature.Vector, target float64, ok bool) {
	v = make(feature.Vector, len(batch)*3)
	for _, s := range batch {
		if s.SensorIndex == targetSensor {
			target = float64(s.Values[0])
			ok = true
			continue
		}
		cs := symsFor(s.SensorIndex)
		for ch, val := range s.Values {
			v[cs.numKey[ch]] = float64(val)
		}
	}
	return v, target, ok
}

// startTrainRegression is the Learning class in regression mode (Jubatus's
// regression engine): it learns to predict the target sensor's reading
// from the other streams.
func (m *Module) startTrainRegression(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask, topics []string) error {
	regressor := ml.NewPARegressor(paramFloat(sub, "epsilon", 0.1), paramFloat(sub, "c", 1))
	m.registerCheckpointer(inst, sub.Name(), regressor)
	targetSensor := uint16(paramInt(sub, "targetSensor", 0))
	var (
		mu       sync.Mutex
		examples int64
	)
	handler := func(msg mqttclient.Message) {
		batch, tc, err := decodeSamplesTraced(msg.Payload)
		if err != nil || len(batch) == 0 {
			return
		}
		seq := batch[0].Seq
		if !shardOwnsBatch(sub, seq) {
			return
		}
		v, target, ok := regressionSplit(batch, targetSensor)
		if !ok {
			return
		}
		regressor.Train(v, target)
		mu.Lock()
		examples++
		count := examples
		mu.Unlock()
		ev := TrainEvent{
			Recipe:   rec.Name,
			TaskID:   sub.TaskID,
			Seq:      seq,
			SensedAt: EarliestTimestamp(batch),
			At:       m.now(),
			Examples: count,
			Trace:    forward(tc),
		}
		m.noteTrainEvent(ev)
		if sub.Task.Output != "" {
			if err := m.publishData(sub.Task.Output, EncodeJSON(ev)); err != nil {
				m.logf("train %s publish: %v", sub.Name(), err)
			}
		}
		if m.cfg.Observer.OnTrain != nil {
			m.cfg.Observer.OnTrain(ev)
		}
	}
	if err := m.subscribeInputs(inst, topics, handler); err != nil {
		return err
	}
	return m.startMixLoop(inst, rec, sub, regressor)
}

// --- Predict (Judging class) ---

func (m *Module) startPredict(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	topics, err := m.resolveInputs(rec, sub)
	if err != nil {
		return err
	}
	if paramString(sub, "mode", "classify") == "regression" {
		return m.startPredictRegression(inst, rec, sub, topics)
	}
	clf := newClassifier(sub)
	dclf, dense := clf.(ml.DenseClassifier)

	// Model sync: fold the named trainer task's MIX stream (binary
	// deltas and keyframes) into the local model.
	if from := paramString(sub, "modelFrom", ""); from != "" {
		if dm, ok := clf.(ml.DeltaMixer); ok {
			if err := m.startModelSync(inst, rec, from, dm); err != nil {
				return err
			}
		}
	}

	return m.subscribeInputs(inst, topics, func(msg mqttclient.Message) {
		batch, tc, err := decodeSamplesTraced(msg.Payload)
		if err != nil || len(batch) == 0 {
			return
		}
		if !shardOwnsBatch(sub, batch[0].Seq) {
			return
		}
		label := ""
		score := 0.0
		if dense {
			dv := BatchDense(batch)
			if best, err := dclf.BestDense(dv); err == nil {
				label, score = best.Label, best.Score
			}
			feature.PutDense(dv)
		} else {
			v := BatchFeatures(batch)
			if got, err := clf.Classify(v); err == nil {
				label = got
				if scores := clf.Scores(v); len(scores) > 0 {
					score = scores[0].Score
				}
			}
		}
		m.emitDecision(rec, sub, Decision{
			Kind:     string(recipe.KindPredict),
			Label:    label,
			Score:    score,
			Seq:      batch[0].Seq,
			SensedAt: EarliestTimestamp(batch),
			Trace:    forward(tc),
		})
	})
}

// startPredictRegression is the Judging class in regression mode: it
// estimates the target sensor's reading and emits it as the decision
// score (optionally syncing its model from a regression trainer).
func (m *Module) startPredictRegression(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask, topics []string) error {
	regressor := ml.NewPARegressor(paramFloat(sub, "epsilon", 0.1), paramFloat(sub, "c", 1))
	targetSensor := uint16(paramInt(sub, "targetSensor", 0))

	if from := paramString(sub, "modelFrom", ""); from != "" {
		if err := m.startModelSync(inst, rec, from, regressor); err != nil {
			return err
		}
	}

	return m.subscribeInputs(inst, topics, func(msg mqttclient.Message) {
		batch, tc, err := decodeSamplesTraced(msg.Payload)
		if err != nil || len(batch) == 0 {
			return
		}
		if !shardOwnsBatch(sub, batch[0].Seq) {
			return
		}
		v, _, _ := regressionSplit(batch, targetSensor)
		m.emitDecision(rec, sub, Decision{
			Kind:     "regress",
			Score:    regressor.Predict(v),
			Seq:      batch[0].Seq,
			SensedAt: EarliestTimestamp(batch),
			Trace:    forward(tc),
		})
	})
}

// --- Anomaly (Judging class) ---

func (m *Module) startAnomaly(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	topics, err := m.resolveInputs(rec, sub)
	if err != nil {
		return err
	}
	var detector ml.AnomalyDetector
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
	if ck, ok := detector.(ml.Checkpointer); ok {
		m.registerCheckpointer(inst, sub.Name(), ck)
	}
	ddet, dense := detector.(ml.DenseAnomalyDetector)

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

	return m.subscribeInputs(inst, topics, func(msg mqttclient.Message) {
		batch, tc, err := decodeSamplesTraced(msg.Payload)
		if err != nil || len(batch) == 0 {
			return
		}
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
			var score float64
			if dense {
				dv := feature.GetDense()
				appendSampleRawDense(dv, s)
				score = ddet.AddDense(dv)
				feature.PutDense(dv)
			} else {
				cs := symsFor(s.SensorIndex)
				score = detector.Add(feature.Vector{
					cs.rawKey[0]: float64(s.Values[0]),
					cs.rawKey[1]: float64(s.Values[1]),
					cs.rawKey[2]: float64(s.Values[2]),
				})
			}
			if score > worst {
				worst = score
			}
		}
		if !scored {
			return // windowed mode still warming up
		}
		label := "normal"
		if worst > threshold {
			label = "anomaly"
		}
		m.emitDecision(rec, sub, Decision{
			Kind:     string(recipe.KindAnomaly),
			Label:    label,
			Score:    worst,
			Seq:      batch[0].Seq,
			SensedAt: EarliestTimestamp(batch),
			Trace:    forward(tc),
		})
	})
}

// --- Cluster (Judging class) ---

func (m *Module) startCluster(inst *taskInstance, rec recipe.Recipe, sub recipe.SubTask) error {
	topics, err := m.resolveInputs(rec, sub)
	if err != nil {
		return err
	}
	km := ml.NewSequentialKMeans(paramInt(sub, "k", 2))
	m.registerCheckpointer(inst, sub.Name(), km)
	return m.subscribeInputs(inst, topics, func(msg mqttclient.Message) {
		batch, tc, err := decodeSamplesTraced(msg.Payload)
		if err != nil || len(batch) == 0 {
			return
		}
		dv := BatchDense(batch)
		idx := km.AddDense(dv)
		feature.PutDense(dv)
		m.emitDecision(rec, sub, Decision{
			Kind:     string(recipe.KindCluster),
			Label:    "cluster-" + strconv.Itoa(idx),
			Score:    float64(idx),
			Seq:      batch[0].Seq,
			SensedAt: EarliestTimestamp(batch),
			Trace:    forward(tc),
		})
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

	return m.subscribeInputs(inst, topics, func(msg mqttclient.Message) {
		var d Decision
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
		if d.Trace != nil {
			m.traceFlow(d.Trace.Key, d.Trace.OriginModule, "actuate", d.SensedAt)
		} else {
			m.traceStage(d.Recipe, d.TaskID, d.Seq, "actuate", d.SensedAt)
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
	return m.subscribeInputs(inst, topics, func(msg mqttclient.Message) {
		fn(msg, m.publishData)
	})
}

// noteTrainEvent records the Learning-class stage span and counter for one
// model update.
func (m *Module) noteTrainEvent(ev TrainEvent) {
	if ev.Trace != nil {
		m.traceFlow(ev.Trace.Key, ev.Trace.OriginModule, "learn", ev.SensedAt)
	} else {
		m.traceStage(ev.Recipe, ev.TaskID, ev.Seq, "learn", ev.SensedAt)
	}
	if m.metrics != nil {
		m.metrics.trained.Inc()
	}
}

func (m *Module) emitDecision(rec recipe.Recipe, sub recipe.SubTask, d Decision) {
	d.Recipe = rec.Name
	d.TaskID = sub.TaskID
	d.At = m.now()
	if d.Trace != nil {
		m.traceFlow(d.Trace.Key, d.Trace.OriginModule, "judge", d.SensedAt)
	} else {
		m.traceStage(d.Recipe, d.TaskID, d.Seq, "judge", d.SensedAt)
	}
	if m.metrics != nil {
		m.metrics.decisions.Inc()
	}
	if sub.Task.Output != "" {
		if err := m.publishData(sub.Task.Output, EncodeJSON(d)); err != nil {
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
