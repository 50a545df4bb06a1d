package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Errors returned by the module runtime.
var (
	ErrNotStarted      = errors.New("core: module not started")
	ErrAlreadyStarted  = errors.New("core: module already started")
	ErrUnknownSensor   = errors.New("core: unknown sensor")
	ErrUnknownActuator = errors.New("core: unknown actuator")
	ErrUnknownHandler  = errors.New("core: unknown custom handler")
	ErrTaskExists      = errors.New("core: task already running")
)

// CustomFunc is an application-provided stream stage: it receives each
// input message and may publish results through publish.
type CustomFunc func(msg mqttclient.Message, publish func(topic string, payload []byte) error)

// Observer receives middleware events; all callbacks are optional and must
// be fast (they run inline on the subscription's dispatch lane, so a slow
// callback delays only that subscription's queue — see mqttclient.Handler).
type Observer struct {
	// OnTrain fires after every Learning-class model update.
	OnTrain func(TrainEvent)
	// OnDecision fires after every Judging-class decision.
	OnDecision func(Decision)
}

// Config configures a neuron module.
type Config struct {
	// ID is the module identity (MQTT client ID, control topic key).
	ID string
	// Capabilities advertises what this module can host
	// (e.g. "sensor:accelerometer", "actuator:light", "camera").
	Capabilities []string
	// CapacityOps advertises processing capacity for task assignment.
	CapacityOps float64
	// Dial opens the transport to the broker.
	Dial func() (net.Conn, error)
	// Clock supplies time (nil = wall clock).
	Clock clock.Clock
	// Logger receives diagnostics (nil = silent).
	Logger *log.Logger
	// HeartbeatInterval spaces presence announcements (default 5s).
	HeartbeatInterval time.Duration
	// DataQoS is the QoS for data-plane publishes (default QoS0).
	DataQoS wire.QoS
	// MixKeyframeEvery is the keyframe cadence of the delta MIX protocol:
	// every Nth round the shard's whole contribution is published retained
	// (QoS as DataQoS) in addition to that round's delta, so joiners
	// bootstrap and desynchronized receivers recover. 1 = the whole
	// contribution every round; default 8.
	MixKeyframeEvery int
	// MixStaleAfter evicts a MIX shard silent for longer than this bound:
	// it stops counting toward n and the staleness gauge, its contribution
	// stays until its next keyframe replaces it (default three MIX
	// intervals).
	MixStaleAfter time.Duration
	// Observer receives middleware events.
	Observer Observer
	// Telemetry, when set, receives module metrics (decision/train-event
	// counters, running-task gauge, MIX and fencing counters). Per-stage
	// latency quantiles come from the Tracer (Tracer.BindRegistry).
	Telemetry *telemetry.Registry
	// Tracer, when set, records one span per pipeline stage a message
	// passes through on this module (publish, join, learn, judge,
	// actuate). Spans correlate across modules via (recipe, taskID, seq),
	// which the middleware already carries on the wire; with a Tracer set
	// the module also attaches a TraceContext to every data-plane
	// re-publish so downstream modules record their spans under the
	// originating flow's key.
	Tracer *telemetry.Tracer
	// TraceExportInterval, when positive (and Tracer is set), turns on
	// span export: every interval the spans recorded since the last flush
	// are read from the tracer's ring and published as one
	// telemetry.SpanBatch JSON on TopicTracePrefix+ID (QoS 0), for the
	// management node's cluster trace collector. Zero keeps spans local
	// to the module's own /traces endpoint.
	TraceExportInterval time.Duration
	// TraceSampleEvery subsamples flow observability: only flows whose
	// sequence number is divisible by it mint/propagate a TraceContext and
	// record stage spans and latencies. 0 or 1 observes every flow — what
	// the simulator and tests want; daemons default to 1-in-32 (via
	// -trace-sample) so the hot-path cost of tracing stays negligible.
	// Keying on the flow seq keeps sampling consistent across modules:
	// every stage of a sampled flow is recorded everywhere it runs.
	TraceSampleEvery uint32
	// Events, when set, is the module's structured event log: task
	// lifecycle, reconnects, checkpoint mismatches and MIX desyncs land
	// here (and on the local /events endpoint). Share the same
	// log with store.Options.Events so WAL recovery events emitted before
	// the module exists ride the same export stream: export starts at
	// the log's first event. Nil makes NewModule create one of
	// telemetry.DefaultEventCapacity.
	Events *telemetry.EventLog
	// EventExportInterval, when positive, turns on event export: every
	// interval the events emitted since the last flush are read from the
	// log's ring and published as one telemetry.EventBatch JSON on
	// TopicEventsPrefix+ID (QoS 0), for the management node's cluster
	// event view. Zero keeps events local to the module's own /events
	// endpoint.
	EventExportInterval time.Duration
	// Store, when set, persists checkpoints of the module's ML model state
	// (WAL + snapshots) so a restarted module resumes training with at
	// most CheckpointInterval of updates lost. The caller owns the store
	// and closes it after Close. Nil keeps today's in-memory behavior.
	Store store.Store
	// CheckpointInterval spaces model checkpoints (default 30s when Store
	// is set).
	CheckpointInterval time.Duration
	// CheckpointHandoff, when set, publishes each subtask's latest model
	// checkpoint as a retained blob on CheckpointTopic(name), and fetches
	// that blob when a task starts without local checkpoint state — so the
	// new host of a failed-over learner resumes warm even though it never
	// saw the dead module's store. Orthogonal to Store: a module can hand
	// off without journaling locally and vice versa.
	CheckpointHandoff bool
	// FenceAfter, when positive, arms self-fencing: once the broker has
	// not acknowledged an announce for longer than this bound the module
	// assumes it is partitioned, stops publishing task outputs (drops are
	// counted) and marks its beacons Fenced until the next desired set from
	// the manager clears the fence. Zero disables self-fencing. A bound
	// below mqttclient.DefaultAckTimeout is also the session's QoS 1 ack
	// wait, so an announce blocked by a partition fails within it.
	FenceAfter time.Duration

	// mixInterval spaces MIX weight exchanges for sharded trainers
	// (default 2s). The package's tests shorten it.
	mixInterval time.Duration
	// disableReconnect turns off automatic reconnection after a broker
	// connection loss. With reconnection on (the default), the module
	// redials with exponential backoff, re-registers its control
	// subscriptions, and restarts its assigned tasks. The package's tests
	// turn it off.
	disableReconnect bool
	// reconnectBackoff is the initial redial delay (default 200ms,
	// doubled after each failed attempt until it passes 10s; at most 30
	// attempts). The package's tests change it.
	reconnectBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 5 * time.Second
	}
	if c.mixInterval <= 0 {
		c.mixInterval = 2 * time.Second
	}
	if c.MixKeyframeEvery <= 0 {
		c.MixKeyframeEvery = 8
	}
	if c.MixStaleAfter <= 0 {
		c.MixStaleAfter = 3 * c.mixInterval
	}
	if c.reconnectBackoff <= 0 {
		c.reconnectBackoff = 200 * time.Millisecond
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	return c
}

// Module is one IFoT neuron: it connects to the flow-distribution broker,
// hosts assigned subtasks, and integrates local sensors and actuators.
type Module struct {
	cfg Config

	mu        sync.Mutex
	client    *mqttclient.Client
	started   bool
	closed    bool
	sensors   map[string]*sensor.Sensor
	actuators map[string]sensor.Actuator
	customs   map[string]CustomFunc
	hosted    map[string]*hostedTask // the task table, by subtask name
	// build instantiates a task (newTaskInstance; the control-plane sweep
	// stubs it).
	build func(recipe.Recipe, recipe.SubTask) (*taskInstance, error)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	metrics *moduleMetrics
	events  *telemetry.EventLog
	ckpt    *ckptManager // nil without Config.Store/CheckpointHandoff

	// Self-fencing state: lastAnnounceAck is the last instant the broker
	// acknowledged an announce beacon (guarded by fenceMu); outputsFenced
	// gates every data-plane publish once the silence exceeds FenceAfter.
	fenceMu         sync.Mutex
	lastAnnounceAck time.Time
	outputsFenced   atomic.Bool

	// warnLast rate-limits per-message warn events (mix_bad_payload) per
	// {kind, subscription filter}: their callbacks fire on the dispatch
	// path and the event stream only needs to know the condition started.
	warnMu   sync.Mutex
	warnLast map[[2]string]time.Time
}

// taskSpec is the durable description of an assigned subtask, kept so
// tasks can be restarted after a reconnect.
type taskSpec struct {
	rec recipe.Recipe
	sub recipe.SubTask
	// epoch is the assignment epoch the manager stamped; 0 marks tasks
	// started directly via StartTask, which desired sets never stop.
	epoch uint64
}

// hostedTask is one entry of the module's task table. The entry exists
// from the moment a start reserves the name until the task is stopped;
// inst is nil while a start or restart builds the instance and after a
// restart failed (the spec survives for the next one).
type hostedTask struct {
	spec taskSpec
	inst *taskInstance
}

// NewModule creates an unstarted module.
func NewModule(cfg Config) *Module {
	m := &Module{
		cfg:       cfg.withDefaults(),
		sensors:   make(map[string]*sensor.Sensor),
		actuators: make(map[string]sensor.Actuator),
		customs:   make(map[string]CustomFunc),
		hosted:    make(map[string]*hostedTask),
		warnLast:  make(map[[2]string]time.Time),
	}
	m.build = m.newTaskInstance
	m.events = m.cfg.Events
	if m.events == nil {
		m.events = telemetry.NewEventLog(0)
	}
	m.events.BindRegistry(m.cfg.Telemetry, telemetry.L("module", m.cfg.ID))
	if reg := m.cfg.Telemetry; reg != nil {
		id := telemetry.L("module", m.cfg.ID)
		m.metrics = &moduleMetrics{
			decisions: reg.Counter("ifot_module_decisions_total", "Judging-class decisions emitted", id),
			trained:   reg.Counter("ifot_module_train_events_total", "Learning-class model updates", id),
			mixRounds: reg.Counter("ifot_mix_rounds_total", "MIX weight-exchange rounds published", id),
			mixBytes:  reg.Counter("ifot_mix_bytes_total", "MIX payload bytes published (deltas + keyframes)", id),
			mixEvictions: reg.Counter("ifot_mix_peer_evictions_total",
				"MIX peers evicted for exceeding the staleness bound", id),
			mixStaleness: reg.Gauge("ifot_mix_peer_staleness_seconds",
				"age of the oldest live MIX peer's last payload", id),
			fencedDrops: reg.Counter("ifot_module_fenced_drops_total",
				"data-plane publishes dropped while outputs were fenced", id),
		}
		reg.GaugeFunc("ifot_module_tasks_running", "subtasks currently hosted",
			func() float64 { return float64(len(m.RunningTasks())) }, id)
	}
	if m.cfg.Tracer == nil {
		m.cfg.TraceExportInterval = 0 // no spans to ship
	}
	if reg := m.cfg.Telemetry; reg != nil && m.cfg.TraceExportInterval > 0 {
		reg.CounterFunc("ifot_module_trace_spans_dropped_total",
			"spans overwritten in the tracer ring before export",
			func() int64 { return int64(m.cfg.Tracer.Dropped()) },
			telemetry.L("module", m.cfg.ID))
	}
	return m
}

// moduleMetrics holds a module's telemetry handles.
type moduleMetrics struct {
	decisions    *telemetry.Counter
	trained      *telemetry.Counter
	mixRounds    *telemetry.Counter
	mixBytes     *telemetry.Counter
	mixEvictions *telemetry.Counter
	mixStaleness *telemetry.Gauge
	fencedDrops  *telemetry.Counter
}

// traceHop records one span for a pipeline stage this module completed:
// it spans from the batch's sensing instant to now, so per-stage
// aggregates read as cumulative latency at that stage — the decomposition
// the paper's Tables II/III report. A traced flow (tc != nil) is recorded
// under its propagated key, an untraced one under the local
// (recipe, task, seq) key. No-op without a Tracer.
func (m *Module) traceHop(tc *TraceContext, recipeName, taskID string, seq uint32, stage string, from time.Time) {
	if tc != nil {
		m.traceFlow(tc.Key, tc.OriginModule, stage, from)
		return
	}
	m.traceFlow(telemetry.TraceKey{Recipe: recipeName, TaskID: taskID, Seq: seq}, "", stage, from)
}

// traceFlow records a span under an explicit flow key — the propagated
// TraceContext key when the message crossed module boundaries, so spans
// from every hop of one flow share a key and the management node can
// assemble them into an end-to-end trace. originModule names the module
// whose clock stamped `from` when it differs from this module (the trace
// collector applies per-module skew offsets to the right endpoint).
func (m *Module) traceFlow(key telemetry.TraceKey, originModule, stage string, from time.Time) {
	tr := m.cfg.Tracer
	if tr == nil {
		return
	}
	if n := m.cfg.TraceSampleEvery; n > 1 && key.Seq%n != 0 {
		return
	}
	end := m.now()
	if from.IsZero() || from.After(end) {
		from = end
	}
	if originModule == m.cfg.ID {
		originModule = ""
	}
	tr.Record(telemetry.Span{
		Key: key, Stage: stage, Module: m.cfg.ID,
		OriginModule: originModule, Start: from, End: end,
	})
}

// ID returns the module identity.
func (m *Module) ID() string { return m.cfg.ID }

// Events returns the module's structured event log (never nil after
// NewModule), for the local /events endpoint and ad-hoc emission by
// application code.
func (m *Module) Events() *telemetry.EventLog { return m.events }

// RegisterSensor makes a local sensor available to sense tasks under its
// sensor ID.
func (m *Module) RegisterSensor(s *sensor.Sensor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sensors[s.ID] = s
}

// RegisterActuator makes a local actuator available to actuate tasks.
func (m *Module) RegisterActuator(a sensor.Actuator) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.actuators[a.ID()] = a
}

// RegisterCustom makes a custom stream stage available under name.
func (m *Module) RegisterCustom(name string, fn CustomFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.customs[name] = fn
}

// Start connects the module to the broker, announces presence, and begins
// accepting task assignments.
func (m *Module) Start() error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return ErrAlreadyStarted
	}
	if m.cfg.Dial == nil {
		m.mu.Unlock()
		return errors.New("core: module config needs a Dial function")
	}
	m.started = true
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.mu.Unlock()

	// Recover model checkpoints before connecting: assignments can arrive
	// the moment the control subscriptions exist, and restored learners
	// must be in place before their tasks see traffic.
	if err := m.initCheckpoints(); err != nil {
		return err
	}

	client, err := m.connect()
	if err != nil {
		return err
	}

	m.fenceMu.Lock()
	m.lastAnnounceAck = m.now()
	m.fenceMu.Unlock()
	m.announce()
	m.wg.Add(2)
	go m.heartbeatLoop()
	go m.watchConnection(client)
	if m.ckpt != nil {
		m.wg.Add(1)
		go m.checkpointLoop()
	}
	if m.exporting() {
		m.wg.Add(1)
		go m.exportLoop()
	}
	m.logf("module %s started", m.cfg.ID)
	return nil
}

// exporting reports whether spans or events are shipped to the
// management node.
func (m *Module) exporting() bool {
	return m.cfg.TraceExportInterval > 0 || m.cfg.EventExportInterval > 0
}

// exportLoop ships pending spans and events toward the management node,
// each on its own interval (a nil channel when that export is off); a
// final flush runs on shutdown (and on client disconnect via the
// mqttclient OnBeforeDisconnect hook, so nothing is stranded when the
// connection goes away first).
func (m *Module) exportLoop() {
	defer m.wg.Done()
	after := func(d time.Duration) <-chan time.Time {
		if d <= 0 {
			return nil
		}
		return m.cfg.Clock.After(d)
	}
	spanTick, eventTick := after(m.cfg.TraceExportInterval), after(m.cfg.EventExportInterval)
	for {
		select {
		case <-m.ctx.Done():
			m.flushTelemetry()
			return
		case <-spanTick:
			m.flushSpans()
			spanTick = after(m.cfg.TraceExportInterval)
		case <-eventTick:
			m.flushEvents()
			eventTick = after(m.cfg.EventExportInterval)
		}
	}
}

func (m *Module) flushSpans() {
	if m.cfg.TraceExportInterval > 0 {
		m.publishExport(TopicTracePrefix, m.cfg.Tracer.ExportBatch(m.cfg.ID, m.now()))
	}
}

func (m *Module) flushEvents() {
	if m.cfg.EventExportInterval > 0 {
		m.publishExport(TopicEventsPrefix, m.events.ExportBatch(m.cfg.ID, m.now()))
	}
}

// flushTelemetry ships whatever spans and events are pending; the
// shutdown and OnBeforeDisconnect flush.
func (m *Module) flushTelemetry() {
	m.flushSpans()
	m.flushEvents()
}

// publishExport publishes a non-nil export batch on the module's topic
// under prefix at QoS 0: observability must never apply backpressure or
// retransmission load to the data plane.
func (m *Module) publishExport(prefix string, payload []byte) {
	client := m.currentClient()
	if payload == nil || client == nil {
		return
	}
	if err := client.Publish(prefix+m.cfg.ID, payload, wire.QoS0, false); err != nil {
		m.logf("module %s export on %s: %v", m.cfg.ID, prefix, err)
	}
}

// warnDue reports whether a per-message warn event of this kind is due
// for filter: at most one per {kind, filter} per 10s.
func (m *Module) warnDue(kind, filter string) bool {
	now := m.now()
	key := [2]string{kind, filter}
	m.warnMu.Lock()
	defer m.warnMu.Unlock()
	if last, seen := m.warnLast[key]; seen && now.Sub(last) < 10*time.Second {
		return false
	}
	m.warnLast[key] = now
	return true
}

// noteMixBadPayload reports an undecodable payload on a MIX subscription
// (e.g. a retained snapshot in a wire format this build no longer reads).
func (m *Module) noteMixBadPayload(filter, topic string, err error) {
	if m.warnDue("mix_bad_payload", filter) {
		m.events.Eventf(telemetry.SevWarn, m.cfg.ID, "mix_bad_payload",
			"topic", topic, "error", err.Error())
	}
}

// connect dials the broker, makes the new session the module's client and
// subscribes the desired-set topic. The client is in place before the
// subscription: the retained set arrives right behind the SUBACK, and the
// tasks it starts publish and subscribe on this session.
func (m *Module) connect() (*mqttclient.Client, error) {
	conn, err := m.cfg.Dial()
	if err != nil {
		return nil, fmt.Errorf("core: module %s dial: %w", m.cfg.ID, err)
	}
	opts := mqttclient.NewOptions(m.cfg.ID)
	opts.Registry = m.cfg.Telemetry
	if f := m.cfg.FenceAfter; f > 0 && f < mqttclient.DefaultAckTimeout {
		opts.AckTimeout = f
	}
	if m.exporting() {
		opts.OnBeforeDisconnect = m.flushTelemetry
	}
	opts.Will = &mqttclient.Message{
		Topic:   TopicLeavePrefix + m.cfg.ID,
		Payload: EncodeJSON(Announce{ModuleID: m.cfg.ID, SentAt: m.now()}),
		QoS:     wire.QoS1,
	}
	client, err := mqttclient.Connect(conn, opts)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("core: module %s connect: %w", m.cfg.ID, err)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		_ = client.Close()
		return nil, ErrNotStarted
	}
	m.client = client
	m.mu.Unlock()
	if _, err := client.Subscribe(TopicDesiredPrefix+m.cfg.ID, wire.QoS1, m.applyDesired); err != nil {
		_ = client.Close()
		return nil, fmt.Errorf("core: module %s subscribe %s: %w", m.cfg.ID, TopicDesiredPrefix+m.cfg.ID, err)
	}
	return client, nil
}

// currentClient returns the live client, or nil before Start.
func (m *Module) currentClient() *mqttclient.Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.client
}

// watchConnection restores service after a lost broker connection.
func (m *Module) watchConnection(client *mqttclient.Client) {
	defer m.wg.Done()
	select {
	case <-m.ctx.Done():
		return
	case <-client.Done():
	}
	if m.cfg.disableReconnect {
		return
	}
	m.events.Eventf(telemetry.SevWarn, m.cfg.ID, "connection_lost")
	backoff := m.cfg.reconnectBackoff
	for attempt := 0; attempt < 30; attempt++ {
		select {
		case <-m.ctx.Done():
			return
		case <-m.cfg.Clock.After(backoff):
		}
		next, err := m.connect()
		if errors.Is(err, ErrNotStarted) {
			return // closed while redialing
		}
		if err != nil {
			m.logf("module %s reconnect attempt %d: %v", m.cfg.ID, attempt+1, err)
			if backoff < 10*time.Second {
				backoff *= 2
			}
			continue
		}
		m.logf("module %s reconnected", m.cfg.ID)
		m.events.Eventf(telemetry.SevInfo, m.cfg.ID, "reconnected",
			"attempts", fmt.Sprintf("%d", attempt+1))
		m.announce()
		m.restartTasks()
		m.wg.Add(1)
		go m.watchConnection(next) // balances its own wg.Done
		return
	}
	m.logf("module %s gave up reconnecting", m.cfg.ID)
	m.events.Eventf(telemetry.SevError, m.cfg.ID, "reconnect_gave_up")
}

// restartTasks rebuilds every hosted task on the current connection. A
// task stopped (or fenced) while its instance is rebuilt stays stopped,
// and one a concurrent start filled first keeps that start's instance.
func (m *Module) restartTasks() {
	m.mu.Lock()
	entries := make(map[string]*hostedTask, len(m.hosted))
	var old []*taskInstance
	for name, ht := range m.hosted {
		entries[name] = ht
		if ht.inst != nil {
			old = append(old, ht.inst)
			ht.inst = nil
		}
	}
	m.mu.Unlock()

	for _, inst := range old {
		inst.stop()
	}
	for name, ht := range entries {
		inst, err := m.build(ht.spec.rec, ht.spec.sub)
		if err != nil {
			m.logf("module %s restart %s: %v", m.cfg.ID, name, err)
			m.reportStatus(name, StatusFailed, err.Error())
			continue
		}
		if m.install(name, ht, inst) {
			m.reportStatus(name, StatusStarted, "restarted after reconnect")
		}
	}
}

// install fills entry ht with inst if ht is still name's entry and still
// empty. Otherwise the build lost a race (stop, fence, Close or another
// builder) and inst is stopped as fenced — it never owned the task, so
// its stop-time checkpoint is not handed off. Reports whether it installed.
func (m *Module) install(name string, ht *hostedTask, inst *taskInstance) bool {
	m.mu.Lock()
	ok := m.hosted[name] == ht && ht.inst == nil
	if ok {
		ht.inst = inst
	}
	m.mu.Unlock()
	if !ok {
		inst.markFenced()
		inst.stop()
	}
	return ok
}

// Close stops all tasks, says goodbye, and disconnects.
func (m *Module) Close() error {
	m.mu.Lock()
	if !m.started || m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	hosted := m.hosted
	m.hosted = make(map[string]*hostedTask)
	m.mu.Unlock()

	m.cancel()
	for _, ht := range hosted {
		if ht.inst != nil {
			ht.inst.stop()
		}
	}
	m.wg.Wait()
	if m.ckpt != nil {
		// Final checkpoints were journaled as each task stopped; the
		// store itself is closed (and synced) by whoever opened it.
		m.ckpt.journal.Close()
	}
	if client := m.currentClient(); client != nil {
		_ = client.Publish(TopicLeavePrefix+m.cfg.ID,
			EncodeJSON(Announce{ModuleID: m.cfg.ID, SentAt: m.now()}), wire.QoS1, false)
		_ = client.Disconnect()
	}
	m.logf("module %s closed", m.cfg.ID)
	return nil
}

// RunningTasks lists the names of currently hosted subtasks, sorted order
// not guaranteed.
func (m *Module) RunningTasks() []string {
	names, _ := m.taskSnapshot()
	return names
}

// Publish exposes the Publish class for application code running beside
// the middleware (e.g. examples injecting ad-hoc data).
func (m *Module) Publish(topic string, payload []byte) error {
	client := m.currentClient()
	if client == nil {
		return ErrNotStarted
	}
	return client.Publish(topic, payload, m.cfg.DataQoS, false)
}

// PublishRetained publishes with the retained flag set, so late
// subscribers see the latest value immediately ($SYS-style snapshots,
// telemetry exports).
func (m *Module) PublishRetained(topic string, payload []byte) error {
	client := m.currentClient()
	if client == nil {
		return ErrNotStarted
	}
	return client.Publish(topic, payload, m.cfg.DataQoS, true)
}

// Subscribe exposes the Subscribe class for application code.
func (m *Module) Subscribe(filter string, handler mqttclient.Handler) error {
	client := m.currentClient()
	if client == nil {
		return ErrNotStarted
	}
	_, err := client.Subscribe(filter, m.cfg.DataQoS, handler)
	return err
}

// StartTask launches a subtask directly (bypassing the management node);
// the same path a desired set uses, minus the assignment epoch.
func (m *Module) StartTask(rec recipe.Recipe, sub recipe.SubTask) error {
	return m.startTask(rec, sub, 0)
}

// startTask launches one subtask. epoch is the manager's assignment
// epoch (0 for direct starts); it rides on the spec, so desired sets tell
// manager-assigned tasks from direct ones and beacons report generations.
func (m *Module) startTask(rec recipe.Recipe, sub recipe.SubTask, epoch uint64) error {
	name := sub.Name()
	m.mu.Lock()
	if !m.started || m.closed {
		m.mu.Unlock()
		return ErrNotStarted
	}
	if _, exists := m.hosted[name]; exists {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTaskExists, name)
	}
	// Reserve the name and take the wait-group slot with the closed and
	// exists checks: a concurrent duplicate start sees the entry, and a
	// concurrent Close waits for this start (the task goroutines
	// newTaskInstance adds never race Close's Wait).
	ht := &hostedTask{spec: taskSpec{rec: rec, sub: sub, epoch: epoch}}
	m.hosted[name] = ht
	m.wg.Add(1)
	defer m.wg.Done()
	m.mu.Unlock()

	inst, err := m.build(rec, sub)
	if err != nil {
		m.mu.Lock()
		if m.hosted[name] == ht && ht.inst == nil {
			delete(m.hosted, name)
		}
		m.mu.Unlock()
		m.reportStatus(name, StatusFailed, err.Error())
		return err
	}
	if !m.install(name, ht, inst) {
		return fmt.Errorf("core: task %s stopped, restarted or closed while starting", name)
	}
	m.reportStatus(name, StatusStarted, "")
	m.logf("module %s started task %s (%s)", m.cfg.ID, sub.Name(), sub.Task.Kind)
	return nil
}

// StopTask stops a running subtask by name.
func (m *Module) StopTask(name string) error {
	return m.stopTask(name, stopDirect)
}

// stopReason says why a subtask stops and is its stop report's detail. A
// direct or drain stop hands the final checkpoint to the subtask's next
// host. A fenced stop (the subtask moved while this module was away) does
// not — the new host's state must not be clobbered — and neither does an
// undeploy, which clears the retained handoff blob once the instance has
// stopped, so a later deployment of the name starts fresh.
type stopReason string

const (
	stopDirect   stopReason = ""
	stopDrain    stopReason = "drain"
	stopFence    stopReason = "fence"
	stopUndeploy stopReason = "undeploy"
)

// stopTask stops one subtask for the given reason.
func (m *Module) stopTask(name string, reason stopReason) error {
	m.mu.Lock()
	ht, ok := m.hosted[name]
	delete(m.hosted, name)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: task %s not running", name)
	}
	// A nil instance is still being built; its builder finds the entry
	// gone and stops it.
	if inst := ht.inst; inst != nil {
		if reason == stopFence || reason == stopUndeploy {
			inst.markFenced()
		}
		inst.stop()
	}
	switch reason {
	case stopFence:
		m.events.Eventf(telemetry.SevWarn, m.cfg.ID, "task_fenced", "task", name)
	case stopUndeploy:
		m.publishHandoff(name, nil, nil)
	}
	m.reportStatus(name, StatusStopped, string(reason))
	return nil
}

// applyDesired is the module's one control handler: it makes the task
// table match the manager's desired set (see DESIGN.md, "Control-plane
// state"). Directly started (epoch 0) tasks are not the manager's and
// stay. A set arriving proves the broker → module path works, so the
// output fence lifts once the stops are done. An undecodable set, or one
// for another module, is ignored.
func (m *Module) applyDesired(msg mqttclient.Message) {
	var d Desired
	if err := DecodeJSON(msg.Payload, &d); err != nil || d.ModuleID != m.cfg.ID {
		m.logf("module %s: ignoring desired set for %q on %s (%v)", m.cfg.ID, d.ModuleID, msg.Topic, err)
		return
	}
	want := make(map[string]DesiredTask, len(d.Tasks))
	for _, t := range d.Tasks {
		want[t.SubTask.Name()] = t
	}
	stops := make(map[string]stopReason)
	var running []string
	var starts []DesiredTask
	m.mu.Lock()
	for name, ht := range m.hosted {
		t, ok := want[name]
		rec := ht.spec.rec
		version, deployed := d.Deployed[rec.Name]
		switch {
		case ht.spec.epoch == 0:
		case ok && rec.Version == d.Recipes[rec.Name].Version:
			// Kept: adopt the epoch, acknowledge (a restarted manager's
			// recovered deployment completes on these acks).
			ht.spec.epoch = max(ht.spec.epoch, t.Epoch)
			if ht.inst != nil {
				running = append(running, name)
			}
			delete(want, name)
		case !ok && deployed && rec.Version == version && d.Draining:
			stops[name] = stopDrain // moved off a draining module
		case !ok && deployed && rec.Version == version:
			stops[name] = stopFence // moved while this module was away
		case slices.Contains(d.Scope, rec.Name):
			// Undeployed, or an upgrade's undeploy this module missed
			// (restarted below at the set's version).
			stops[name] = stopUndeploy
		}
	}
	for _, t := range d.Tasks {
		if _, ok := want[t.SubTask.Name()]; ok {
			starts = append(starts, t)
		}
	}
	m.mu.Unlock()

	fenced := 0
	for name, reason := range stops {
		if reason == stopFence {
			fenced++
		}
		if err := m.stopTask(name, reason); err != nil {
			m.logf("module %s: stop %s: %v", m.cfg.ID, name, err)
		}
	}
	if m.outputsFenced.CompareAndSwap(true, false) {
		m.events.Eventf(telemetry.SevInfo, m.cfg.ID, "fence_cleared",
			"fenced_tasks", strconv.Itoa(fenced))
		m.logf("module %s fence cleared (%d stale tasks stopped)", m.cfg.ID, fenced)
	}
	for _, name := range running {
		m.reportStatus(name, StatusStarted, "running")
	}
	for _, t := range starts {
		rec, ok := d.Recipes[t.SubTask.Recipe]
		if !ok {
			m.logf("module %s: desired set lacks recipe %q", m.cfg.ID, t.SubTask.Recipe)
			continue
		}
		if err := m.startTask(rec, t.SubTask, t.Epoch); err != nil {
			m.logf("module %s: start %s: %v", m.cfg.ID, t.SubTask.Name(), err)
		}
	}
}

func (m *Module) reportStatus(name string, kind StatusKind, detail string) {
	sev := telemetry.SevInfo
	if kind == StatusFailed {
		sev = telemetry.SevError
	}
	m.events.Eventf(sev, m.cfg.ID, "task_"+string(kind), "task", name, "detail", detail)
	client := m.currentClient()
	if client == nil {
		return
	}
	status := Status{
		ModuleID:    m.cfg.ID,
		SubTaskName: name,
		Kind:        kind,
		Detail:      detail,
		At:          m.now(),
	}
	_ = client.Publish(TopicStatusPrefix+m.cfg.ID, EncodeJSON(status), wire.QoS1, false)
}

// taskSnapshot reports the running task names (entries with a live
// instance) and their assignment epochs in one locked pass. Epoch-0
// (directly started) tasks carry no epoch entry, so the epoch map is the
// manager-assigned running set.
func (m *Module) taskSnapshot() ([]string, map[string]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.hosted))
	epochs := make(map[string]uint64)
	for name, ht := range m.hosted {
		if ht.inst == nil {
			continue
		}
		names = append(names, name)
		if ht.spec.epoch > 0 {
			epochs[name] = ht.spec.epoch
		}
	}
	return names, epochs
}

func (m *Module) announce() {
	client := m.currentClient()
	if client == nil {
		return
	}
	names, epochs := m.taskSnapshot()
	ann := Announce{
		ModuleID:     m.cfg.ID,
		Capabilities: m.capabilities(),
		CapacityOps:  m.cfg.CapacityOps,
		RunningTasks: names,
		TaskEpochs:   epochs,
		Fenced:       m.outputsFenced.Load(),
		SentAt:       m.now(),
	}
	rt := telemetry.SampleRuntime()
	rt.TasksRunning = len(ann.RunningTasks)
	ann.Runtime = &rt
	// QoS1: the PUBACK doubles as a liveness probe of the broker path —
	// self-fencing keys off how long acks have been missing.
	if err := client.Publish(TopicAnnounce, EncodeJSON(ann), wire.QoS1, false); err != nil {
		m.logf("module %s announce: %v", m.cfg.ID, err)
		return
	}
	m.fenceMu.Lock()
	m.lastAnnounceAck = m.now()
	m.fenceMu.Unlock()
}

// maybeSelfFence flips the output fence when the broker has not
// acknowledged an announce for longer than FenceAfter — the module-side
// symptom of a network partition. Fenced outputs are dropped (counted)
// until a desired set clears the fence, so a zombie on the far side
// of a partition cannot double-publish decisions for tasks that were
// failed over to a surviving module.
func (m *Module) maybeSelfFence() {
	if m.cfg.FenceAfter <= 0 || m.outputsFenced.Load() {
		return
	}
	m.fenceMu.Lock()
	silent := m.now().Sub(m.lastAnnounceAck)
	m.fenceMu.Unlock()
	if silent <= m.cfg.FenceAfter {
		return
	}
	if m.outputsFenced.CompareAndSwap(false, true) {
		m.events.Eventf(telemetry.SevError, m.cfg.ID, "self_fenced", "unacked_for", silent.String())
		m.logf("module %s self-fenced: no announce ack for %s", m.cfg.ID, silent)
	}
}

// Drain asks the management node to move this module's assigned subtasks
// elsewhere (each with a final checkpoint handed off), then waits until
// no manager-assigned task is left running or ctx expires. Directly
// started tasks (StartTask) are not the manager's to move and do not
// block the drain. The module stays connected — call Close afterwards
// for the clean leave.
func (m *Module) Drain(ctx context.Context) error {
	client := m.currentClient()
	if client == nil {
		return ErrNotStarted
	}
	m.events.Eventf(telemetry.SevInfo, m.cfg.ID, "drain_requested")
	m.logf("module %s requesting drain", m.cfg.ID)
	payload := EncodeJSON(DrainRequest{ModuleID: m.cfg.ID, SentAt: m.now()})
	if err := client.Publish(TopicDrainPrefix+m.cfg.ID, payload, wire.QoS1, false); err != nil {
		return fmt.Errorf("core: module %s drain request: %w", m.cfg.ID, err)
	}
	for {
		_, epochs := m.taskSnapshot()
		if len(epochs) == 0 {
			m.logf("module %s drained", m.cfg.ID)
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: module %s drain: %d tasks still running: %w", m.cfg.ID, len(epochs), ctx.Err())
		case <-m.ctx.Done():
			return ErrNotStarted
		case <-m.cfg.Clock.After(20 * time.Millisecond):
		}
	}
}

func (m *Module) heartbeatLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-m.cfg.Clock.After(m.cfg.HeartbeatInterval):
			// Announce first, then judge silence: the fence must key off
			// how long announce *attempts* have gone unacknowledged, not
			// the gap between heartbeats — otherwise any FenceAfter below
			// the heartbeat interval fences on every tick.
			m.announce()
			m.maybeSelfFence()
		}
	}
}

func (m *Module) now() time.Time { return m.cfg.Clock.Now() }

func (m *Module) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf(format, args...)
	}
}
