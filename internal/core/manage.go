package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/tasks"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Errors returned by the manager.
var (
	ErrNoSuchDeployment = errors.New("core: no such deployment")
	ErrDeployExists     = errors.New("core: recipe already deployed")
)

// Failover trigger reasons: the `reason` field of failover events and the
// label of ifot_mgmt_failovers_total.
const (
	failoverLeave = "leave"
	failoverDead  = "dead"
	failoverDrain = "drain"
)

// ManagerConfig configures a management node.
type ManagerConfig struct {
	// ID is the manager's MQTT client identity (default "ifot-mgmt").
	ID string
	// Dial opens the transport to the broker.
	Dial func() (net.Conn, error)
	// Clock supplies time (nil = wall clock).
	Clock clock.Clock
	// Logger receives diagnostics (nil = silent).
	Logger *log.Logger
	// Strategy selects task placement (nil = least-loaded).
	Strategy tasks.Strategy
	// DisableDeadFailover turns off failover driven by the health
	// monitor's dead classification (beacon silence without a leave
	// message — the partitioned-module case). Failover on leave and drain
	// always runs — the paper's dynamic join/leave future-work item.
	DisableDeadFailover bool
	// Telemetry, when set, receives manager gauges (known modules,
	// deployments, registered streams) and is passed to the manager's
	// MQTT client.
	Telemetry *telemetry.Registry
	// TraceCapacity bounds how many spans the manager's trace collector
	// retains (default DefaultCollectorSpans). The collector is always
	// on: it subscribes TopicTracePrefix+"#" and assembles cross-module
	// traces from modules running with span export enabled.
	TraceCapacity int
	// Store, when set, journals deployments and failover reassignments so
	// a restarted manager resumes supervising recipes deployed by its
	// previous incarnation. The caller owns the store and closes it after
	// Close. Nil keeps today's in-memory behavior.
	Store store.Store
	// Events, when set, is the manager's event log: its own lifecycle
	// events (deploys, failovers, health transitions) land here together
	// with the events modules and the broker export on
	// ifot/ctrl/events/#. The manager never exports this log. Nil makes
	// NewManager create one of telemetry.DefaultEventCapacity.
	Events *telemetry.EventLog
	// Health tunes the missed-beacon liveness state machine, whose
	// entries are the manager's module table: SuspectAfter (default 15s)
	// is the one staleness bound for listing and placement.
	Health HealthConfig
	// SLO, when it has Targets, arms the burn-rate watchdog over the
	// trace collector's cluster-wide per-stage latency histograms:
	// sustained violation of a latency objective over both burn windows
	// emits slo_breach events and drives ifot_slo_burn_rate /
	// ifot_slo_breaches_total.
	SLO telemetry.SLOConfig
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.ID == "" {
		c.ID = "ifot-mgmt"
	}
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.Strategy == nil {
		c.Strategy = tasks.LeastLoaded{}
	}
	c.Health = c.Health.withDefaults()
	return c
}

// Deployment tracks one deployed recipe.
type Deployment struct {
	// Recipe is the deployed recipe.
	Recipe recipe.Recipe
	// SubTasks are the split units.
	SubTasks []recipe.SubTask
	// Assignment maps subtask names to module IDs.
	Assignment tasks.Assignment
	// Epochs maps subtask names to assignment epochs: 1 at deploy,
	// bumped on every failover/drain move. Like Assignment, guarded by
	// the manager's mu once the deployment is registered.
	Epochs map[string]uint64

	mu      sync.Mutex
	pending map[string]struct{}
	failed  map[string]string
	done    chan struct{}
}

// WaitRunning blocks until every subtask has reported started, any subtask
// failed, or ctx ends. It returns nil on full start.
func (d *Deployment) WaitRunning(ctx context.Context) error {
	select {
	case <-d.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.failed) > 0 {
		return fmt.Errorf("core: deployment %s: %d subtasks failed: %v", d.Recipe.Name, len(d.failed), d.failed)
	}
	return nil
}

// PendingTasks reports subtasks not yet confirmed started.
func (d *Deployment) PendingTasks() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.pending))
	for name := range d.pending {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (d *Deployment) noteStatus(s Status) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.pending[s.SubTaskName]; !ok {
		return
	}
	switch s.Kind {
	case StatusStarted:
		delete(d.pending, s.SubTaskName)
	case StatusFailed:
		delete(d.pending, s.SubTaskName)
		d.failed[s.SubTaskName] = s.Detail
	default:
		return
	}
	if len(d.pending) == 0 {
		select {
		case <-d.done:
		default:
			close(d.done)
		}
	}
}

// Manager is the management node (the paper's management software, Fig. 7/8):
// it tracks module presence, splits submitted recipes, assigns subtasks,
// and runs the stream-discovery registry.
//
// Each control-plane fact has one table: module presence is the health
// monitor's, the deployment table changes only through applyLocked, and
// the stream registry and every module's desired set are derived from the
// deployment table.
type Manager struct {
	cfg    ManagerConfig
	client *mqttclient.Client
	// retain publishes a retained QoS 1 control message (client.Publish;
	// the control-plane sweep routes it through its broker model).
	retain func(topic string, payload []byte) error

	// pubMu serializes desired-set publishes: each derivation and its
	// publish share one hold, so the retained set on a module's topic is
	// always the latest derivation. Lock order pubMu ⊃ mu.
	pubMu       sync.Mutex
	mu          sync.Mutex
	deployments map[string]*Deployment // written only by applyLocked
	draining    map[string]bool        // modules mid-drain: out of the placement pool
	// scope holds every recipe a deploy or undeploy record applied here
	// named — the ones this manager's sets may undeploy (Desired.Scope).
	scope map[string]bool

	collector *TraceCollector
	journal   *store.Journal[mgrRec] // nil without ManagerConfig.Store

	events *telemetry.EventLog
	health *HealthMonitor // the module table; lock order mu ⊃ health.mu

	// failoverCounters counts subtasks moved per trigger reason; fencedTasks
	// counts stale instances fenced on zombie rejoin. Nil without Telemetry.
	failoverCounters map[string]*telemetry.Counter
	fencedTasks      *telemetry.Counter

	// Cluster event-view ingestion accounting (guarded by mu):
	// evIngested counts events accepted from module batches, evDrops
	// holds each module's last-reported export-shed counter.
	evIngested uint64
	evDrops    map[string]uint64

	stop    chan struct{} // closes on Close; stops the health sweep loop
	sloStop func()        // nil without SLO targets
	wg      sync.WaitGroup
}

// NewManager creates an unstarted manager.
func NewManager(cfg ManagerConfig) *Manager {
	mgr := &Manager{
		cfg:         cfg.withDefaults(),
		deployments: make(map[string]*Deployment),
		draining:    make(map[string]bool),
		scope:       make(map[string]bool),
		evDrops:     make(map[string]uint64),
	}
	mgr.retain = func(topic string, payload []byte) error {
		return mgr.client.Publish(topic, payload, wire.QoS1, true)
	}
	mgr.collector = NewTraceCollector(mgr.cfg.TraceCapacity)
	mgr.events = mgr.cfg.Events
	if mgr.events == nil {
		mgr.events = telemetry.NewEventLog(0)
	}
	mgr.health = NewHealthMonitor(mgr.cfg.Clock, mgr.cfg.Health, mgr.events)
	mgr.health.SetOnTransition(mgr.onHealthTransition)
	if reg := mgr.cfg.Telemetry; reg != nil {
		mgr.failoverCounters = make(map[string]*telemetry.Counter, 3)
		for _, reason := range []string{failoverLeave, failoverDead, failoverDrain} {
			mgr.failoverCounters[reason] = reg.Counter("ifot_mgmt_failovers_total",
				"subtasks moved off a module, by trigger (leave|dead|drain)",
				telemetry.L("reason", reason))
		}
		mgr.fencedTasks = reg.Counter("ifot_mgmt_tasks_fenced_total",
			"stale task instances fenced on module reconciliation")
		mgr.collector.BindRegistry(reg, "", telemetry.L("scope", "cluster"))
		mgr.events.BindRegistry(reg, telemetry.L("module", mgr.cfg.ID))
		mgr.health.BindRegistry(reg)
		reg.CounterFunc("ifot_mgmt_trace_spans_total", "spans ingested by the cluster trace collector",
			func() int64 { return int64(mgr.collector.TotalSpans()) })
		reg.CounterFunc("ifot_mgmt_trace_spans_dropped_total", "spans modules shed before export (summed drop counters)",
			func() int64 { return int64(mgr.collector.DroppedSpans()) })
		reg.CounterFunc("ifot_mgmt_events_total", "events ingested into the cluster event view",
			func() int64 {
				mgr.mu.Lock()
				defer mgr.mu.Unlock()
				return int64(mgr.evIngested)
			})
		reg.CounterFunc("ifot_mgmt_events_dropped_total", "events modules shed before export (summed drop counters)",
			func() int64 {
				mgr.mu.Lock()
				defer mgr.mu.Unlock()
				var sum uint64
				for _, d := range mgr.evDrops {
					sum += d
				}
				return int64(sum)
			})
		// Modules not classified dead: a dead module stays in the health
		// table (so a later beacon reads as a rejoin) but is no longer known.
		reg.GaugeFunc("ifot_mgmt_modules_known", "modules currently announced to the manager",
			func() float64 { hs := mgr.health.HealthSnapshot(); return float64(hs.Healthy + hs.Suspect) })
		reg.GaugeFunc("ifot_mgmt_deployments", "recipes currently deployed", func() float64 {
			mgr.mu.Lock()
			defer mgr.mu.Unlock()
			return float64(len(mgr.deployments))
		})
		reg.GaugeFunc("ifot_mgmt_streams", "streams in the discovery registry",
			func() float64 { return float64(len(mgr.Streams())) })
	}
	return mgr
}

// Start connects to the broker and begins tracking modules.
func (mgr *Manager) Start() error {
	if mgr.cfg.Dial == nil {
		return errors.New("core: manager config needs a Dial function")
	}
	// Recover journaled deployments first: status and leave handlers walk
	// the deployment table the moment the subscriptions below exist.
	if st := mgr.cfg.Store; st != nil {
		if err := mgr.recoverState(st); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	conn, err := mgr.cfg.Dial()
	if err != nil {
		return fmt.Errorf("core: manager dial: %w", err)
	}
	opts := mqttclient.NewOptions(mgr.cfg.ID)
	opts.KeepAlive = 30 * time.Second
	opts.Registry = mgr.cfg.Telemetry
	client, err := mqttclient.Connect(conn, opts)
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("core: manager connect: %w", err)
	}
	mgr.client = client

	subs := []struct {
		filter  string
		handler mqttclient.Handler
	}{
		{TopicAnnounce, mgr.handleAnnounce},
		{TopicLeavePrefix + "+", mgr.handleLeave},
		{TopicStatusPrefix + "+", mgr.handleStatus},
		{TopicDiscoverQuery, mgr.handleDiscover},
		{TopicDrainPrefix + "+", mgr.handleDrain},
	}
	for _, s := range subs {
		if _, err := client.Subscribe(s.filter, wire.QoS1, s.handler); err != nil {
			_ = client.Close()
			return fmt.Errorf("core: manager subscribe %s: %w", s.filter, err)
		}
	}
	// Span batches are fire-and-forget QoS 0: the collector tolerates
	// loss, and tracing must not add acknowledgement load.
	if _, err := client.Subscribe(TopicTracePrefix+"#", wire.QoS0, mgr.handleTrace); err != nil {
		_ = client.Close()
		return fmt.Errorf("core: manager subscribe traces: %w", err)
	}
	// Event batches share the trace path's loss tolerance: QoS 0,
	// fire-and-forget, the log is a bounded ring either way.
	if _, err := client.Subscribe(TopicEventsPrefix+"#", wire.QoS0, mgr.handleEvents); err != nil {
		_ = client.Close()
		return fmt.Errorf("core: manager subscribe events: %w", err)
	}
	mgr.stop = make(chan struct{})
	mgr.wg.Add(1)
	go mgr.healthSweepLoop()
	if len(mgr.cfg.SLO.Targets) > 0 {
		slo := mgr.cfg.SLO
		if slo.Module == "" {
			slo.Module = mgr.cfg.ID
		}
		mgr.sloStop = telemetry.NewSLOWatchdog(mgr.collector, slo, mgr.events, mgr.cfg.Telemetry).Start(mgr.cfg.Clock)
	}
	if err := mgr.publishRecovered(); err != nil {
		mgr.logf("manager: resume: %v", err)
	}
	mgr.logf("manager %s started", mgr.cfg.ID)
	return nil
}

// healthSweepLoop advances the liveness state machine every beacon
// interval, so a silent module turns suspect (then dead) within one
// beacon of crossing its bound.
func (mgr *Manager) healthSweepLoop() {
	defer mgr.wg.Done()
	for {
		select {
		case <-mgr.stop:
			return
		case <-mgr.cfg.Clock.After(mgr.cfg.Health.BeaconInterval):
			mgr.health.Sweep(mgr.cfg.Clock.Now())
		}
	}
}

// Events exposes the manager's event log — its own lifecycle events
// plus every event modules and the broker export — for the /events
// endpoint and the `ifot-mgmt events` tail.
func (mgr *Manager) Events() *telemetry.EventLog { return mgr.events }

// Health exposes the liveness monitor — the telemetry.HealthSource the
// management daemon hands to its telemetry HTTP server for /health.
func (mgr *Manager) Health() *HealthMonitor { return mgr.health }

// handleEvents adds one module's exported event batch to the cluster
// event view, stamping the publisher's identity on events that did not
// carry one (store/broker emissions have no module context).
func (mgr *Manager) handleEvents(msg mqttclient.Message) {
	batch, err := telemetry.DecodeEventBatch(msg.Payload)
	if err != nil {
		mgr.logf("manager: bad event batch on %s: %v", msg.Topic, err)
		return
	}
	if batch.Module == "" {
		return
	}
	mgr.mu.Lock()
	mgr.evIngested += uint64(len(batch.Events))
	mgr.evDrops[batch.Module] = batch.Dropped
	mgr.mu.Unlock()
	for _, ev := range batch.Events {
		if ev.Module == "" {
			ev.Module = batch.Module
		}
		mgr.events.Emit(ev)
	}
}

// Collector exposes the manager's cluster trace collector — the
// TraceSource/FlowReporter the management daemon hands to its telemetry
// HTTP server.
func (mgr *Manager) Collector() *TraceCollector { return mgr.collector }

func (mgr *Manager) handleTrace(msg mqttclient.Message) {
	if err := mgr.collector.Ingest(msg.Payload); err != nil {
		mgr.logf("manager: bad span batch on %s: %v", msg.Topic, err)
	}
}

// Close disconnects the manager. The journal's store stays open (and is
// closed by whoever opened it), so state survives for the next start.
func (mgr *Manager) Close() error {
	if mgr.stop != nil {
		close(mgr.stop)
		mgr.wg.Wait()
		mgr.stop = nil
	}
	if mgr.sloStop != nil {
		mgr.sloStop()
		mgr.sloStop = nil
	}
	mgr.journal.Close()
	if mgr.client != nil {
		return mgr.client.Disconnect()
	}
	return nil
}

// Modules lists the live modules (silent no longer than
// Health.SuspectAfter and not declared dead), sorted by ID.
func (mgr *Manager) Modules() []Announce {
	return mgr.health.Live(mgr.cfg.Clock.Now())
}

// Streams lists the stream registry, sorted by topic, then recipe.
func (mgr *Manager) Streams() []StreamInfo {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.streamsLocked()
}

// streamsLocked derives the stream registry from the deployment table:
// one entry per (output topic, recipe), naming the host of the last
// subtask that produces the topic. Called with mu held.
func (mgr *Manager) streamsLocked() []StreamInfo {
	var out []StreamInfo
	for name, dep := range mgr.deployments {
		at := make(map[string]int) // topic → index in out
		for _, s := range dep.SubTasks {
			if s.Task.Output == "" {
				continue
			}
			info := StreamInfo{Topic: s.Task.Output, Recipe: name, TaskID: s.TaskID,
				Kind: string(s.Task.Kind), ModuleID: dep.Assignment[s.Name()]}
			if i, ok := at[info.Topic]; ok {
				out[i] = info
				continue
			}
			at[info.Topic] = len(out)
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Topic != out[j].Topic {
			return out[i].Topic < out[j].Topic
		}
		return out[i].Recipe < out[j].Recipe
	})
	return out
}

// Deploy implements the application build process of Fig. 6: Step 1 the
// recipe is submitted, Step 2 it is divided into subtasks and assigned to
// modules, Step 3 the modules instantiate their classes. The returned
// Deployment tracks start-up progress.
func (mgr *Manager) Deploy(rec *recipe.Recipe) (*Deployment, error) {
	subtasks, err := recipe.Split(rec)
	if err != nil {
		return nil, err
	}
	autoPlace(subtasks)

	infos := mgr.moduleInfos()
	assignment, err := mgr.cfg.Strategy.Assign(subtasks, infos)
	if err != nil {
		return nil, err
	}

	epochs := make(map[string]uint64, len(subtasks))
	for _, s := range subtasks {
		epochs[s.Name()] = 1
	}

	// A higher recipe version replaces the running deployment (rolling
	// upgrade); the same or an older version is rejected.
	mgr.mu.Lock()
	if existing, exists := mgr.deployments[rec.Name]; exists {
		if rec.Version <= existing.Recipe.Version {
			mgr.mu.Unlock()
			return nil, fmt.Errorf("%w: %s (running version %d, submitted %d)",
				ErrDeployExists, rec.Name, existing.Recipe.Version, rec.Version)
		}
		mgr.mu.Unlock()
		if err := mgr.Undeploy(rec.Name); err != nil {
			return nil, fmt.Errorf("core: upgrade %s: %w", rec.Name, err)
		}
		mgr.mu.Lock()
	}
	dep := mgr.commitLocked(mgrRec{
		Op: mgrOpDeploy, Name: rec.Name, Recipe: rec,
		SubTasks: subtasks, Assignment: assignment, Epochs: epochs,
	})
	mgr.mu.Unlock()

	if err := mgr.publishDesired(hostsOf(assignment)...); err != nil {
		return nil, err
	}
	for _, s := range subtasks {
		mgr.logf("manager: assigned %s (%s) to %s", s.Name(), describeKind(s.Task.Kind), assignment[s.Name()])
	}
	mgr.events.Eventf(telemetry.SevInfo, mgr.cfg.ID, "deploy",
		"recipe", rec.Name,
		"version", strconv.Itoa(rec.Version),
		"subtasks", strconv.Itoa(len(subtasks)))
	return dep, nil
}

// Undeploy stops every subtask of a deployed recipe and clears the
// subtasks' retained handoff checkpoints, so a later deployment of the
// same name starts fresh even when a host is down.
func (mgr *Manager) Undeploy(name string) error {
	mgr.mu.Lock()
	dep, ok := mgr.deployments[name]
	var hosts []string
	if ok {
		// Read the hosts under the lock: a concurrent failover may still
		// be mutating this deployment's tables.
		hosts = hostsOf(dep.Assignment)
		mgr.commitLocked(mgrRec{Op: mgrOpUndeploy, Name: name})
	}
	mgr.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchDeployment, name)
	}
	mgr.events.Eventf(telemetry.SevInfo, mgr.cfg.ID, "undeploy", "recipe", name)
	errs := []error{mgr.publishDesired(hosts...)}
	for _, s := range dep.SubTasks {
		if err := mgr.retain(CheckpointTopic(s.Name()), nil); err != nil {
			errs = append(errs, fmt.Errorf("core: clear handoff checkpoint %s: %w", s.Name(), err))
		}
	}
	return errors.Join(errs...)
}

// hostsOf lists the module of every subtask in an assignment.
func hostsOf(assignment tasks.Assignment) []string {
	out := make([]string, 0, len(assignment))
	for _, moduleID := range assignment {
		out = append(out, moduleID)
	}
	return out
}

// desiredLocked derives a module's desired set from the deployment table
// (see Desired). Called with mu held.
func (mgr *Manager) desiredLocked(moduleID string) Desired {
	d := Desired{ModuleID: moduleID, Deployed: make(map[string]int),
		Scope: sortedKeys(mgr.scope), Draining: mgr.draining[moduleID]}
	for _, name := range sortedKeys(mgr.deployments) {
		dep := mgr.deployments[name]
		d.Deployed[name] = dep.Recipe.Version
		for _, s := range dep.SubTasks {
			if dep.Assignment[s.Name()] != moduleID {
				continue
			}
			if d.Recipes == nil {
				d.Recipes = make(map[string]recipe.Recipe)
			}
			d.Recipes[name] = dep.Recipe
			d.Tasks = append(d.Tasks, DesiredTask{SubTask: s, Epoch: dep.Epochs[s.Name()]})
		}
	}
	return d
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// publishRecovered publishes the set of every module the recovered table
// names: the previous incarnation may have died between a commit and its
// publish. Start calls it once its subscriptions are live.
func (mgr *Manager) publishRecovered() error {
	var hosts []string
	mgr.mu.Lock()
	for _, dep := range mgr.deployments {
		hosts = append(hosts, hostsOf(dep.Assignment)...)
	}
	mgr.mu.Unlock()
	return mgr.publishDesired(hosts...)
}

// publishDesired publishes the desired set of each named module once, in
// ID order, as a retained QoS 1 message — an empty set too, so a module
// that reconnects receives "run nothing" rather than silence.
func (mgr *Manager) publishDesired(modules ...string) error {
	mgr.pubMu.Lock()
	defer mgr.pubMu.Unlock()
	var errs []error
	slices.Sort(modules)
	for _, moduleID := range slices.Compact(modules) {
		mgr.mu.Lock()
		d := mgr.desiredLocked(moduleID)
		mgr.mu.Unlock()
		d.SentAt = mgr.cfg.Clock.Now()
		if err := mgr.retain(TopicDesiredPrefix+moduleID, EncodeJSON(d)); err != nil {
			errs = append(errs, fmt.Errorf("core: publish desired set of %s: %w", moduleID, err))
		}
	}
	return errors.Join(errs...)
}

// Deployment returns the tracking handle for a deployed recipe.
func (mgr *Manager) Deployment(name string) (*Deployment, bool) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	dep, ok := mgr.deployments[name]
	return dep, ok
}

// moduleInfos is the placement pool, sorted by ID: the live modules
// (suspect and dead ones are out — failover must never land tasks on
// another dying module) minus draining ones, which are on their way out.
func (mgr *Manager) moduleInfos() []tasks.ModuleInfo {
	now := mgr.cfg.Clock.Now()
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	committed := mgr.committedLoadLocked()
	live := mgr.health.Live(now)
	infos := make([]tasks.ModuleInfo, 0, len(live))
	for _, ann := range live {
		if mgr.draining[ann.ModuleID] {
			continue
		}
		info := tasks.ModuleInfo{
			ID:           ann.ModuleID,
			Capabilities: ann.Capabilities,
			CapacityOps:  ann.CapacityOps,
			BaseLoad:     committed[ann.ModuleID],
		}
		if rt := ann.Runtime; rt != nil {
			info.TasksRunning = rt.TasksRunning
			info.Goroutines = rt.Goroutines
			info.HeapBytes = rt.HeapBytes
		}
		infos = append(infos, info)
	}
	return infos
}

// countFailover bumps the per-reason failover counter (no-op without
// telemetry).
func (mgr *Manager) countFailover(reason string) {
	if c := mgr.failoverCounters[reason]; c != nil {
		c.Add(1)
	}
}

// committedLoadLocked sums the estimated cost of every already-assigned
// subtask per module, so later deployments spread away from busy modules.
func (mgr *Manager) committedLoadLocked() map[string]float64 {
	loads := make(map[string]float64)
	for _, dep := range mgr.deployments {
		for _, s := range dep.SubTasks {
			if moduleID, ok := dep.Assignment[s.Name()]; ok {
				loads[moduleID] += tasks.CostOf(s)
			}
		}
	}
	return loads
}

// autoPlace derives capability constraints for tasks bound to physical
// resources: sense tasks need the module hosting the sensor, actuate tasks
// the actuator, custom tasks the registered handler.
func autoPlace(subtasks []recipe.SubTask) {
	for i := range subtasks {
		s := &subtasks[i]
		if s.Task.Placement.Module != "" || s.Task.Placement.Capability != "" {
			continue
		}
		switch s.Task.Kind {
		case recipe.KindSense:
			s.Task.Placement.Capability = "sensor:" + paramString(*s, "sensor", s.TaskID)
		case recipe.KindActuate:
			s.Task.Placement.Capability = "actuator:" + paramString(*s, "actuator", s.TaskID)
		case recipe.KindCustom:
			s.Task.Placement.Capability = "handler:" + paramString(*s, "handler", s.TaskID)
		}
	}
}

func (mgr *Manager) handleAnnounce(msg mqttclient.Message) {
	var ann Announce
	if err := DecodeJSON(msg.Payload, &ann); err != nil || ann.ModuleID == "" {
		return
	}
	now := mgr.cfg.Clock.Now()
	// Announce beacons double as clock-skew probes for the trace
	// collector: SentAt is stamped by the module's clock, now by ours.
	mgr.collector.NoteAnnounce(ann.ModuleID, ann.SentAt, now)
	// The prior classification comes out of the same critical section as
	// the refresh: a beacon from a module declared dead is a zombie
	// rejoin, not a routine refresh, even when a sweep just declared it.
	prev := mgr.health.Observe(ann, now)
	rejoined := prev == HealthDead
	if rejoined {
		mgr.events.Eventf(telemetry.SevWarn, ann.ModuleID, "module_rejoined",
			"claimed_tasks", strconv.Itoa(len(ann.RunningTasks)))
		mgr.logf("manager: module %s rejoined after being declared dead", ann.ModuleID)
	}
	// A claimed manager-assigned task the table deploys elsewhere was
	// moved away: the module stops it, fenced, when its set lands.
	var moved []string
	mgr.mu.Lock()
	d := mgr.desiredLocked(ann.ModuleID)
	scoped := len(mgr.scope) > 0
	for name := range ann.TaskEpochs {
		mine := slices.ContainsFunc(d.Tasks, func(t DesiredTask) bool { return t.SubTask.Name() == name })
		if !mine && mgr.deployedLocked(name) {
			moved = append(moved, name)
		}
	}
	mgr.mu.Unlock()
	if rejoined || ann.Fenced {
		for _, name := range moved {
			mgr.events.Eventf(telemetry.SevWarn, mgr.cfg.ID, "task_fenced",
				"task", name, "module", ann.ModuleID)
			if mgr.fencedTasks != nil {
				mgr.fencedTasks.Add(1)
			}
			mgr.logf("manager: fencing stale task %s on %s", name, ann.ModuleID)
		}
	}
	// The set is retained, so a module normally holds the latest one. It
	// is published again when the module rejoins, is fenced (the set lifts
	// the fence) or claims a moved task (a set still in flight), and on
	// its first beacon to this manager once the manager has deployed
	// anything — a restarted manager may have died between an undeploy's
	// commit and its publish, and the recovered table no longer names the
	// host. A desired task the module lacks (its start failed, and was
	// reported) is not chased.
	if rejoined || ann.Fenced || len(moved) > 0 || (prev == "" && scoped) {
		if err := mgr.publishDesired(ann.ModuleID); err != nil {
			mgr.logf("manager: %v", err)
		}
	}
}

// deployedLocked reports whether a subtask of that name is deployed.
// Called with mu held.
func (mgr *Manager) deployedLocked(task string) bool {
	for _, dep := range mgr.deployments {
		if _, ok := dep.Epochs[task]; ok {
			return true
		}
	}
	return false
}

// onHealthTransition is the HealthMonitor's sweep callback: a dead
// classification triggers the same failover a leave message would — the
// partitioned-module case, where the MQTT will never fires.
func (mgr *Manager) onHealthTransition(moduleID, state string) {
	if state != HealthDead || mgr.cfg.DisableDeadFailover {
		return
	}
	// The dead module is out of the live set (and with it the placement
	// pool) but stays in the health table, so a later beacon is
	// recognized as a rejoin and gets its set again.
	mgr.mu.Lock()
	delete(mgr.draining, moduleID)
	mgr.mu.Unlock()
	mgr.events.Eventf(telemetry.SevError, mgr.cfg.ID, "failover_dead", "module", moduleID)
	mgr.logf("manager: module %s dead, failing over its tasks", moduleID)
	mgr.reassignFrom(moduleID, failoverDead)
}

func (mgr *Manager) handleLeave(msg mqttclient.Message) {
	var ann Announce
	if err := DecodeJSON(msg.Payload, &ann); err != nil || ann.ModuleID == "" {
		return
	}
	mgr.mu.Lock()
	delete(mgr.draining, ann.ModuleID)
	mgr.mu.Unlock()
	mgr.health.Remove(ann.ModuleID)
	mgr.events.Eventf(telemetry.SevInfo, ann.ModuleID, "module_left")
	mgr.logf("manager: module %s left", ann.ModuleID)
	mgr.reassignFrom(ann.ModuleID, failoverLeave)
}

// handleDrain starts a graceful drain: the module is pulled from the
// placement pool, its subtasks are revoked (with final checkpoints) and
// re-placed on survivors, and the module — which is watching its running
// set — exits once it reaches zero.
func (mgr *Manager) handleDrain(msg mqttclient.Message) {
	var dr DrainRequest
	if err := DecodeJSON(msg.Payload, &dr); err != nil || dr.ModuleID == "" {
		return
	}
	mgr.mu.Lock()
	already := mgr.draining[dr.ModuleID]
	mgr.draining[dr.ModuleID] = true
	mgr.mu.Unlock()
	if already {
		return
	}
	mgr.events.Eventf(telemetry.SevInfo, dr.ModuleID, "drain_started")
	mgr.logf("manager: draining module %s", dr.ModuleID)
	moved, unplaceable := mgr.reassignFrom(dr.ModuleID, failoverDrain)
	mgr.events.Eventf(telemetry.SevInfo, dr.ModuleID, "drain_complete",
		"moved", strconv.Itoa(moved), "unplaceable", strconv.Itoa(unplaceable))
}

// reassignFrom moves every subtask hosted on a departed, dead or draining
// module to a surviving module — the middleware's failover for dynamic
// leave/crash/partition. Subtasks whose placement constraint no survivor
// satisfies (e.g. a sense task whose physical sensor died with the
// module) stay orphaned and are logged. Returns how many subtasks moved
// and how many were unplaceable.
func (mgr *Manager) reassignFrom(deadModuleID, reason string) (moved, unplaceable int) {
	type orphan struct {
		dep *Deployment
		sub recipe.SubTask
	}
	// Snapshot the orphan set under the lock: deploy, undeploy and
	// concurrent failover paths mutate dep.Assignment under mu.
	mgr.mu.Lock()
	var orphans []orphan
	for _, dep := range mgr.deployments {
		for _, s := range dep.SubTasks {
			if dep.Assignment[s.Name()] == deadModuleID {
				orphans = append(orphans, orphan{dep: dep, sub: s})
			}
		}
	}
	mgr.mu.Unlock()
	if len(orphans) == 0 {
		return 0, 0
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].sub.Name() < orphans[j].sub.Name() })

	infos := mgr.moduleInfos()
	infoIdx := make(map[string]int, len(infos))
	for i := range infos {
		infoIdx[infos[i].ID] = i
	}
	// Re-place each orphan individually so one unplaceable subtask (its
	// sensor died with the module) does not block the others.
	var targets []string
	for _, o := range orphans {
		dep, s := o.dep, o.sub
		assignment, err := mgr.cfg.Strategy.Assign([]recipe.SubTask{s}, infos)
		if err != nil {
			unplaceable++
			mgr.logf("manager: failover: %s unplaceable after %s left: %v", s.Name(), deadModuleID, err)
			mgr.events.Eventf(telemetry.SevError, mgr.cfg.ID, "failover_unplaceable",
				"task", s.Name(), "from", deadModuleID, "reason", reason, "error", err.Error())
			continue
		}
		target := assignment[s.Name()]
		// Fold the placement back into the candidate loads, so a batch of
		// orphans spreads across the survivors instead of herding onto
		// the one that was least loaded when the batch started.
		if i, ok := infoIdx[target]; ok {
			infos[i].BaseLoad += tasks.CostOf(s)
			infos[i].TasksRunning++
		}
		mgr.mu.Lock()
		if mgr.deployments[dep.Recipe.Name] != dep {
			// Undeployed or upgraded since the snapshot: the record would
			// land on the replacement deployment.
			mgr.mu.Unlock()
			continue
		}
		epoch := dep.Epochs[s.Name()] + 1
		mgr.commitLocked(mgrRec{Op: mgrOpAssign, Name: dep.Recipe.Name, Task: s.Name(), Module: target, Epoch: epoch})
		mgr.mu.Unlock()
		targets = append(targets, target)
		moved++
		mgr.countFailover(reason)
		mgr.events.Eventf(telemetry.SevWarn, mgr.cfg.ID, "failover",
			"task", s.Name(), "from", deadModuleID, "to", target, "reason", reason)
		mgr.logf("manager: failover (%s): moved %s from %s to %s", reason, s.Name(), deadModuleID, target)
	}
	// The source's set goes first: on a drain, its final checkpoint lands
	// before a new host starts.
	if moved > 0 {
		if err := errors.Join(mgr.publishDesired(deadModuleID), mgr.publishDesired(targets...)); err != nil {
			mgr.logf("manager: failover (%s): %v", reason, err)
		}
	}
	return moved, unplaceable
}

func (mgr *Manager) handleStatus(msg mqttclient.Message) {
	var st Status
	if err := DecodeJSON(msg.Payload, &st); err != nil {
		return
	}
	mgr.mu.Lock()
	deps := make([]*Deployment, 0, len(mgr.deployments))
	for _, d := range mgr.deployments {
		deps = append(deps, d)
	}
	mgr.mu.Unlock()
	for _, d := range deps {
		d.noteStatus(st)
	}
	if st.Kind == StatusFailed {
		mgr.logf("manager: %s reported %s failed: %s", st.ModuleID, st.SubTaskName, st.Detail)
	}
}

func (mgr *Manager) handleDiscover(msg mqttclient.Message) {
	var q DiscoverQuery
	if err := DecodeJSON(msg.Payload, &q); err != nil || q.RequestID == "" {
		return
	}
	if err := wire.ValidateTopicFilter(q.Filter); err != nil {
		return
	}
	var matches []StreamInfo
	for _, s := range mgr.Streams() {
		if wire.MatchTopic(q.Filter, s.Topic) {
			matches = append(matches, s)
		}
	}
	reply := DiscoverReply{RequestID: q.RequestID, Streams: matches}
	_ = mgr.client.Publish(TopicDiscoverReplyPrefix+q.RequestID, EncodeJSON(reply), wire.QoS1, false)
}

func (mgr *Manager) logf(format string, args ...any) {
	if mgr.cfg.Logger != nil {
		mgr.cfg.Logger.Printf(format, args...)
	}
}
