package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/store"
)

// The sweep's size: steps per schedule, seeds per module count, and the
// recipe names deployments draw from.
const (
	ctrlSimSteps   = 150
	ctrlSimSeeds   = 500
	ctrlSimRecipes = 3
)

// errManagerDown is what a publish returns once the schedule has crashed
// the manager mid-operation.
var errManagerDown = errors.New("manager crashed")

// errStubBuild is the stubbed build's failure for a task marked "fail".
var errStubBuild = errors.New("stub build failure")

// ctrlSimMsg is one message on its way to the manager.
type ctrlSimMsg struct {
	topic   string
	payload []byte
}

// ctrlSimModule is one neuron module of the schedule: the real Module
// task table and desired-set handler, with task instances stubbed, and
// its connection state as the broker sees it.
type ctrlSimModule struct {
	m          *Module
	connected  bool
	inbox      [][]byte // desired sets routed to it, in topic order
	restartDue bool     // reconnected; restartTasks not yet run
}

// ctrlSchedule is one seeded run of a broker-free control plane: the real
// manager (deployment table, journal, desired-set derivation, announce,
// leave, drain and dead handling) and real modules exchange real encoded
// messages through per-subscriber, per-topic FIFOs, and the latest set per
// module topic is retained, as a broker would.
type ctrlSchedule struct {
	t        *testing.T
	rng      *rand.Rand
	lossy    bool
	clk      *clock.Virtual
	st       *store.MemStore
	mgr      *Manager
	mods     []*ctrlSimModule
	retained map[string][]byte
	mgrIn    map[string][]ctrlSimMsg // by topic
	mgrTopic []string                // mgrIn's topics in first-use order
	// crashIn counts the publishes the manager still makes before it dies
	// mid-operation (-1: no crash pending).
	crashIn   int
	versions  map[string]int // last version deployed per recipe name
	published int            // desired sets and blob clears the manager published
}

func newCtrlSchedule(t *testing.T, seed int64, modules int) *ctrlSchedule {
	s := &ctrlSchedule{
		t: t, rng: rand.New(rand.NewSource(seed)), lossy: true,
		clk: clock.NewVirtual(time.Unix(0, 0)), st: store.NewMemStore(),
		retained: make(map[string][]byte), mgrIn: make(map[string][]ctrlSimMsg),
		crashIn: -1, versions: make(map[string]int),
	}
	s.startManager()
	for i := 0; i < modules; i++ {
		s.mods = append(s.mods, s.newModule(fmt.Sprintf("m%d", i+1)))
	}
	return s
}

// startManager is Manager.Start over the schedule's broker: recover the
// journal, then publish the set of every module the table names.
func (s *ctrlSchedule) startManager() {
	mgr := NewManager(ManagerConfig{ID: "mgr", Clock: s.clk, Store: s.st})
	if err := mgr.recoverState(s.st); err != nil {
		s.t.Fatal(err)
	}
	mgr.retain = s.publish
	s.mgr = mgr
	_ = mgr.publishRecovered()
}

// compact is a journal snapshot compaction at this point of the schedule.
func (s *ctrlSchedule) compact() {
	if err := s.st.SaveSnapshot(s.mgr.captureState); err != nil {
		s.t.Fatal(err)
	}
}

// restartManager drops the manager with whatever it had in flight and
// starts a new one from the journal.
func (s *ctrlSchedule) restartManager() {
	s.mgr.journal.Close()
	s.mgrIn, s.mgrTopic = make(map[string][]ctrlSimMsg), nil
	s.crashIn = -1
	s.startManager()
}

// directTask is the epoch-0 task every module starts itself: no desired
// set may touch it.
func directTask(moduleID string) (recipe.Recipe, recipe.SubTask) {
	rec := recipe.Recipe{Name: "direct-" + moduleID, Tasks: []recipe.Task{{ID: "t", Kind: recipe.KindAnomaly}}}
	return rec, recipe.SubTask{Recipe: rec.Name, TaskID: "t", ShardCount: 1, Task: rec.Tasks[0]}
}

func (s *ctrlSchedule) newModule(id string) *ctrlSimModule {
	m := NewModule(Config{ID: id, Clock: s.clk})
	m.started = true
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.build = func(_ recipe.Recipe, sub recipe.SubTask) (*taskInstance, error) {
		if sub.Task.Params["fail"] != "" {
			return nil, errStubBuild
		}
		return &taskInstance{name: sub.Name()}, nil
	}
	if err := m.StartTask(directTask(id)); err != nil {
		s.t.Fatal(err)
	}
	sm := &ctrlSimModule{m: m}
	s.connect(sm)
	return sm
}

// publish is the manager's retained publish: the broker stores the value
// (an empty payload clears it) and routes it to a connected subscriber.
func (s *ctrlSchedule) publish(topic string, payload []byte) error {
	if s.crashIn == 0 {
		return errManagerDown
	}
	if s.crashIn > 0 {
		s.crashIn--
	}
	s.published++
	if len(payload) == 0 {
		delete(s.retained, topic)
	} else {
		s.retained[topic] = payload
	}
	for _, sm := range s.mods {
		if sm.connected && topic == TopicDesiredPrefix+sm.m.ID() {
			sm.inbox = append(sm.inbox, payload)
		}
	}
	return nil
}

// toManager routes a non-retained message to the manager, lost now and
// then while the schedule is lossy.
func (s *ctrlSchedule) toManager(topic string, v any) {
	if s.lossy && s.rng.Intn(10) == 0 {
		return
	}
	if _, ok := s.mgrIn[topic]; !ok {
		s.mgrTopic = append(s.mgrTopic, topic)
	}
	s.mgrIn[topic] = append(s.mgrIn[topic], ctrlSimMsg{topic: topic, payload: EncodeJSON(v)})
}

// connect is a module's (re)connect: the retained set replays behind the
// SUBACK, the module announces, and — after a connection loss — its
// restartTasks runs at some later step, racing the replayed set.
func (s *ctrlSchedule) connect(sm *ctrlSimModule) {
	sm.connected = true
	if p, ok := s.retained[TopicDesiredPrefix+sm.m.ID()]; ok {
		sm.inbox = append(sm.inbox, p)
	}
	s.beacon(sm)
}

// disconnect drops a module's connection: sets in flight to it are lost
// (clean session) and, unless the drop is a silent partition, its will
// tells the manager it left.
func (s *ctrlSchedule) disconnect(sm *ctrlSimModule, will bool) {
	sm.connected, sm.inbox, sm.restartDue = false, nil, true
	if will {
		s.toManager(TopicLeavePrefix+sm.m.ID(), Announce{ModuleID: sm.m.ID()})
	}
}

func (s *ctrlSchedule) beacon(sm *ctrlSimModule) {
	if !sm.connected {
		return
	}
	names, epochs := sm.m.taskSnapshot()
	sort.Strings(names)
	s.toManager(TopicAnnounce, Announce{ModuleID: sm.m.ID(), RunningTasks: names,
		TaskEpochs: epochs, Fenced: sm.m.outputsFenced.Load(), SentAt: s.clk.Now()})
}

// deliverModule hands sm the head of its desired-set FIFO.
func (s *ctrlSchedule) deliverModule(sm *ctrlSimModule) {
	p := sm.inbox[0]
	sm.inbox = sm.inbox[1:]
	sm.m.applyDesired(mqttclient.Message{Topic: TopicDesiredPrefix + sm.m.ID(), Payload: p})
}

// deliverManager hands the manager the head of one nonempty topic FIFO.
func (s *ctrlSchedule) deliverManager() bool {
	var ready []string
	for _, topic := range s.mgrTopic {
		if len(s.mgrIn[topic]) > 0 {
			ready = append(ready, topic)
		}
	}
	if len(ready) == 0 {
		return false
	}
	topic := ready[s.rng.Intn(len(ready))]
	msg := s.mgrIn[topic][0]
	s.mgrIn[topic] = s.mgrIn[topic][1:]
	in := mqttclient.Message{Topic: msg.topic, Payload: msg.payload}
	switch {
	case topic == TopicAnnounce:
		s.mgr.handleAnnounce(in)
	case strings.HasPrefix(topic, TopicLeavePrefix):
		s.mgr.handleLeave(in)
	case strings.HasPrefix(topic, TopicDrainPrefix):
		s.mgr.handleDrain(in)
	}
	return true
}

// declareDead is the health sweep's dead transition for one module whose
// beacons stopped reaching the manager: the state flips, then the
// manager's transition hook fails its tasks over.
func (s *ctrlSchedule) declareDead(id string) {
	h := s.mgr.health
	h.mu.Lock()
	e, ok := h.modules[id]
	ok = ok && e.state != HealthDead
	if ok {
		e.state = HealthDead
	}
	h.mu.Unlock()
	if ok {
		s.mgr.onHealthTransition(id, HealthDead)
	}
}

// deploy deploys (or upgrades) one of the recipe names at a new version:
// one to three detectors any module can host, one in ten of which fails
// to build wherever it is placed.
func (s *ctrlSchedule) deploy() {
	name := fmt.Sprintf("r%d", s.rng.Intn(ctrlSimRecipes))
	s.versions[name]++
	rec := &recipe.Recipe{Name: name, Version: s.versions[name]}
	for i := 0; i <= s.rng.Intn(3); i++ {
		task := recipe.Task{ID: fmt.Sprintf("d%d", i), Kind: recipe.KindAnomaly,
			Inputs: []string{name + "/in"}, Output: fmt.Sprintf("%s/d%d", name, i)}
		if s.rng.Intn(10) == 0 {
			task.Params = map[string]string{"fail": "1"}
		}
		rec.Tasks = append(rec.Tasks, task)
	}
	_, _ = s.mgr.Deploy(rec) // fails with no live module, or mid-crash
}

func (s *ctrlSchedule) undeploy() {
	_ = s.mgr.Undeploy(fmt.Sprintf("r%d", s.rng.Intn(ctrlSimRecipes)))
}

func (s *ctrlSchedule) pick() *ctrlSimModule { return s.mods[s.rng.Intn(len(s.mods))] }

// managerOp runs one deployment-table change of the manager, or hands it
// one message (an announce, leave or drain request may change the table).
func (s *ctrlSchedule) managerOp() {
	switch s.rng.Intn(4) {
	case 0:
		s.deploy()
	case 1:
		s.undeploy()
	case 2:
		s.declareDead(s.pick().m.ID())
	default:
		s.deliverManager()
	}
}

// step plays one scheduled event.
func (s *ctrlSchedule) step() {
	sm := s.pick()
	switch r := s.rng.Intn(100); {
	case r < 37:
		if len(sm.inbox) > 0 {
			s.deliverModule(sm)
		}
	case r < 49:
		s.beacon(sm)
	case r < 54:
		if sm.connected && sm.restartDue {
			sm.restartDue = false
			sm.m.restartTasks()
		}
	case r < 63:
		s.managerOp()
	case r < 66:
		if sm.connected {
			s.disconnect(sm, s.rng.Intn(2) == 0)
		}
	case r < 72:
		if !sm.connected {
			s.connect(sm)
		}
	case r < 75:
		if sm.connected {
			s.toManager(TopicDrainPrefix+sm.m.ID(), DrainRequest{ModuleID: sm.m.ID()})
		}
	case r < 77:
		// Self-fence: the module's beacons went unacknowledged.
		if !sm.connected {
			sm.m.outputsFenced.Store(true)
		}
	case r < 79:
		s.restartManager()
	case r < 80:
		// The manager dies partway through a table change, after zero or
		// more of its publishes; the journal may be compacted before the
		// restart.
		s.crashIn = s.rng.Intn(3)
		s.managerOp()
		if s.rng.Intn(2) == 0 {
			s.compact()
		}
		s.restartManager()
	case r < 82:
		s.compact()
	default:
		s.deliverManager()
	}
}

// instKey names one task instance: the subtask, the recipe version it
// runs (a redeploy starts epochs over) and its epoch.
type instKey struct {
	name    string
	version int
	epoch   uint64
}

// checkOwners is the per-step invariant: at most one unfenced instance
// per (subtask, version, epoch) across all modules.
func (s *ctrlSchedule) checkOwners() error {
	seen := make(map[instKey]string)
	for _, sm := range s.mods {
		if sm.m.outputsFenced.Load() {
			continue
		}
		sm.m.mu.Lock()
		for name, ht := range sm.m.hosted {
			if ht.inst == nil || ht.spec.epoch == 0 {
				continue
			}
			k := instKey{name, ht.spec.rec.Version, ht.spec.epoch}
			if other, dup := seen[k]; dup {
				sm.m.mu.Unlock()
				return fmt.Errorf("%s v%d epoch %d runs unfenced on %s and %s", k.name, k.version, k.epoch, other, sm.m.ID())
			}
			seen[k] = sm.m.ID()
		}
		sm.m.mu.Unlock()
	}
	return nil
}

// quiesce reconnects every module and runs the protocol losslessly for
// ten rounds of beacons.
func (s *ctrlSchedule) quiesce() {
	s.lossy = false
	for _, sm := range s.mods {
		if !sm.connected {
			s.connect(sm)
		}
	}
	for round := 0; round < 10; round++ {
		s.settle()
	}
}

// settle delivers every message in flight, then has every module beacon.
func (s *ctrlSchedule) settle() {
	for busy := true; busy; {
		busy = s.deliverManager()
		for _, sm := range s.mods {
			if sm.restartDue {
				sm.restartDue = false
				sm.m.restartTasks()
			}
			for len(sm.inbox) > 0 {
				s.deliverModule(sm)
				busy = true
			}
		}
	}
	for _, sm := range s.mods {
		s.beacon(sm)
	}
}

// checkQuiesced compares every module's task table with the manager's
// deployment table, and the table and scope with their journal replay.
func (s *ctrlSchedule) checkQuiesced() error {
	type owner struct {
		module  string
		version int
		epoch   uint64
	}
	want := make(map[string]owner)
	fails := make(map[string]bool)
	s.mgr.mu.Lock()
	for _, dep := range s.mgr.deployments {
		for _, sub := range dep.SubTasks {
			want[sub.Name()] = owner{dep.Assignment[sub.Name()], dep.Recipe.Version, dep.Epochs[sub.Name()]}
			fails[sub.Name()] = sub.Task.Params["fail"] != ""
		}
	}
	s.mgr.mu.Unlock()

	for _, sm := range s.mods {
		id := sm.m.ID()
		if sm.m.outputsFenced.Load() {
			return fmt.Errorf("%s still fenced", id)
		}
		sm.m.mu.Lock()
		hosted := make(map[string]owner, len(sm.m.hosted))
		for name, ht := range sm.m.hosted {
			if ht.inst != nil {
				hosted[name] = owner{id, ht.spec.rec.Version, ht.spec.epoch}
			}
		}
		sm.m.mu.Unlock()
		direct, _ := directTask(id)
		if o, ok := hosted[direct.Name+"/t"]; !ok || o.epoch != 0 {
			return fmt.Errorf("%s lost its direct task", id)
		}
		for name, o := range hosted {
			if o.epoch == 0 {
				continue
			}
			if w, ok := want[name]; !ok || w != o {
				return fmt.Errorf("%s runs %s v%d at epoch %d; the table has %+v (deployed %v)", id, name, o.version, o.epoch, w, ok)
			}
		}
		for name, w := range want {
			if _, ok := hosted[name]; w.module == id && !ok && !fails[name] {
				return fmt.Errorf("%s does not run its %s (v%d, epoch %d)", id, name, w.version, w.epoch)
			}
		}
	}

	replay := NewManager(ManagerConfig{Clock: s.clk})
	if err := replay.recoverState(s.st); err != nil {
		return err
	}
	defer replay.journal.Close()
	if live, replayed := journaled(s.mgr), journaled(replay); !reflect.DeepEqual(live, replayed) {
		return fmt.Errorf("replayed table differs:\nlive     %+v\nreplayed %+v", live, replayed)
	}
	return nil
}

// journaledView is the journaled part of a manager: its deployment table
// and its scope.
type journaledView struct {
	deps  map[string]depView
	scope []string
}

func journaled(mgr *Manager) journaledView {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	out := journaledView{deps: make(map[string]depView, len(mgr.deployments)), scope: sortedKeys(mgr.scope)}
	for name, dep := range mgr.deployments {
		out.deps[name] = depView{Recipe: dep.Recipe, SubTasks: dep.SubTasks, Assignment: dep.Assignment, Epochs: dep.Epochs}
	}
	return out
}

// run plays the seeded schedule, checking the owner invariant after every
// step, then quiesces and checks convergence.
func (s *ctrlSchedule) run() error {
	defer func() { s.mgr.journal.Close() }()
	for i := 0; i < ctrlSimSteps; i++ {
		s.step()
		if err := s.checkOwners(); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	s.quiesce()
	if err := s.checkOwners(); err != nil {
		return fmt.Errorf("quiesced: %w", err)
	}
	// Quiesced means quiet: beacons, a failed start among them, must not
	// keep the manager publishing.
	published := s.published
	s.settle()
	s.settle()
	if n := s.published - published; n > 0 {
		return fmt.Errorf("quiesced: %d more publishes after two rounds of beacons", n)
	}
	return s.checkQuiesced()
}

// TestControlPlaneConvergesUnderAnySchedule is the control plane's
// schedule sweep, run without a broker through the real manager
// (deployment table and journal, desired-set derivation, announce, leave,
// drain and dead-failover handling) and the real module task table and
// desired-set handler, task instances stubbed: 2–4 modules under seeded
// interleavings of deliveries, beacons, deploys, upgrades, undeploys,
// drains, dead declarations, connection drops with and without a will,
// reconnects racing restartTasks, self-fences, manager restarts from the
// journal, journal compactions, and manager crashes between a commit and
// its publishes (compacted or not before the restart), with
// 10 % loss of non-retained traffic and one task in ten failing to build.
// After every step no two unfenced instances share a (subtask, version,
// epoch); after a lossless quiesce every deployed subtask that builds runs
// exactly on its assigned module at its epoch, nothing else
// manager-assigned runs anywhere (so every placeable drain completed),
// direct tasks are untouched, no module is fenced, further beacons make
// the manager publish nothing, and the journal replays to the live table
// and scope.
// Failing seeds are logged.
func TestControlPlaneConvergesUnderAnySchedule(t *testing.T) {
	for modules := 2; modules <= 4; modules++ {
		var failed []int64
		for seed := int64(1); seed <= ctrlSimSeeds; seed++ {
			if err := newCtrlSchedule(t, seed, modules).run(); err != nil {
				failed = append(failed, seed)
				t.Logf("modules=%d seed=%d: %v", modules, seed, err)
			}
		}
		if len(failed) > 0 {
			t.Errorf("modules=%d: %d of %d seeds violated the control-plane invariants: %v",
				modules, len(failed), ctrlSimSeeds, failed)
		}
	}
}
