package ifot_test

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// blackholeProxy is a TCP relay that can be wedged: after Blackhole() it
// keeps both sides' connections open but silently discards all traffic —
// the network-partition failure mode, where a module falls silent without
// the broker ever seeing a close (so no will/leave fires and only
// beacon-liveness detection can notice).
type blackholeProxy struct {
	l        net.Listener
	addr     string
	upstream string
	wedged   atomic.Bool

	mu    sync.Mutex
	conns []net.Conn
}

func newBlackholeProxy(t *testing.T, upstream string) *blackholeProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &blackholeProxy{l: l, addr: l.Addr().String(), upstream: upstream}
	go p.acceptLoop()
	return p
}

func (p *blackholeProxy) acceptLoop() {
	for {
		down, err := p.l.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.upstream)
		if err != nil {
			_ = down.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, down, up)
		p.mu.Unlock()
		go p.pipe(down, up)
		go p.pipe(up, down)
	}
}

// pipe forwards src→dst until either side closes; while wedged it still
// drains src (so writers never block) but forwards nothing.
func (p *blackholeProxy) pipe(src, dst net.Conn) {
	defer func() { _ = dst.Close() }()
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 && !p.wedged.Load() {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (p *blackholeProxy) Blackhole() { p.wedged.Store(true) }

// Heal unwedges the proxy: surviving connections resume forwarding and
// fresh dials complete, as when a network partition clears.
func (p *blackholeProxy) Heal() { p.wedged.Store(false) }

func (p *blackholeProxy) Close() {
	_ = p.l.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
}

// TestClusterHealthEndToEnd drives the cluster health subsystem over real
// TCP with the race detector on: a manager with tight liveness windows
// watches a neuron module whose network is then blackholed mid-run — the
// module must be classified suspect and then dead purely from beacon
// silence, with the transition events landing in the manager's cluster
// event view. The module's store is crashed and its WAL tail corrupted;
// after restart, the wal_torn_tail recovery event must travel
// module→broker→manager and appear in the cluster view attributed to the
// module, and the module must classify healthy again.
func TestClusterHealthEndToEnd(t *testing.T) {
	neuronDir := t.TempDir()

	b, err := broker.Open(broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	defer b.Close()
	addr := l.Addr().String()

	mgr := core.NewManager(core.ManagerConfig{
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Health: core.HealthConfig{
			BeaconInterval: 50 * time.Millisecond,
			SuspectAfter:   250 * time.Millisecond,
			DeadAfter:      500 * time.Millisecond,
		},
	})
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	// --- Phase 1: healthy module behind a wedgeable link ---
	px := newBlackholeProxy(t, addr)
	defer px.Close()

	events := telemetry.NewEventLog(128)
	nst, err := store.Open(neuronDir, store.Options{Name: "neuron", NoSync: true, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	mod := core.NewModule(core.Config{
		ID:                  "edge1",
		Store:               nst,
		Events:              events,
		EventExportInterval: 50 * time.Millisecond,
		HeartbeatInterval:   50 * time.Millisecond,
		Dial:                func() (net.Conn, error) { return net.Dial("tcp", px.addr) },
	})
	if err := mod.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "module classified healthy", func() bool {
		return mgr.Health().State("edge1") == core.HealthHealthy
	})

	// Journal a few records so the crashed WAL has a tail to corrupt.
	for i := 0; i < 8; i++ {
		if err := nst.Append([]byte("checkpoint-record")); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "WAL bytes on disk", func() bool { return nst.WALBytes() > 0 })

	// --- Phase 2: partition — silence without a close ---
	px.Blackhole()
	waitCond(t, "module classified dead", func() bool {
		return mgr.Health().State("edge1") == core.HealthDead
	})
	snap := mgr.Health().HealthSnapshot()
	if snap.Dead != 1 || snap.Healthy != 0 {
		t.Fatalf("health snapshot after partition = %+v", snap)
	}
	kinds := map[string]int{}
	for _, ev := range mgr.Events().Events(0, time.Time{}) {
		if ev.Module == "edge1" {
			kinds[ev.Kind]++
		}
	}
	if kinds["module_suspect"] != 1 || kinds["module_dead"] != 1 {
		t.Fatalf("liveness transition events for edge1 = %v, want one suspect and one dead", kinds)
	}

	// --- Phase 3: crash, corrupt the WAL tail, restart ---
	nst.Crash()
	_ = mod.Close()
	segs, err := filepath.Glob(filepath.Join(neuronDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", neuronDir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	events2 := telemetry.NewEventLog(128)
	st2, err := store.Open(neuronDir, store.Options{Name: "neuron", NoSync: true, Events: events2})
	if err != nil {
		t.Fatalf("reopen neuron store over torn WAL: %v", err)
	}
	defer st2.Close()
	var torn []telemetry.Event
	for _, ev := range events2.Events(0, time.Time{}) {
		if ev.Kind == "wal_torn_tail" {
			torn = append(torn, ev)
		}
	}
	if len(torn) != 1 || torn[0].Fields["store"] != "neuron" {
		t.Fatalf("local wal_torn_tail events after recovery = %+v, want exactly one", torn)
	}

	mod2 := core.NewModule(core.Config{
		ID:                  "edge1",
		Events:              events2,
		EventExportInterval: 50 * time.Millisecond,
		HeartbeatInterval:   50 * time.Millisecond,
		Dial:                func() (net.Conn, error) { return net.Dial("tcp", addr) },
	})
	if err := mod2.Start(); err != nil {
		t.Fatal(err)
	}
	defer mod2.Close()

	// The recovery event must reach the manager's cluster event view,
	// attributed to the module that recovered.
	waitCond(t, "wal_torn_tail in the manager's cluster view", func() bool {
		for _, ev := range mgr.Events().Events(0, time.Time{}) {
			if ev.Kind == "wal_torn_tail" && ev.Module == "edge1" &&
				ev.Fields["store"] == "neuron" && ev.Severity == telemetry.SevWarn {
				return true
			}
		}
		return false
	})
	waitCond(t, "module classified healthy after restart", func() bool {
		return mgr.Health().State("edge1") == core.HealthHealthy
	})
}

// TestPartitionFailoverFencingEndToEnd drives the full partition
// lifecycle over real TCP with the race detector on: an anomaly task runs
// on a module (edgeA) behind a wedgeable link, training a detector whose
// checkpoints are handed off as retained broker blobs. The link is then
// blackholed: edgeA must self-fence its outputs from announce-ack
// silence, the manager must declare it dead from beacon silence and fail
// the task over to the survivor (edgeB), and edgeB must restore the
// learner from the retained handoff blob — proven by an outlier it flags
// immediately, which an untrained zscore never does. When the partition
// heals, edgeA's first announce is a zombie rejoin: the manager
// reconciles it, the stale task instance stops instead of resurrecting,
// the output fence lifts, and a broker-side sink must never have seen a
// duplicate decision for any input sequence number.
func TestPartitionFailoverFencingEndToEnd(t *testing.T) {
	b, err := broker.Open(broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	defer b.Close()
	addr := l.Addr().String()

	mgr := core.NewManager(core.ManagerConfig{
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Health: core.HealthConfig{
			BeaconInterval: 50 * time.Millisecond,
			SuspectAfter:   250 * time.Millisecond,
			DeadAfter:      500 * time.Millisecond,
		},
	})
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	px := newBlackholeProxy(t, addr)
	defer px.Close()

	// edgeA: the initial host, behind the wedgeable link. Its huge
	// capacity pins the placement; FenceAfter < DeadAfter so the zombie
	// side of the partition muzzles itself before the manager moves the
	// task; it is also the session's ack wait, so announce attempts (and
	// redials through the wedge) fail fast instead of hanging.
	evA := telemetry.NewEventLog(256)
	edgeA := core.NewModule(core.Config{
		ID:                  "edgeA",
		CapacityOps:         100000,
		Events:              evA,
		EventExportInterval: 50 * time.Millisecond,
		HeartbeatInterval:   50 * time.Millisecond,
		CheckpointHandoff:   true,
		CheckpointInterval:  25 * time.Millisecond,
		FenceAfter:          150 * time.Millisecond,
		Dial:                func() (net.Conn, error) { return net.Dial("tcp", px.addr) },
	})
	evB := telemetry.NewEventLog(256)
	edgeB := core.NewModule(core.Config{
		ID:                  "edgeB",
		CapacityOps:         1000,
		Events:              evB,
		EventExportInterval: 50 * time.Millisecond,
		HeartbeatInterval:   50 * time.Millisecond,
		CheckpointHandoff:   true,
		Dial:                func() (net.Conn, error) { return net.Dial("tcp", addr) },
	})
	for _, m := range []*core.Module{edgeA, edgeB} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer edgeA.Close()
	defer edgeB.Close()
	waitCond(t, "both modules announced", func() bool { return len(mgr.Modules()) == 2 })

	dial := func(id string, onMsg mqttclient.Handler) *mqttclient.Client {
		opts := mqttclient.NewOptions(id)
		opts.DefaultHandler = onMsg
		c, err := mqttclient.Dial(addr, opts)
		if err != nil {
			t.Fatalf("dial as %s: %v", id, err)
		}
		return c
	}

	// The sink counts decisions per input sequence number straight off the
	// broker: any seq seen twice means a fenced zombie leaked an output.
	var (
		sinkMu   sync.Mutex
		seqCount = map[uint32]int{}
		labels   = map[uint32]string{}
	)
	sink := dial("pf-sink", nil)
	defer sink.Close()
	if _, err := sink.Subscribe("pf/out", wire.QoS0, func(m mqttclient.Message) {
		var d core.Decision
		if json.Unmarshal(m.Payload, &d) != nil {
			return
		}
		sinkMu.Lock()
		seqCount[d.Seq]++
		labels[d.Seq] = d.Label
		sinkMu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	// Watch the retained handoff blob so the test knows when failover has
	// state to restore from.
	var blobSeen atomic.Bool
	watch := dial("pf-ckpt-watch", nil)
	defer watch.Close()
	if _, err := watch.Subscribe(core.CheckpointTopic("pf/det"), wire.QoS1, func(m mqttclient.Message) {
		if len(m.Payload) > 0 {
			blobSeen.Store(true)
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Deploy one anomaly task fed by a raw topic; capacity pins it to edgeA.
	rec := &recipe.Recipe{
		Name: "pf",
		Tasks: []recipe.Task{{
			ID: "det", Kind: recipe.KindAnomaly,
			Inputs: []string{"pf/in"}, Output: "pf/out",
			Params: map[string]string{"detector": "zscore", "threshold": "5"},
		}},
	}
	if _, err := mgr.Deploy(rec); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "detector running on edgeA", func() bool {
		for _, name := range edgeA.RunningTasks() {
			if name == "pf/det" {
				return true
			}
		}
		return false
	})

	pfSample := func(i int, v float64) []byte {
		return sensor.Sample{
			SensorIndex: 1, Kind: sensor.Sound, Seq: uint32(i),
			Timestamp: time.Unix(int64(i), 0),
			Values:    [3]float32{float32(v), float32(v / 2), float32(-v)},
		}.Encode()
	}
	feeder := dial("pf-feeder", nil)
	defer feeder.Close()

	// --- Phase 1: train the detector on edgeA, wait for a handoff blob ---
	const trainN = 250
	for i := 0; i < trainN; i++ {
		time.Sleep(2 * time.Millisecond)
		if err := feeder.Publish("pf/in", pfSample(i, math.Sin(float64(i))), wire.QoS0, false); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "training decisions at the sink", func() bool {
		sinkMu.Lock()
		defer sinkMu.Unlock()
		return len(seqCount) >= trainN/2
	})
	waitCond(t, "retained handoff checkpoint published", blobSeen.Load)

	// --- Phase 2: partition edgeA ---
	px.Blackhole()
	partitioned := time.Now()
	waitCond(t, "edgeA self-fenced", func() bool {
		for _, ev := range evA.Events(0, time.Time{}) {
			if ev.Kind == "self_fenced" {
				return true
			}
		}
		return false
	})
	// FenceAfter is also edgeA's ack wait, so a blocked announce fails
	// within it and the fence falls well before mqttclient's 10 s default.
	if took := time.Since(partitioned); took > 3*time.Second {
		t.Fatalf("edgeA self-fenced %v after the partition, want within 3s", took)
	}
	waitCond(t, "edgeA classified dead", func() bool {
		return mgr.Health().State("edgeA") == core.HealthDead
	})
	waitCond(t, "detector failed over to edgeB", func() bool {
		for _, name := range edgeB.RunningTasks() {
			if name == "pf/det" {
				return true
			}
		}
		return false
	})
	// The failover target restored the learner from the retained blob, and
	// said so on its exported event stream (visible in the cluster view).
	waitCond(t, "handoff restore on edgeB", func() bool {
		for _, ev := range evB.Events(0, time.Time{}) {
			if ev.Kind == "checkpoint_restored" && ev.Fields["source"] == "handoff" {
				return true
			}
		}
		return false
	})
	waitCond(t, "checkpoint_restored in the manager's cluster view", func() bool {
		for _, ev := range mgr.Events().Events(0, time.Time{}) {
			if ev.Kind == "checkpoint_restored" && ev.Module == "edgeB" &&
				ev.Fields["source"] == "handoff" {
				return true
			}
		}
		return false
	})

	// The restored detector must flag an outlier at once: a from-scratch
	// zscore scores it 0, so an "anomaly" verdict proves the handoff blob
	// carried edgeA's training. Republish until routed (the outlier may
	// race the failed-over task's subscription).
	outSeq := uint32(100000)
	deadline := time.Now().Add(15 * time.Second)
	var outLabel string
	for {
		outSeq++
		if err := feeder.Publish("pf/in", pfSample(int(outSeq), 500), wire.QoS0, false); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
		sinkMu.Lock()
		label, ok := labels[outSeq]
		sinkMu.Unlock()
		if ok {
			outLabel = label
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no decision for the post-failover outlier")
		}
	}
	if outLabel != "anomaly" {
		t.Fatalf("failed-over detector scored outlier %q — handoff checkpoint not restored", outLabel)
	}

	// --- Phase 3: heal — the zombie must be reconciled, not resurrected ---
	px.Heal()
	// Keep traffic flowing through the window where edgeA may still hold a
	// stale (but fenced) task instance.
	for i := 300; i < 340; i++ {
		time.Sleep(5 * time.Millisecond)
		if err := feeder.Publish("pf/in", pfSample(i, math.Sin(float64(i))), wire.QoS0, false); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "module_rejoined in the manager's cluster view", func() bool {
		for _, ev := range mgr.Events().Events(0, time.Time{}) {
			if ev.Kind == "module_rejoined" && ev.Module == "edgeA" {
				return true
			}
		}
		return false
	})
	waitCond(t, "stale task fenced off edgeA", func() bool {
		fenced := false
		for _, ev := range evA.Events(0, time.Time{}) {
			if ev.Kind == "task_fenced" {
				fenced = true
			}
		}
		return fenced && len(edgeA.RunningTasks()) == 0
	})
	waitCond(t, "edgeA output fence cleared", func() bool {
		for _, ev := range evA.Events(0, time.Time{}) {
			if ev.Kind == "fence_cleared" {
				return true
			}
		}
		return false
	})
	waitCond(t, "edgeA classified healthy after rejoin", func() bool {
		return mgr.Health().State("edgeA") == core.HealthHealthy
	})

	// Through training, partition, failover and heal, no input sequence
	// number may ever have produced two decisions: the self-fence and the
	// reconcile fence must have muzzled the zombie everywhere.
	sinkMu.Lock()
	defer sinkMu.Unlock()
	for seq, n := range seqCount {
		if n > 1 {
			t.Fatalf("duplicate decisions for seq %d: %d copies reached the sink", seq, n)
		}
	}
}
