package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Daemon defaults the stack mirrors: what ifot-broker, ifot-neuron and
// ifot-mgmt set when started with no optional flags.
const (
	brokerSyncDelay  = 5 * time.Millisecond // ifot-broker -wal-sync-delay
	moduleCapacity   = 1000                 // ifot-neuron -capacity
	traceSampleEvery = 32                   // ifot-neuron -trace-sample
	traceExportEvery = time.Second          // ifot-neuron -trace-export
	checkpointEvery  = time.Second          // fig9_durable: one checkpoint a second
	setupTimeout     = 20 * time.Second
)

// moduleSpec is one neuron module of a workload: its identity, the
// in-process sinks the benchmark hangs on it, and its actuator if any.
type moduleSpec struct {
	id       string
	observer core.Observer
	actuator sensor.Actuator
}

// stackOpts selects the two ways a workload's stack may differ from the
// plain daemons: durability (fig9_durable) and telemetry (traced runs).
type stackOpts struct {
	durable bool   // DataQoS 1, broker and modules on FileStores
	traced  bool   // Registry + Tracer as the daemons' -telemetry sets them
	dir     string // where durable stores live; required with durable
}

// setupPhases splits set-up time into its three waits.
type setupPhases struct {
	announce  time.Duration // listen → every module known to the manager
	deploy    time.Duration // Deploy → WaitRunning
	firstFlow time.Duration // running → first flow at its last sink
}

// stack is the live system under test: broker on loopback TCP, manager,
// modules, and the stores behind them when durable.
type stack struct {
	opts       stackOpts
	broker     *broker.Broker
	listener   net.Listener
	served     chan struct{}
	addr       string
	manager    *core.Manager
	modules    []*core.Module
	stores     []*store.FileStore
	registries []*telemetry.Registry // broker first, then one per module
	phases     setupPhases
}

// startStack brings up broker, manager and modules, and returns once the
// manager knows every module.
func startStack(opts stackOpts, mods []moduleSpec) (*stack, error) {
	s := &stack{opts: opts, served: make(chan struct{})}
	began := time.Now()

	bopts := broker.Options{}
	if opts.traced {
		bopts.Registry = s.newRegistry()
	}
	if opts.durable {
		st, err := s.openStore("broker", store.Options{Name: "broker", SyncDelay: brokerSyncDelay, Registry: bopts.Registry})
		if err != nil {
			return nil, err
		}
		bopts.Store = st
	}
	b, err := broker.Open(bopts)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("open broker: %w", err)
	}
	s.broker = b
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.listener = l
	s.addr = l.Addr().String()
	go func() {
		defer close(s.served)
		_ = b.Serve(l) // returns when close() closes the broker
	}()
	dial := func() (net.Conn, error) { return net.Dial("tcp", s.addr) }

	if len(mods) == 0 { // broker_relay: the broker is the whole system
		s.phases.announce = time.Since(began)
		return s, nil
	}
	// Manager before modules, so no first announcement is missed.
	s.manager = core.NewManager(core.ManagerConfig{Dial: dial})
	if err := s.manager.Start(); err != nil {
		s.close()
		return nil, fmt.Errorf("start manager: %w", err)
	}
	for _, ms := range mods {
		cfg := core.Config{ID: ms.id, CapacityOps: moduleCapacity, Dial: dial, Observer: ms.observer}
		if opts.traced {
			cfg.Telemetry = s.newRegistry()
			cfg.Tracer = telemetry.NewTracer(nil, telemetry.DefaultTraceCapacity)
			cfg.Tracer.BindRegistry(cfg.Telemetry, "")
			cfg.TraceExportInterval = traceExportEvery
			cfg.TraceSampleEvery = traceSampleEvery
		}
		if opts.durable {
			st, err := s.openStore(ms.id, store.Options{Name: "neuron", Registry: cfg.Telemetry})
			if err != nil {
				s.close()
				return nil, err
			}
			cfg.DataQoS = wire.QoS1
			cfg.Store = st
			cfg.CheckpointInterval = checkpointEvery
		}
		m := core.NewModule(cfg)
		if ms.actuator != nil {
			m.RegisterActuator(ms.actuator)
		}
		if err := m.Start(); err != nil {
			s.close()
			return nil, fmt.Errorf("start module %s: %w", ms.id, err)
		}
		s.modules = append(s.modules, m)
	}
	deadline := time.Now().Add(setupTimeout)
	for len(s.manager.Modules()) < len(mods) {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("only %d of %d modules announced", len(s.manager.Modules()), len(mods))
		}
		time.Sleep(time.Millisecond)
	}
	s.phases.announce = time.Since(began)
	return s, nil
}

func (s *stack) newRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	s.registries = append(s.registries, r)
	return r
}

func (s *stack) openStore(name string, o store.Options) (*store.FileStore, error) {
	dir := filepath.Join(s.opts.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, o)
	if err != nil {
		return nil, fmt.Errorf("open store %s: %w", dir, err)
	}
	s.stores = append(s.stores, st)
	return st, nil
}

// deploy submits the recipe through the manager and waits until every
// subtask reports started.
func (s *stack) deploy(rec *recipe.Recipe) error {
	began := time.Now()
	dep, err := s.manager.Deploy(rec)
	if err != nil {
		return fmt.Errorf("deploy %s: %w", rec.Name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		return fmt.Errorf("deploy %s: %w (pending %v)", rec.Name, err, dep.PendingTasks())
	}
	s.phases.deploy = time.Since(began)
	return nil
}

// close stops everything the stack started and waits for it: modules,
// manager, broker (whose Close waits for its connection handlers), the
// accept loop, then the stores.
func (s *stack) close() {
	for _, m := range s.modules {
		_ = m.Close()
	}
	if s.manager != nil {
		_ = s.manager.Close()
	}
	if s.broker != nil {
		_ = s.broker.Close()
	}
	if s.listener != nil {
		_ = s.listener.Close()
		<-s.served
	}
	for _, st := range s.stores {
		_ = st.Close()
	}
	if s.opts.durable {
		_ = os.RemoveAll(s.opts.dir)
	}
}

// walStats sums the durable stores' counters (zero without stores).
func (s *stack) walStats() (bytes, fsyncs int64) {
	for _, st := range s.stores {
		bytes += st.WALBytes()
		fsyncs += st.Fsyncs()
	}
	return bytes, fsyncs
}

// gauge reads the largest value any registry of the stack holds for the
// named metric, and the sum across all series of it.
func (s *stack) gauge(name string) (max, sum float64) {
	for _, r := range s.registries {
		for _, smp := range r.Samples() {
			if smp.Name == name {
				sum += smp.Value
				if smp.Value > max {
					max = smp.Value
				}
			}
		}
	}
	return max, sum
}
