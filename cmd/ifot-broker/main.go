// Command ifot-broker runs the IFoT flow-distribution broker: an MQTT 3.1.1
// server (the role Mosquitto played in the paper's prototype).
//
// Usage:
//
//	ifot-broker [-addr :1883] [-max-qos 1] [-telemetry :9090] [-data-dir /var/lib/ifot] [-v]
//
// With -data-dir set, retained messages, persistent sessions, and queued
// QoS 1 messages are journaled to a write-ahead log in that directory and
// recovered on restart.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ifot-middleware/ifot/internal/bridge"
	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ifot-broker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":1883", "TCP listen address")
		maxQoS    = flag.Int("max-qos", 1, "maximum QoS granted to subscriptions (0 or 1)")
		verbose   = flag.Bool("v", false, "log connection events")
		telAddr   = flag.String("telemetry", "", "HTTP address serving /metrics and /debug/pprof (empty = off)")
		stats     = flag.Duration("stats", 0, "print broker stats at this interval (0 = off)")
		bridgeTo  = flag.String("bridge", "", "remote broker address to bridge with")
		dataDir   = flag.String("data-dir", "", "directory for the durability WAL (empty = in-memory only)")
		syncDelay = flag.Duration("wal-sync-delay", 5*time.Millisecond, "group-commit fsync window for the WAL")
		eventCap  = flag.Int("event-capacity", telemetry.DefaultEventCapacity, "structured events retained for the local /events endpoint")
		eventExp  = flag.Duration("event-export", time.Second, "interval for publishing events on ifot/ctrl/events/ifot-broker (0 = no export)")
		bridgeOut stringsFlag
		bridgeIn  stringsFlag
	)
	flag.Var(&bridgeOut, "bridge-out", "topic filter forwarded to the remote broker (repeatable)")
	flag.Var(&bridgeIn, "bridge-in", "topic filter pulled from the remote broker (repeatable)")
	flag.Parse()

	const brokerID = "ifot-broker"
	opts := broker.Options{MaxQoS: wire.QoS(*maxQoS)}
	if *verbose {
		opts.Logger = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	}
	if *telAddr != "" {
		opts.Registry = telemetry.NewRegistry()
	}
	// One event log shared between the store and the broker, so WAL
	// recovery events from store.Open and persistence-degradation events
	// land in the same ring and export stream.
	events := telemetry.NewEventLog(*eventCap)
	if *eventExp > 0 {
		events.SetExportBuffer(0)
	}
	events.BindRegistry(opts.Registry, telemetry.L("module", brokerID))
	opts.Events = events
	if *dataDir != "" {
		st, err := store.Open(*dataDir, store.Options{
			Name:      "broker",
			SyncDelay: *syncDelay,
			Registry:  opts.Registry,
			Logger:    opts.Logger,
			Events:    events,
		})
		if err != nil {
			return fmt.Errorf("open data dir %s: %w", *dataDir, err)
		}
		defer st.Close()
		opts.Store = st
	}
	b, err := broker.Open(opts)
	if err != nil {
		return fmt.Errorf("recover broker state: %w", err)
	}
	if st, ok := opts.Store.(*store.FileStore); ok {
		log.Printf("durability on: %s (recovered in %s)", *dataDir, st.RecoveryDuration())
	}
	if *telAddr != "" {
		bound, shutdown, err := telemetry.StartServer(*telAddr, opts.Registry, nil, events)
		if err != nil {
			return err
		}
		defer func() { _ = shutdown(context.Background()) }()
		log.Printf("telemetry on http://%s/metrics", bound)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("ifot-broker listening on %s (max QoS %d)", l.Addr(), *maxQoS)

	if *eventExp > 0 {
		// The broker injects its own event batches directly into the
		// routing path (no client loopback needed), so a management node
		// or `ifot-bench -events` tail sees broker-side events too.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(*eventExp)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if payload := events.ExportBatch(brokerID, time.Now()); payload != nil {
						b.Publish(core.TopicEventsPrefix+brokerID, payload, wire.QoS0, false)
					}
				case <-stop:
					return
				}
			}
		}()
	}

	if *stats > 0 {
		// Publish Mosquitto-style $SYS/broker/# statistics and log them.
		stop := make(chan struct{})
		defer close(stop)
		b.PublishSysStats(*stats, stop)
		go func() {
			for range time.Tick(*stats) {
				s := b.Stats()
				log.Printf("stats: clients=%d sessions=%d subs=%d retained=%d in=%d out=%d dropped=%d",
					s.ConnectedClients, s.Sessions, s.Subscriptions, s.RetainedMessages,
					s.MessagesReceived, s.MessagesDelivered, s.MessagesDropped)
			}
		}()
	}

	if *bridgeTo != "" {
		routes := make([]bridge.Route, 0, len(bridgeOut)+len(bridgeIn))
		for _, f := range bridgeOut {
			routes = append(routes, bridge.Route{Filter: f, Direction: bridge.Out, QoS: wire.QoS1})
		}
		for _, f := range bridgeIn {
			routes = append(routes, bridge.Route{Filter: f, Direction: bridge.In, QoS: wire.QoS1})
		}
		localAddr := l.Addr().String()
		remoteAddr := *bridgeTo
		br, err := bridge.NewBridge(bridge.Config{
			Name:       "bridge-" + localAddr,
			DialLocal:  func() (net.Conn, error) { return net.Dial("tcp", localAddr) },
			DialRemote: func() (net.Conn, error) { return net.Dial("tcp", remoteAddr) },
			Routes:     routes,
		})
		if err != nil {
			return err
		}
		defer br.Close()
		log.Printf("bridging with %s (%d routes)", remoteAddr, len(routes))
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("shutting down")
		_ = b.Close()
	}()

	if err := b.Serve(l); err != nil && err != broker.ErrClosed {
		return err
	}
	return nil
}

type stringsFlag []string

func (s *stringsFlag) String() string { return fmt.Sprint([]string(*s)) }

func (s *stringsFlag) Set(v string) error {
	*s = append(*s, v)
	return nil
}
