// Package broker implements an MQTT 3.1.1 message broker. It is the IFoT
// middleware's Broker class (the paper's prototype used Mosquitto; this is
// a from-scratch conforming replacement supporting QoS 0/1 subscriptions,
// QoS 0/1/2 inbound publishes, retained messages, persistent sessions,
// wills, and `+`/`#` wildcard filters).
package broker

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Errors returned by the broker.
var (
	ErrClosed = errors.New("broker: closed")
)

// Authenticator decides whether a CONNECT with the given credentials is
// accepted. username is empty when the client sent none.
type Authenticator func(clientID, username string, password []byte) bool

// Options configures a Broker. The zero value is usable.
type Options struct {
	// MaxQoS caps the QoS granted to subscriptions (default QoS1).
	MaxQoS wire.QoS
	// Authenticator, when set, gates connections.
	Authenticator Authenticator
	// Logger receives diagnostic messages; nil silences them.
	Logger *log.Logger
	// Registry, when set, receives broker metrics (message counters,
	// per-topic publish counts, connection gauges) for Prometheus/MQTT
	// exposition.
	Registry *telemetry.Registry
	// Store, when set, makes broker state durable: retained messages,
	// persistent sessions (subscriptions, QoS1 inflight/queued messages)
	// are journaled to the store and recovered by Open. The broker does
	// not close the store; the caller that opened it does, after Close.
	// Nil (the default) keeps today's purely in-memory behavior.
	Store store.Store
	// Events, when set, receives structured events for durability
	// degradation (journal append failures, snapshot failures). Share
	// the same log with Store's Options.Events to get WAL recovery
	// events alongside them.
	Events *telemetry.EventLog

	// clock drives the $SYS publisher's ticks and the uptime; nil means
	// the wall clock. The package's tests set a virtual one.
	clock clock.Clock
	// maxPacketSize bounds inbound packets in bytes (default 1 MiB) and
	// sessionQueueSize is the per-connection outbound queue length
	// (default 256). The package's tests shrink or grow them.
	maxPacketSize    int
	sessionQueueSize int
}

func (o Options) withDefaults() Options {
	if o.MaxQoS == 0 {
		o.MaxQoS = wire.QoS1
	}
	if o.MaxQoS > wire.QoS1 {
		o.MaxQoS = wire.QoS1 // outbound QoS2 delivery is not implemented
	}
	if o.maxPacketSize <= 0 {
		o.maxPacketSize = 1 << 20
	}
	if o.sessionQueueSize <= 0 {
		o.sessionQueueSize = 256
	}
	if o.clock == nil {
		o.clock = clock.Real{}
	}
	return o
}

// Stats is a snapshot of broker counters.
type Stats struct {
	ConnectedClients  int
	Sessions          int
	Subscriptions     int
	RetainedMessages  int
	MessagesReceived  int64
	MessagesDelivered int64
	// MessagesDropped counts matched messages that no session accepted
	// or parked, once per subscriber: a QoS 0 message a full queue or an
	// offline session refused, a QoS 1 one for an offline clean session, a
	// parked message trimmed past maxQueuedOffline, and one whose frame
	// could not be encoded.
	MessagesDropped int64
}

type retainedMsg struct {
	payload []byte
	qos     wire.QoS
}

// Broker is an MQTT broker. Create one with New, feed it connections with
// Serve or ServeConn, and stop it with Close.
//
// Locking model (epoch-published routing). A publish never takes mu: it
// read-locks gate (a sync.RWMutex) for its whole length, loads the current
// immutable routeTable snapshot, and routes through the epoch-keyed route
// cache or the zero-alloc snapshot matcher (routes.go). Subscribe,
// unsubscribe, and session churn mutate the sessions' filter maps (the one
// subscription table) under mu, derive a fresh snapshot from them, and swap
// it in under gate's write lock.
//
// The store+route atomicity invariant for retained messages (see publish)
// holds because the write lock excludes every in-flight publish read
// section whole: a subscriber registering inside the fence observes each
// concurrent publish either entirely (retained stored AND fanned out) or
// not at all. The fence covers only the snapshot swap and retained replay;
// snapshot *rebuilding* happens outside it, so publishes keep flowing
// while a large snapshot is built. A waiting writer blocks new readers
// (sync.RWMutex's rule), so subscribes cannot starve under publish load.
//
// Lock order: mu ⊃ gate ⊃ {retainedMu, session.mu}; pubMu is a leaf lock
// a cached publish never takes. mu also guards every session's filter map.
// Counters (received, delivered, retained count, per-topic accounting) are
// atomics so neither the publish path nor the per-connection writer
// goroutines ever take mu.
type Broker struct {
	opts  Options
	start time.Time

	mu        sync.RWMutex
	sessions  map[string]*session // all sessions (connected and parked)
	conns     map[string]net.Conn // live connection per client ID
	listeners []net.Listener
	closed    bool

	// gate fences publish read sections against route-snapshot swaps and
	// retained replay; routes holds the current immutable snapshot and
	// rcache the per-topic, epoch-keyed route memo (see routes.go), whose
	// hits and misses the two counters record.
	gate        sync.RWMutex
	routes      atomic.Pointer[routeTable]
	routeEpoch  atomic.Uint64
	rcache      routeCache
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// retainedMu guards the retained map. Publishes mutate it while
	// holding only gate's read lock, so map access needs this inner
	// mutex; the ordering of store against route is provided by the gate
	// fence (above). retainedCount shadows len(retained) so Stats and
	// $SYS ticks never touch this publish-path lock.
	retainedMu    sync.Mutex
	retained      map[string]retainedMsg
	retainedCount atomic.Int64

	received  atomic.Int64
	delivered atomic.Int64

	// droppedBase holds every drop that no session in the sessions map
	// accounts for: matched subscribers never offered a message because its
	// frame could not be encoded (unroutable topic via the internal Publish
	// API), and the totals of discarded sessions, folded in as they leave
	// the map so Stats().MessagesDropped never runs backwards.
	droppedBase atomic.Int64

	// anonSeq feeds generated client IDs for anonymous clean-session
	// connects. A monotonic counter cannot collide (unlike the previous
	// pointer-formatted IDs, which could recur after allocator reuse and
	// silently take over a live session).
	anonSeq atomic.Uint64

	// pubByTopic counts publishes per topic, bounded to maxPublishTopics
	// distinct keys (overflow lands in overflowTopicKey) so an adversarial
	// topic stream cannot grow broker memory or metric cardinality.
	// pubMu is read-locked to find an existing counter (the common case);
	// the write lock is taken only to install a new topic's counter.
	pubMu      sync.RWMutex
	pubByTopic map[string]*atomic.Int64

	wg sync.WaitGroup

	// persist is non-nil when Options.Store is set; it owns the WAL
	// journal handle and the message-ID sequence (see persist.go).
	persist *persister
}

// maxPublishTopics bounds the per-topic publish accounting (and the
// telemetry series derived from it).
const maxPublishTopics = 64

// overflowTopicKey aggregates publishes on topics beyond maxPublishTopics.
const overflowTopicKey = "~other"

// New creates a broker with the given options. With Options.Store set it
// panics on an unrecoverable store (use Open to handle that error).
func New(opts Options) *Broker {
	b, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return b
}

// Open creates a broker and, when Options.Store is set, recovers durable
// state (retained messages, persistent sessions, QoS1 queues) from it
// before any connection is accepted.
func Open(opts Options) (*Broker, error) {
	opts = opts.withDefaults()
	b := &Broker{
		opts:       opts,
		start:      opts.clock.Now(),
		sessions:   make(map[string]*session),
		conns:      make(map[string]net.Conn),
		retained:   make(map[string]retainedMsg),
		pubByTopic: make(map[string]*atomic.Int64),
	}
	if b.opts.Registry != nil {
		b.registerMetrics(b.opts.Registry)
	}
	if st := b.opts.Store; st != nil {
		if err := b.openJournal(st); err != nil {
			return nil, err
		}
	}
	// Publish the initial route snapshot (covering any recovered
	// subscriptions) before a connection or internal publisher can route.
	b.routes.Store(buildRoutes(b.sessions, b.routeEpoch.Add(1)))
	return b, nil
}

// Uptime reports how long ago the broker was created.
func (b *Broker) Uptime() time.Duration { return b.opts.clock.Now().Sub(b.start) }

// registerMetrics exposes the broker's state on reg as callbacks: the
// message series read the counts Stats reports, so the registry, $SYS and
// the benchmark see one count per fact. The per-topic series, which read
// what PublishCounts reports, are registered as topicCounter installs
// their counters.
func (b *Broker) registerMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("ifot_broker_messages_received_total", "PUBLISH packets received from clients",
		b.received.Load)
	reg.CounterFunc("ifot_broker_messages_delivered_total", "PUBLISH packets written to subscriber connections",
		b.delivered.Load)
	reg.CounterFunc("ifot_broker_messages_dropped_total", "matched messages no session accepted or parked (full queue, QoS 0 to an offline session, parked-window overflow, unencodable)",
		func() int64 { return b.Stats().MessagesDropped })
	reg.GaugeFunc("ifot_broker_clients_connected", "currently connected clients",
		func() float64 { return float64(b.Stats().ConnectedClients) })
	reg.GaugeFunc("ifot_broker_sessions", "sessions including parked persistent ones",
		func() float64 { return float64(b.Stats().Sessions) })
	reg.GaugeFunc("ifot_broker_subscriptions", "active subscriptions",
		func() float64 { return float64(b.Stats().Subscriptions) })
	reg.GaugeFunc("ifot_broker_retained_messages", "retained messages stored",
		func() float64 { return float64(b.Stats().RetainedMessages) })
	reg.GaugeFunc("ifot_broker_uptime_seconds", "seconds since the broker was created",
		func() float64 { return b.Uptime().Seconds() })
	reg.GaugeFunc("ifot_broker_route_epoch", "monotonic routing snapshot epoch; bumps on every subscription or session-churn swap",
		func() float64 { return float64(b.RouteEpoch()) })
	reg.CounterFunc("ifot_broker_route_cache_hits_total", "publishes routed from the epoch-keyed route cache",
		b.cacheHits.Load)
	reg.CounterFunc("ifot_broker_route_cache_misses_total", "publishes that matched against the route snapshot (cold or stale cache entry)",
		b.cacheMisses.Load)
}

// RouteEpoch returns the epoch of the current routing snapshot. It bumps
// on every subscribe, unsubscribe, and route-affecting session change.
func (b *Broker) RouteEpoch() uint64 { return b.routes.Load().epoch }

// RouteCacheStats returns cumulative route-cache hit/miss counts.
func (b *Broker) RouteCacheStats() (hits, misses int64) {
	return b.cacheHits.Load(), b.cacheMisses.Load()
}

// Serve accepts connections from l until the broker or listener is closed.
func (b *Broker) Serve(l net.Listener) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.listeners = append(b.listeners, l)
	b.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			b.mu.RLock()
			closed := b.closed
			b.mu.RUnlock()
			if closed {
				return ErrClosed
			}
			return fmt.Errorf("broker accept: %w", err)
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.handleConn(conn)
		}()
	}
}

// ServeConn runs the MQTT protocol on a single already-accepted connection,
// returning when the connection ends. It is useful with in-memory pipes.
func (b *Broker) ServeConn(conn net.Conn) {
	b.wg.Add(1)
	defer b.wg.Done()
	b.handleConn(conn)
}

// Close stops all listeners, disconnects every client, and waits for the
// connection handlers to finish.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	listeners := b.listeners
	conns := make([]net.Conn, 0, len(b.conns))
	for _, c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()

	for _, l := range listeners {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	b.wg.Wait()
	if b.persist != nil {
		// Stop the snapshot goroutine. The store itself (and its final
		// flush/fsync) belongs to whoever opened it.
		b.persist.journal.Close()
	}
	return nil
}

// Stats returns a snapshot of broker counters. It touches no publish-path
// lock at all — subscription and retained counts come from the immutable
// route snapshot and an atomic gauge — so a slow or frequent metrics
// scrape never stalls concurrent publishes.
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	dropped := b.droppedBase.Load()
	for _, s := range b.sessions {
		dropped += s.dropped()
	}
	return Stats{
		ConnectedClients:  len(b.conns),
		Sessions:          len(b.sessions),
		Subscriptions:     b.routes.Load().subCount,
		RetainedMessages:  int(b.retainedCount.Load()),
		MessagesReceived:  b.received.Load(),
		MessagesDelivered: b.delivered.Load(),
		MessagesDropped:   dropped,
	}
}

func (b *Broker) logf(format string, args ...any) {
	if b.opts.Logger != nil {
		b.opts.Logger.Printf(format, args...)
	}
}

// handleConn drives one client connection through CONNECT and the steady
// state loop.
func (b *Broker) handleConn(conn net.Conn) {
	defer conn.Close()

	// One packet reader serves CONNECT and the steady state alike, so
	// packets a client pipelines behind its CONNECT are not lost and a burst
	// of small packets costs one read. Deadlines stay on conn.
	rd := b.newConnReader(conn)

	// The first packet must be CONNECT; give slow clients 10 seconds.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	pkt, err := rd.ReadPacket()
	if err != nil {
		return
	}
	connect, ok := pkt.(*wire.ConnectPacket)
	if !ok {
		return
	}
	if connect.ProtocolLevel != wire.ProtocolLevel311 && connect.ProtocolLevel != wire.ProtocolLevel31 {
		_ = wire.WritePacket(conn, &wire.ConnackPacket{Code: wire.ConnRefusedVersion})
		return
	}
	if connect.ClientID == "" && !connect.CleanSession {
		_ = wire.WritePacket(conn, &wire.ConnackPacket{Code: wire.ConnRefusedIdentifier})
		return
	}
	if connect.ClientID == "" {
		connect.ClientID = fmt.Sprintf("anon-%d", b.anonSeq.Add(1))
	}
	if b.opts.Authenticator != nil && !b.opts.Authenticator(connect.ClientID, connect.Username, connect.Password) {
		_ = wire.WritePacket(conn, &wire.ConnackPacket{Code: wire.ConnRefusedBadAuth})
		return
	}

	sess, sessionPresent, err := b.registerSession(connect, conn)
	if err != nil {
		return
	}
	outbound, resend, gen := sess.attach(b.opts.sessionQueueSize)

	if err := wire.WritePacket(conn, &wire.ConnackPacket{SessionPresent: sessionPresent, Code: wire.ConnAccepted}); err != nil {
		b.unregisterConn(sess, conn, gen)
		return
	}
	b.logf("broker: client %q connected (persistent=%v)", sess.clientID, sess.persistent)

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		b.writeLoop(conn, outbound, resend)
	}()

	will := willOf(connect)
	normal := b.readLoop(conn, rd, sess, connect.KeepAlive)

	// Tear down: detach so no further deliveries target this connection
	// (which closes the queue, the writer's one exit), and close the socket
	// so a writer blocked in a write errors out and drains to that close.
	b.unregisterConn(sess, conn, gen)
	_ = conn.Close()
	<-writerDone

	if !normal && will != nil {
		// The unified path also honors WillRetain (spec 3.1.2-17): the
		// will is stored retained before fan-out, atomically.
		b.publish(will, nil)
	}
	b.logf("broker: client %q disconnected (graceful=%v)", sess.clientID, normal)
}

// willOf extracts the will message from a CONNECT, if any.
func willOf(c *wire.ConnectPacket) *wire.PublishPacket {
	if !c.WillFlag {
		return nil
	}
	return &wire.PublishPacket{
		Topic:   c.WillTopic,
		Payload: c.WillMessage,
		QoS:     c.WillQoS,
		Retain:  c.WillRetain,
	}
}

// registerSession creates or revives the session for a CONNECT, taking over
// any existing connection with the same client ID.
func (b *Broker) registerSession(connect *wire.ConnectPacket, conn net.Conn) (*session, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, false, ErrClosed
	}

	if old, ok := b.conns[connect.ClientID]; ok {
		// Session takeover (spec 3.1.4): disconnect the existing client.
		_ = old.Close()
		delete(b.conns, connect.ClientID)
	}

	sess, existed := b.sessions[connect.ClientID]
	sessionPresent := existed && !connect.CleanSession
	if !sessionPresent {
		var rerouted bool
		if sess, rerouted = b.openSessionLocked(connect.ClientID, !connect.CleanSession); rerouted {
			// The discarded session held filters; retire them from the
			// published snapshot too.
			b.swapRoutesLocked()
		}
	}
	b.conns[connect.ClientID] = conn
	return sess, sessionPresent, nil
}

// unregisterConn detaches a finished connection and discards clean-session
// state.
func (b *Broker) unregisterConn(sess *session, conn net.Conn, gen uint64) {
	sess.detach(gen)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.conns[sess.clientID] == conn {
		delete(b.conns, sess.clientID)
		if !sess.persistent && b.dropSessionLocked(sess) {
			b.swapRoutesLocked()
		}
	}
}

// swapRoutesLocked rebuilds the route snapshot from the sessions' filter
// maps and publishes it under the gate fence. Callers hold b.mu. The
// rebuild runs outside the fence — publishes flow (against the old
// snapshot) while it is built; only the pointer swap excludes them.
func (b *Broker) swapRoutesLocked() {
	tbl := buildRoutes(b.sessions, b.routeEpoch.Add(1))
	b.gate.Lock()
	b.routes.Store(tbl)
	b.gate.Unlock()
}

// readLoop processes inbound packets until the connection ends. It reports
// whether the client disconnected gracefully (DISCONNECT packet). The
// PUBLISH and ack values rd returns are reused by its next read, so nothing
// here or below keeps them: fanout copies a QoS 1 delivery's fields and
// retainLocked copies the payload.
func (b *Broker) readLoop(conn net.Conn, rd *wire.Reader, sess *session, keepAlive uint16) (graceful bool) {
	for {
		if keepAlive > 0 {
			deadline := time.Duration(keepAlive) * time.Second * 3 / 2
			_ = conn.SetReadDeadline(time.Now().Add(deadline))
		} else {
			_ = conn.SetReadDeadline(time.Time{})
		}
		pkt, err := rd.ReadPacket()
		if err != nil {
			return false
		}
		switch p := pkt.(type) {
		case *wire.PublishPacket:
			b.handlePublish(sess, p, rd.Frame())
		case *wire.AckPacket:
			switch p.PacketType {
			case wire.PUBACK:
				sess.ack(p.PacketID)
			case wire.PUBREL:
				sess.releaseIncomingQoS2(p.PacketID)
				sess.send(&wire.AckPacket{PacketType: wire.PUBCOMP, PacketID: p.PacketID})
			case wire.PUBREC, wire.PUBCOMP:
				// Outbound QoS2 is never generated; ignore.
			}
		case *wire.SubscribePacket:
			b.handleSubscribe(sess, p)
		case *wire.UnsubscribePacket:
			b.handleUnsubscribe(sess, p)
		case *wire.PingreqPacket:
			sess.send(&wire.PingrespPacket{})
		case *wire.DisconnectPacket:
			return true
		case *wire.ConnectPacket:
			// Second CONNECT is a protocol violation (spec 3.1.0-2).
			return false
		default:
			return false
		}
	}
}

// handlePublish acks and routes an inbound PUBLISH; frame is its forward
// frame (wire.Reader.Frame), or nil.
func (b *Broker) handlePublish(sess *session, p *wire.PublishPacket, frame []byte) {
	b.received.Add(1)

	deliver := true
	switch p.QoS {
	case wire.QoS1:
		sess.send(&wire.AckPacket{PacketType: wire.PUBACK, PacketID: p.PacketID})
	case wire.QoS2:
		deliver = sess.markIncomingQoS2(p.PacketID)
		sess.send(&wire.AckPacket{PacketType: wire.PUBREC, PacketID: p.PacketID})
	}
	if !deliver {
		return
	}
	b.publish(p, frame)
}

// Publish injects a message into the broker as if published by an internal
// client — the path the $SYS publisher and telemetry exporters use.
func (b *Broker) Publish(topic string, payload []byte, qos wire.QoS, retain bool) {
	b.publish(&wire.PublishPacket{Topic: topic, Payload: payload, QoS: qos, Retain: retain}, nil)
}

// publish is the broker's single publish path. The whole operation runs
// under gate's read lock, routing against the immutable snapshot current
// for that section. Retained-message storage and subscriber fan-out happen
// under the same read section, keeping store+route atomic against
// subscribes: handleSubscribe swaps in its new snapshot and replays
// retained messages under gate's *write* lock, which excludes every
// in-flight publish read section in its entirety, so a client subscribing
// concurrently with a stream of retained publishes can never observe the
// live stream going backwards relative to the retained snapshot it was
// replayed. Concurrent publishes proceed in parallel — MQTT orders
// messages per publisher connection only, and each publisher's own
// publishes stay ordered because its read section completes before it
// issues the next. (session.deliver is a non-blocking queue insert and
// never acquires Broker.mu, so a fenced writer is only ever waiting on
// queue inserts and buffered WAL appends.)
//
// Routing itself is a single lock-free cache probe on the hot repeat-topic
// path (topic → matched set, keyed on the snapshot epoch, carrying the
// topic's accounting counter so even pubMu is skipped); a miss falls back
// to the snapshot's zero-alloc matcher and refreshes the cache.
//
// Deliveries whose effective QoS is 0 — the identical frame for every such
// subscriber — share one byte slice instead of per-subscriber packet
// allocation and re-encoding: frame, the publish's own frame as it was
// read, when the caller has one, else one encoded on first need. QoS1
// deliveries still carry a packet per subscriber, since each session
// assigns its own packet ID. Brokers may loop messages back to the
// publisher; MQTT allows it.
func (b *Broker) publish(p *wire.PublishPacket, frame []byte) {
	b.gate.RLock()
	if p.Retain {
		b.retainedMu.Lock()
		b.retainLocked(p.Topic, p.Payload, p.QoS)
		b.retainedMu.Unlock()
	}

	snap := b.routes.Load()
	var subs []routeSub
	var tc *atomic.Int64
	var valid bool
	if v := b.rcache.lookup(p.Topic, snap.epoch); v != nil {
		b.cacheHits.Add(1)
		subs, tc, valid = v.subs, v.tc, v.valid
	} else {
		b.cacheMisses.Add(1)
		mb := getMatchBuf()
		matched := snap.match(p.Topic, mb)
		tc = b.topicCounter(p.Topic)
		valid = wire.ValidateTopicName(p.Topic) == nil
		subs = b.rcache.store(p.Topic, snap.epoch, matched, tc, valid)
		mb.release()
	}
	if tc != nil {
		tc.Add(1)
	}

	switch {
	case len(subs) == 0:
	case !valid:
		// Unroutable topic (possible only via the internal Publish API):
		// no frame can be encoded for it, so every matched subscriber —
		// including QoS1 ones, which previously got a packet whose encode
		// failure killed their connection — misses this message. Count
		// them all as dropped.
		b.droppedBase.Add(int64(len(subs)))
	default:
		b.fanout(p, subs, frame)
	}
	b.gate.RUnlock()
}

// fanout delivers to each matched subscriber on the publisher's own
// goroutine; the sessions count their own drops. frame is the shared QoS0
// frame; when nil, it is encoded on first need.
func (b *Broker) fanout(p *wire.PublishPacket, subs []routeSub, frame []byte) {
	for i, sub := range subs {
		qos := minQoS(p.QoS, sub.qos)
		// Retain flag is false on normal routed deliveries (spec
		// 3.3.1-9); it is true only for retained replay at subscribe
		// time.
		if qos == wire.QoS0 {
			if frame == nil {
				var err error
				frame, err = wire.AppendEncodePublish(nil, p.Topic, p.Payload)
				if err != nil {
					// Unencodable message (oversized payload; invalid
					// topics were already rejected before fan-out): every
					// remaining matched subscriber misses this message,
					// so count them all — not just one — as dropped.
					b.droppedBase.Add(int64(len(subs) - i))
					return
				}
			}
			sub.session.deliverFrame(frame)
			continue
		}
		sub.session.deliver(&wire.PublishPacket{Topic: p.Topic, Payload: p.Payload, QoS: qos})
	}
}

// writerBufSize is the per-connection outbound coalescing buffer. 64 KiB
// quarters the flush syscalls of the previous 16 KiB under saturating
// QoS0 fan-out while staying a modest per-connection cost.
const writerBufSize = 64 << 10

// readerBufSize is the per-connection inbound buffer: bufio's default. It
// holds some hundred sensor-sized PUBLISH frames per read; a larger packet
// bypasses it and is read straight into its own body.
const readerBufSize = 4 << 10

// newConnReader returns the packet reader of one client connection. It
// forwards: a QoS 0 PUBLISH arrives as the frame fanout shares.
func (b *Broker) newConnReader(conn io.Reader) *wire.Reader {
	return wire.NewReader(bufio.NewReaderSize(conn, readerBufSize), b.opts.maxPacketSize, true)
}

// writeLoop is a connection's writer goroutine, the only code that writes
// to conn after CONNACK. It first writes resend — the QoS1 redelivery attach
// returned, already tracked in the session's window — straight into the
// buffered writer and flushes: a backlog of up to maxQueuedOffline messages
// must not pass through the (smaller, non-blocking) session queue, and must
// still precede anything delivered after attach. Then it drains the queue,
// flushing only when the queue is momentarily empty (Mosquitto-style
// corking): k packets queued back-to-back coalesce into one syscall instead
// of k, and the delivery counter is bumped once per drained batch instead of
// once per message. Its one exit is the close of the queue (detach, or a
// takeover's attach); after a write error it keeps draining until then, so
// a dead connection swallows what is sent to it as a dead socket would —
// QoS1 messages stay inflight for the next attach instead of piling up
// against a full queue as drops.
func (b *Broker) writeLoop(conn net.Conn, outbound <-chan outPacket, resend []*wire.PublishPacket) {
	bw := bufio.NewWriterSize(conn, writerBufSize)
	var err error
	var batch int64
	for _, p := range resend {
		if err = wire.WritePacket(bw, p); err != nil {
			break
		}
		batch++
	}
	b.noteDelivered(batch)
	if err == nil {
		err = bw.Flush()
	}
	for op := range outbound {
		if err != nil {
			continue
		}
		batch = 0
		for more := true; more; {
			var n int64
			if n, err = b.writeOut(bw, op); err != nil {
				break
			}
			batch += n
			select {
			case op, more = <-outbound:
			default:
				more = false
			}
		}
		b.noteDelivered(batch)
		if err == nil {
			err = bw.Flush()
		}
	}
}

// writeOut serializes one outbound item into the connection's buffered
// writer, reporting how many application messages it wrote (0 or 1) so
// the writer loop can bump the delivery counters once per batch.
func (b *Broker) writeOut(bw *bufio.Writer, op outPacket) (int64, error) {
	if op.frame != nil {
		if _, err := bw.Write(op.frame); err != nil {
			return 0, err
		}
		return 1, nil
	}
	if err := wire.WritePacket(bw, op.pkt); err != nil {
		return 0, err
	}
	if op.pkt.Type() == wire.PUBLISH {
		return 1, nil
	}
	return 0, nil
}

func (b *Broker) noteDelivered(n int64) {
	if n == 0 {
		return
	}
	b.delivered.Add(n)
}

// topicCounter resolves the (bounded) per-topic publish counter for topic,
// installing one on first sight; it returns nil for broker-internal topics
// ($SYS, …) so self-statistics never feed back into the statistics. The
// publish path calls it only on route-cache misses — the counter pointer
// rides in the cache entry, so steady-state publishes bump it with a plain
// atomic add and never touch pubMu at all.
func (b *Broker) topicCounter(topic string) *atomic.Int64 {
	if strings.HasPrefix(topic, "$") {
		return nil
	}
	b.pubMu.RLock()
	tc, ok := b.pubByTopic[topic]
	b.pubMu.RUnlock()
	if ok {
		return tc
	}
	b.pubMu.Lock()
	defer b.pubMu.Unlock()
	key := topic
	tc, ok = b.pubByTopic[key]
	if !ok && len(b.pubByTopic) >= maxPublishTopics {
		key = overflowTopicKey
		tc, ok = b.pubByTopic[key]
	}
	if !ok {
		tc = new(atomic.Int64)
		if reg := b.opts.Registry; reg != nil {
			reg.CounterFunc("ifot_broker_publish_total",
				"publishes routed per topic (bounded cardinality)", tc.Load, telemetry.L("topic", key))
		}
		b.pubByTopic[key] = tc
	}
	return tc
}

// PublishCounts snapshots the bounded per-topic publish counters. Like
// Stats, it never takes a write lock, so scraping cannot stall publishes.
func (b *Broker) PublishCounts() map[string]int64 {
	b.pubMu.RLock()
	defer b.pubMu.RUnlock()
	out := make(map[string]int64, len(b.pubByTopic))
	for k, tc := range b.pubByTopic {
		out[k] = tc.Load()
	}
	return out
}

func (b *Broker) handleSubscribe(sess *session, p *wire.SubscribePacket) {
	codes := make([]byte, len(p.Subscriptions))

	// Snapshot swap and retained replay happen under one hold of gate's
	// write lock, which excludes every publish read section whole (spec
	// 3.3.1-6 replay consistency): the replayed snapshot reflects exactly
	// the publishes whose store+route completed against the old routing
	// snapshot, and every later publish routes against the new one and
	// delivers live. The live stream can therefore never run behind the
	// replay. The filter-map writes and the snapshot rebuild stay outside
	// the fence (under mu only) so publishes flow during the build.
	b.mu.Lock()
	for i, sub := range p.Subscriptions {
		granted := minQoS(sub.QoS, b.opts.MaxQoS)
		b.subscribeLocked(sess, sub.TopicFilter, granted)
		codes[i] = byte(granted)
	}
	tbl := buildRoutes(b.sessions, b.routeEpoch.Add(1))
	b.gate.Lock()
	b.routes.Store(tbl)
	// SUBACK follows the swap, so whoever has seen it is already routed to,
	// and precedes retained replay in the session queue (spec 3.8.4).
	sess.send(&wire.SubackPacket{PacketID: p.PacketID, ReturnCodes: codes})
	b.retainedMu.Lock()
	for i, sub := range p.Subscriptions {
		for topic, msg := range b.retained {
			if wire.MatchTopic(sub.TopicFilter, topic) {
				sess.deliver(&wire.PublishPacket{
					Topic:   topic,
					Payload: msg.payload,
					QoS:     minQoS(msg.qos, wire.QoS(codes[i])),
					Retain:  true,
				})
			}
		}
	}
	b.retainedMu.Unlock()
	b.gate.Unlock()
	b.mu.Unlock()
}

func (b *Broker) handleUnsubscribe(sess *session, p *wire.UnsubscribePacket) {
	b.mu.Lock()
	removed := false
	for _, f := range p.TopicFilters {
		if b.unsubscribeLocked(sess, f) {
			removed = true
		}
	}
	if removed {
		b.swapRoutesLocked()
	}
	b.mu.Unlock()
	sess.send(&wire.AckPacket{PacketType: wire.UNSUBACK, PacketID: p.PacketID})
}

func minQoS(a, b wire.QoS) wire.QoS {
	if a < b {
		return a
	}
	return b
}
