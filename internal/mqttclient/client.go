// Package mqttclient implements an MQTT 3.1.1 client used by the IFoT
// Publish and Subscribe classes. It supports QoS 0/1 publishing with
// acknowledgement tracking, wildcard subscriptions with per-subscription
// handlers, keep-alive pings, wills, and clean/persistent sessions.
package mqttclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Errors returned by the client.
var (
	ErrConnRefused  = errors.New("mqttclient: connection refused")
	ErrClosed       = errors.New("mqttclient: closed")
	ErrAckTimeout   = errors.New("mqttclient: acknowledgement timeout")
	ErrSubRejected  = errors.New("mqttclient: subscription rejected")
	ErrNotConnected = errors.New("mqttclient: not connected")
)

// Message is an application message received from the broker.
type Message struct {
	Topic   string
	Payload []byte
	QoS     wire.QoS
	Retain  bool
	Dup     bool
}

// Handler consumes received messages. Each handler registration gets its
// own bounded FIFO dispatch lane with a dedicated goroutine: messages for
// one registration are delivered sequentially in arrival order (MQTT's
// per-subscription ordering guarantee), but distinct registrations run
// concurrently — a slow handler on one subscription does not stall the
// others beyond its lane bound. A handler function registered under several
// filters may therefore be invoked concurrently and must be safe for
// concurrent use.
type Handler func(Message)

// Options configures a client connection.
type Options struct {
	// ClientID identifies the session; required unless CleanSession.
	ClientID string
	// CleanSession requests a fresh session (default true via NewOptions).
	CleanSession bool
	// KeepAlive is the keep-alive interval; zero disables pings.
	KeepAlive time.Duration
	// AckTimeout bounds waits for PUBACK/SUBACK/UNSUBACK (default 10s),
	// counted from when the packet has been written. A wait fails with
	// ErrAckTimeout no earlier than AckTimeout and no later than one sweep
	// period, a tenth of AckTimeout, after that.
	AckTimeout time.Duration
	// DispatchBuffer sizes the reader's dispatch queue and each handler
	// registration's lane (default 256). A full lane applies backpressure:
	// the dispatcher waits for space, eventually stalling the connection
	// reader (and thus TCP); nothing is dropped.
	DispatchBuffer int
	// Will, when set, is registered as the connection's will message.
	Will *Message
	// Username/Password are optional credentials.
	Username string
	Password []byte
	// MaxPacketSize bounds inbound packets (default 1 MiB).
	MaxPacketSize int
	// OnDisconnect, when set, is invoked once when the connection ends
	// for any reason other than an explicit Disconnect call.
	OnDisconnect func(error)
	// OnBeforeDisconnect, when set, is invoked at the start of an
	// explicit Disconnect, while the connection is still usable — a last
	// chance to flush buffered state (e.g. pending trace spans) before
	// the DISCONNECT packet goes out.
	OnBeforeDisconnect func()
	// DefaultHandler, when set, receives messages that match no
	// registered subscription handler (e.g. persistent-session messages
	// replayed before Subscribe re-registers its handler).
	DefaultHandler Handler
	// Registry, when set, receives client metrics: publish/receive
	// counters and a QoS1 publish→PUBACK round-trip histogram.
	Registry *telemetry.Registry

	// clock drives keep-alive pings and ack timeouts; nil means the wall
	// clock. The package's tests set a virtual one.
	clock clock.Clock
}

// NewOptions returns Options with sensible defaults for the given client ID.
func NewOptions(clientID string) Options {
	return Options{
		ClientID:     clientID,
		CleanSession: true,
		KeepAlive:    30 * time.Second,
	}
}

// readBufSize is the connection's inbound buffer (bufio's default): a burst
// of small packets costs one read; a larger packet bypasses the buffer.
const readBufSize = 4 << 10

// sweepsPerAckTimeout is how often per AckTimeout the timer loop looks for
// overdue acks: a timeout fires at most AckTimeout/sweepsPerAckTimeout late.
const sweepsPerAckTimeout = 10

// maxFrameBuf bounds the frame buffer a client keeps between frames, so
// one oversized payload does not pin its memory.
const maxFrameBuf = 64 << 10

func (o Options) withDefaults() Options {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 10 * time.Second
	}
	if o.clock == nil {
		o.clock = clock.Real{}
	}
	if o.DispatchBuffer <= 0 {
		o.DispatchBuffer = 256
	}
	if o.MaxPacketSize <= 0 {
		o.MaxPacketSize = 1 << 20
	}
	return o
}

// lane is one handler registration's bounded FIFO dispatch queue, drained
// by a dedicated goroutine so registrations never head-of-line block each
// other. depth tracks queued-but-unhandled messages.
type lane struct {
	ch       chan Message
	quit     chan struct{}
	quitOnce sync.Once
	depth    atomic.Int64
}

func (l *lane) stop() { l.quitOnce.Do(func() { close(l.quit) }) }

type subscription struct {
	id     int64
	filter string
	lane   *lane
}

// HandlerRegistration identifies one registered handler so it can be
// removed without disturbing other handlers sharing the same filter.
type HandlerRegistration struct {
	client *Client
	id     int64
	filter string
}

// Filter reports the topic filter this registration was made under.
func (r *HandlerRegistration) Filter() string { return r.filter }

// Remove detaches just this handler and stops its lane; messages still
// queued in the lane are discarded. No broker traffic is generated; call
// Client.Unsubscribe when the filter itself is no longer needed.
func (r *HandlerRegistration) Remove() {
	r.client.mu.Lock()
	defer r.client.mu.Unlock()
	kept := r.client.subs[:0]
	for _, s := range r.client.subs {
		if s.id != r.id {
			kept = append(kept, s)
		} else {
			s.lane.stop()
		}
	}
	r.client.subs = kept
}

// waiter is one QoS>0 PUBLISH, SUBSCRIBE or UNSUBSCRIBE awaiting its ack.
// It sits in Client.pending until exactly one of the reader (ack or
// connection end) or the timer loop (deadline passed) removes it, and that
// remover sends the one result on ch while still holding Client.mu. So a
// waiter whose result has been received is out of pending with ch empty,
// and it goes back on Client.free: an ack arriving late for its old packet
// ID finds nothing to complete.
type waiter struct {
	ch       chan ackResult // capacity 1
	deadline time.Time      // zero until the packet has been written
}

// ackResult is what a waiter receives. It holds the ack by value: the
// reader's decoded packets are reused by its next read.
type ackResult struct {
	typ   wire.PacketType // PUBACK, PUBCOMP, SUBACK or UNSUBACK
	codes []byte          // a SUBACK's return codes
	err   error
}

// Client is an MQTT client bound to one connection. Use Connect to create
// one; all methods are safe for concurrent use.
type Client struct {
	opts Options
	conn net.Conn
	rd   *wire.Reader // the only reader of conn, from CONNACK on

	writeMu sync.Mutex  // serializes packet writes
	frame   []byte      // QoS 0 PUBLISH and ack frame buffer, under writeMu
	pinging atomic.Bool // a PINGREQ write is in progress

	mu           sync.Mutex
	subs         []subscription
	subID        int64
	pending      map[uint16]*waiter // awaiting acks, keyed by packet ID
	free         []*waiter          // recycled waiters
	nextPacketID uint16
	closed       bool
	closeErr     error

	dispatch    chan Message
	defaultLane *lane         // lane for Options.DefaultHandler (nil if unset)
	done        chan struct{} // closed when the reader exits
	wg          sync.WaitGroup
	laneWg      sync.WaitGroup // lane goroutines; waited after wg

	metrics *clientMetrics
}

// clientMetrics holds the client's telemetry handles (nil when no Registry
// was configured). Series are labeled by client ID so several clients can
// share one registry.
type clientMetrics struct {
	published *telemetry.Counter
	received  *telemetry.Counter
	ackRTT    *telemetry.Histogram
}

func newClientMetrics(reg *telemetry.Registry, clientID string) *clientMetrics {
	id := telemetry.L("client", clientID)
	return &clientMetrics{
		published: reg.Counter("ifot_client_publish_total", "PUBLISH packets sent", id),
		received:  reg.Counter("ifot_client_received_total", "PUBLISH packets received", id),
		ackRTT: reg.Histogram("ifot_client_puback_seconds",
			"QoS1 publish to PUBACK round-trip", nil, id),
	}
}

// Connect establishes an MQTT session over an existing transport
// connection. On success the client owns conn.
func Connect(conn net.Conn, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	connect := &wire.ConnectPacket{
		ClientID:     opts.ClientID,
		CleanSession: opts.CleanSession,
		KeepAlive:    uint16(opts.KeepAlive / time.Second),
	}
	if opts.Will != nil {
		connect.WillFlag = true
		connect.WillTopic = opts.Will.Topic
		connect.WillMessage = opts.Will.Payload
		connect.WillQoS = opts.Will.QoS
		connect.WillRetain = opts.Will.Retain
	}
	if opts.Username != "" {
		connect.HasUsername = true
		connect.Username = opts.Username
	}
	if opts.Password != nil {
		connect.HasPassword = true
		connect.Password = opts.Password
	}

	if err := wire.WritePacket(conn, connect); err != nil {
		return nil, fmt.Errorf("mqttclient connect: %w", err)
	}
	// The broker may send retained replay in the same segment as CONNACK,
	// so the reader that takes CONNACK must be the one readLoop keeps.
	rd := wire.NewReader(bufio.NewReaderSize(conn, readBufSize), opts.MaxPacketSize, false)
	_ = conn.SetReadDeadline(time.Now().Add(opts.AckTimeout))
	pkt, err := rd.ReadPacket()
	if err != nil {
		return nil, fmt.Errorf("mqttclient connack: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	connack, ok := pkt.(*wire.ConnackPacket)
	if !ok {
		return nil, fmt.Errorf("%w: expected CONNACK, got %v", ErrConnRefused, pkt.Type())
	}
	if connack.Code != wire.ConnAccepted {
		return nil, fmt.Errorf("%w: code %d", ErrConnRefused, connack.Code)
	}

	c := &Client{
		opts:     opts,
		conn:     conn,
		rd:       rd,
		pending:  make(map[uint16]*waiter),
		dispatch: make(chan Message, opts.DispatchBuffer),
		done:     make(chan struct{}),
	}
	if opts.Registry != nil {
		c.metrics = newClientMetrics(opts.Registry, opts.ClientID)
	}
	if opts.DefaultHandler != nil {
		c.defaultLane = c.newLane()
		c.laneWg.Add(1)
		go c.laneLoop(c.defaultLane, opts.DefaultHandler)
		c.registerLaneMetrics("(default)")
	}
	c.wg.Add(3)
	go c.readLoop()
	go c.dispatchLoop()
	go c.timerLoop()
	return c, nil
}

// Dial connects a TCP transport to addr and establishes an MQTT session.
func Dial(addr string, opts Options) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("mqttclient dial %s: %w", addr, err)
	}
	c, err := Connect(conn, opts)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// Publish sends an application message. For QoS1 it blocks until the broker
// acknowledges (or AckTimeout elapses).
//
// The payload is not retained after Publish returns: a QoS 0 payload is
// copied into the client's frame and written before the return, and a
// QoS 1 payload is written before the wait for its PUBACK, with no copy
// kept for redelivery. A caller may reuse the buffer at once.
func (c *Client) Publish(topic string, payload []byte, qos wire.QoS, retain bool) error {
	if qos == wire.QoS0 {
		err := c.writePublish0(topic, payload, retain)
		if err == nil && c.metrics != nil {
			c.metrics.published.Inc()
		}
		return err
	}
	id, w, err := c.registerPending()
	if err != nil {
		return err
	}
	sentAt := time.Now()
	pub := &wire.PublishPacket{Topic: topic, Payload: payload, QoS: qos, Retain: retain, PacketID: id}
	if err := c.write(pub); err != nil {
		c.unregisterPending(id, w)
		return err
	}
	ack, err := c.waitAck(id, w)
	if err != nil {
		return err
	}
	if ack.typ != wire.PUBACK {
		return fmt.Errorf("mqttclient: unexpected ack %v for publish", ack.typ)
	}
	if c.metrics != nil {
		c.metrics.published.Inc()
		c.metrics.ackRTT.ObserveDuration(time.Since(sentAt))
	}
	return nil
}

// Subscribe registers handler for messages matching filter and blocks until
// the broker confirms the subscription, returning the granted QoS.
func (c *Client) Subscribe(filter string, qos wire.QoS, handler Handler) (wire.QoS, error) {
	granted, _, err := c.SubscribeHandle(filter, qos, handler)
	return granted, err
}

// SubscribeHandle is Subscribe returning additionally a registration that
// can remove just this handler (leaving other handlers on the same filter
// intact).
func (c *Client) SubscribeHandle(filter string, qos wire.QoS, handler Handler) (wire.QoS, *HandlerRegistration, error) {
	if handler == nil {
		return 0, nil, errors.New("mqttclient: nil handler")
	}
	if err := wire.ValidateTopicFilter(filter); err != nil {
		return 0, nil, err
	}
	id, w, err := c.registerPending()
	if err != nil {
		return 0, nil, err
	}

	// The handler must be live before SUBSCRIBE hits the wire: the broker
	// may deliver retained replay in the same TCP segment as the SUBACK,
	// and a handler registered only after the ack races the read loop and
	// silently drops that replay.
	c.mu.Lock()
	if c.closed {
		// The reader may have exited (and swept the lanes) between
		// registerPending and here; a lane started now would leak.
		c.mu.Unlock()
		c.unregisterPending(id, w)
		return 0, nil, ErrClosed
	}
	c.subID++
	ln := c.newLane()
	reg := &HandlerRegistration{client: c, id: c.subID, filter: filter}
	c.subs = append(c.subs, subscription{id: c.subID, filter: filter, lane: ln})
	c.laneWg.Add(1)
	go c.laneLoop(ln, handler)
	c.mu.Unlock()
	c.registerLaneMetrics(filter)

	sub := &wire.SubscribePacket{
		PacketID:      id,
		Subscriptions: []wire.Subscription{{TopicFilter: filter, QoS: qos}},
	}
	if err := c.write(sub); err != nil {
		c.unregisterPending(id, w)
		reg.Remove()
		return 0, nil, err
	}
	ack, err := c.waitAck(id, w)
	if err != nil {
		reg.Remove()
		return 0, nil, err
	}
	if ack.typ != wire.SUBACK || len(ack.codes) != 1 {
		reg.Remove()
		return 0, nil, fmt.Errorf("mqttclient: malformed SUBACK")
	}
	if ack.codes[0] == wire.SubackFailure {
		reg.Remove()
		return 0, nil, ErrSubRejected
	}
	return wire.QoS(ack.codes[0]), reg, nil
}

// Unsubscribe removes the subscription for filter and its handlers.
func (c *Client) Unsubscribe(filter string) error {
	id, w, err := c.registerPending()
	if err != nil {
		return err
	}
	unsub := &wire.UnsubscribePacket{PacketID: id, TopicFilters: []string{filter}}
	if err := c.write(unsub); err != nil {
		c.unregisterPending(id, w)
		return err
	}
	if _, err := c.waitAck(id, w); err != nil {
		return err
	}
	c.mu.Lock()
	kept := c.subs[:0]
	for _, s := range c.subs {
		if s.filter != filter {
			kept = append(kept, s)
		} else {
			s.lane.stop()
		}
	}
	c.subs = kept
	c.mu.Unlock()
	return nil
}

// Disconnect sends DISCONNECT and closes the connection gracefully.
func (c *Client) Disconnect() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	if c.opts.OnBeforeDisconnect != nil {
		c.opts.OnBeforeDisconnect()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.closeErr = ErrClosed
	c.mu.Unlock()

	_ = c.write(&wire.DisconnectPacket{})
	_ = c.conn.Close()
	c.wg.Wait()
	c.laneWg.Wait()
	return nil
}

// Close tears the connection down without the DISCONNECT handshake
// (the broker will fire the will message, if any).
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.closeErr = ErrClosed
	c.mu.Unlock()
	_ = c.conn.Close()
	c.wg.Wait()
	c.laneWg.Wait()
	return nil
}

// Done returns a channel closed when the connection has ended.
func (c *Client) Done() <-chan struct{} { return c.done }

func (c *Client) write(p wire.Packet) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := wire.WritePacket(c.conn, p); err != nil {
		return fmt.Errorf("mqttclient write %v: %w", p.Type(), err)
	}
	return nil
}

// writePublish0 writes a QoS 0 PUBLISH encoded straight into the client's
// frame buffer: no packet value, no pooled scratch, one Write.
func (c *Client) writePublish0(topic string, payload []byte, retain bool) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	frame, err := wire.AppendEncodeQoS0Publish(c.frame[:0], topic, payload, retain)
	return c.writeFrameLocked(wire.PUBLISH, frame, err)
}

// writeAck writes the ack packet t for packet id from the client's frame
// buffer, as writePublish0 writes a publish.
func (c *Client) writeAck(t wire.PacketType, id uint16) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.writeFrameLocked(t, wire.AppendEncodeAck(c.frame[:0], t, id), nil)
}

// writeFrameLocked writes frame, a packet of type t built in c.frame unless
// its encoding failed with err, and keeps the buffer for the next frame
// unless it grew past maxFrameBuf. The caller holds writeMu.
func (c *Client) writeFrameLocked(t wire.PacketType, frame []byte, err error) error {
	if err == nil {
		_, err = c.conn.Write(frame)
	}
	if cap(frame) <= maxFrameBuf {
		c.frame = frame[:0]
	} else {
		c.frame = nil
	}
	if err != nil {
		return fmt.Errorf("mqttclient write %v: %w", t, err)
	}
	return nil
}

// registerPending enters a waiter, recycled when one is free, under a
// fresh packet ID. Its timeout starts in waitAck, once the packet is out.
func (c *Client) registerPending() (uint16, *waiter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClosed
	}
	for {
		c.nextPacketID++
		if c.nextPacketID == 0 {
			c.nextPacketID = 1
		}
		if _, used := c.pending[c.nextPacketID]; !used {
			break
		}
	}
	var w *waiter
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		w = &waiter{ch: make(chan ackResult, 1)}
	}
	w.deadline = time.Time{}
	c.pending[c.nextPacketID] = w
	return c.nextPacketID, w, nil
}

// unregisterPending withdraws w after its packet could not be sent. If a
// remover got to it first, its result is already in ch (so the receive
// never blocks) and is discarded.
func (c *Client) unregisterPending(id uint16, w *waiter) {
	c.mu.Lock()
	if c.pending[id] == w {
		delete(c.pending, id)
	} else {
		<-w.ch
	}
	c.free = append(c.free, w)
	c.mu.Unlock()
}

// waitAck starts w's timeout, as its packet has just been written, blocks
// until w's result arrives, then recycles w.
func (c *Client) waitAck(id uint16, w *waiter) (ackResult, error) {
	c.mu.Lock()
	if c.pending[id] == w {
		w.deadline = c.opts.clock.Now().Add(c.opts.AckTimeout)
	}
	c.mu.Unlock()
	r := <-w.ch
	c.mu.Lock()
	c.free = append(c.free, w)
	c.mu.Unlock()
	return r, r.err
}

// finishLocked removes the waiter under id and sends it its result; the
// send never blocks, as ch has room for exactly this one. The caller holds
// c.mu, which is what keeps a late ack off a recycled waiter.
func (c *Client) finishLocked(id uint16, w *waiter, r ackResult) {
	delete(c.pending, id)
	w.ch <- r
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	var readErr error
	for {
		// The PUBLISH and ack values rd returns are reused by its next
		// read: a Message and an ackResult take their fields by value.
		pkt, err := c.rd.ReadPacket()
		if err != nil {
			readErr = err
			break
		}
		switch p := pkt.(type) {
		case *wire.PublishPacket:
			c.handleInboundPublish(p)
		case *wire.AckPacket:
			switch p.PacketType {
			case wire.PUBACK, wire.UNSUBACK, wire.PUBCOMP:
				c.resolvePending(p.PacketID, ackResult{typ: p.PacketType})
			case wire.PUBREC:
				_ = c.writeAck(wire.PUBREL, p.PacketID)
			case wire.PUBREL:
				_ = c.writeAck(wire.PUBCOMP, p.PacketID)
			}
		case *wire.SubackPacket:
			c.resolvePending(p.PacketID, ackResult{typ: wire.SUBACK, codes: p.ReturnCodes})
		case *wire.PingrespPacket:
			// Liveness confirmed; nothing to do.
		default:
			// Unexpected packet from broker; ignore.
		}
	}

	c.mu.Lock()
	wasClosed := c.closed
	c.closed = true
	if c.closeErr == nil {
		c.closeErr = readErr
	}
	for id, w := range c.pending {
		c.finishLocked(id, w, ackResult{err: ErrNotConnected})
	}
	c.mu.Unlock()

	close(c.done)
	close(c.dispatch)
	_ = c.conn.Close()
	if !wasClosed && c.opts.OnDisconnect != nil {
		c.opts.OnDisconnect(readErr)
	}
}

func (c *Client) resolvePending(id uint16, r ackResult) {
	c.mu.Lock()
	if w, ok := c.pending[id]; ok {
		c.finishLocked(id, w, r)
	}
	c.mu.Unlock()
}

func (c *Client) handleInboundPublish(p *wire.PublishPacket) {
	if c.metrics != nil {
		c.metrics.received.Inc()
	}
	if p.QoS == wire.QoS1 {
		_ = c.writeAck(wire.PUBACK, p.PacketID)
	}
	// The dispatch send applies TCP backpressure when handlers are slow:
	// the reader stalls rather than dropping messages.
	c.dispatch <- Message{
		Topic:   p.Topic,
		Payload: p.Payload,
		QoS:     p.QoS,
		Retain:  p.Retain,
		Dup:     p.Dup,
	}
}

// newLane builds a lane of DispatchBuffer messages.
func (c *Client) newLane() *lane {
	return &lane{
		ch:   make(chan Message, c.opts.DispatchBuffer),
		quit: make(chan struct{}),
	}
}

// registerLaneMetrics exposes the filter's aggregate lane depth as a
// collection-time gauge. Idempotent per (client, filter): the registry
// dedups series by name+labels.
func (c *Client) registerLaneMetrics(filter string) {
	if c.opts.Registry == nil {
		return
	}
	labels := []telemetry.Label{
		telemetry.L("client", c.opts.ClientID),
		telemetry.L("filter", filter),
	}
	c.opts.Registry.GaugeFunc("ifot_client_lane_depth",
		"messages queued in dispatch lanes, by subscription filter",
		func() float64 {
			var depth int64
			c.mu.Lock()
			for _, s := range c.subs {
				if s.filter == filter {
					depth += s.lane.depth.Load()
				}
			}
			c.mu.Unlock()
			if filter == "(default)" && c.defaultLane != nil {
				depth += c.defaultLane.depth.Load()
			}
			return float64(depth)
		}, labels...)
}

// enqueue places msg on ln, waiting for space. Only the dispatcher
// goroutine sends on lane channels, which is what makes the shutdown
// close(ln.ch) in dispatchLoop safe.
func (c *Client) enqueue(ln *lane, msg Message) {
	select {
	case ln.ch <- msg:
		ln.depth.Add(1)
	case <-ln.quit:
		// Lane removed while we were blocked; drop silently, matching the
		// pre-lane semantics where a removed handler stops receiving.
	}
}

// laneLoop drains one lane, running its handler sequentially — the
// per-subscription ordering guarantee.
func (c *Client) laneLoop(ln *lane, h Handler) {
	defer c.laneWg.Done()
	for {
		select {
		case <-ln.quit:
			return
		default:
		}
		select {
		case <-ln.quit:
			return
		case msg, ok := <-ln.ch:
			if !ok {
				return
			}
			ln.depth.Add(-1)
			h(msg)
		}
	}
}

// dispatchLoop matches each inbound message against the subscription table
// and fans it out to the matching lanes. Matching stays centralized (one
// goroutine, read-mostly table) while handler execution is per-lane, so one
// slow handler delays the others only once its own lane is full.
func (c *Client) dispatchLoop() {
	defer c.wg.Done()
	var lanes []*lane // scratch, reused across messages
	for msg := range c.dispatch {
		lanes = c.matchLanes(lanes[:0], msg.Topic)
		if len(lanes) == 0 {
			if c.defaultLane != nil {
				c.enqueue(c.defaultLane, msg)
			}
			continue
		}
		for _, ln := range lanes {
			c.enqueue(ln, msg)
		}
	}
	// The reader has exited and set closed, so no new lanes can appear:
	// close every lane channel so the lane goroutines drain and exit.
	c.mu.Lock()
	for _, s := range c.subs {
		close(s.lane.ch)
	}
	c.mu.Unlock()
	if c.defaultLane != nil {
		close(c.defaultLane.ch)
	}
}

// matchLanes appends to dst the lane of every subscription matching topic.
func (c *Client) matchLanes(dst []*lane, topic string) []*lane {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.subs {
		if wire.MatchTopic(s.filter, topic) {
			dst = append(dst, s.lane)
		}
	}
	return dst
}

// timerLoop is the client's one timer: every sweep period it fails the
// waits whose deadline has passed with ErrAckTimeout, and every KeepAlive,
// as a ticker would, it starts a PINGREQ. It never writes itself, so a
// stalled connection cannot hold up the timeouts. It exits when the reader
// does.
func (c *Client) timerLoop() {
	defer c.wg.Done()
	clk, keepAlive := c.opts.clock, c.opts.KeepAlive
	sweep := max(c.opts.AckTimeout/sweepsPerAckTimeout, time.Millisecond)
	now := clk.Now()
	nextSweep, nextPing := now.Add(sweep), now.Add(keepAlive)
	for {
		wake := nextSweep
		if keepAlive > 0 && nextPing.Before(wake) {
			wake = nextPing
		}
		select {
		case <-clk.After(wake.Sub(clk.Now())):
		case <-c.done:
			return
		}
		now = clk.Now()
		if !now.Before(nextSweep) {
			c.expireWaits(now)
			nextSweep = now.Add(sweep)
		}
		if keepAlive > 0 && !now.Before(nextPing) {
			if c.pinging.CompareAndSwap(false, true) {
				c.wg.Add(1)
				go c.ping()
			}
			for !nextPing.After(now) {
				nextPing = nextPing.Add(keepAlive)
			}
		}
	}
}

// ping writes one PINGREQ. While a write stalls, the pings that fall due
// are skipped; a dead link ends the reader, and Close unblocks the write.
func (c *Client) ping() {
	defer c.wg.Done()
	_ = c.write(&wire.PingreqPacket{})
	c.pinging.Store(false)
}

// expireWaits fails every wait whose packet is out and whose deadline is
// not after now.
func (c *Client) expireWaits(now time.Time) {
	c.mu.Lock()
	for id, w := range c.pending {
		if !w.deadline.IsZero() && !now.Before(w.deadline) {
			c.finishLocked(id, w, ackResult{err: ErrAckTimeout})
		}
	}
	c.mu.Unlock()
}
