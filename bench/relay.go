package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// broker_relay sizes, fixed by the issue.
const (
	relayAreas      = 32
	relaySensors    = 32
	relayWindow     = 128 // messages in flight
	relayPayload    = 32  // bytes: the smallest packet the stack carries
	relayPerSecond  = 2_000_000
	relayIOBuffer   = 64 << 10
	relayTailOffset = 16 // payload = seq(8) | send time(8) | seeded tail(16)
)

// relayFilters is the subscriber's filter set: the three filter kinds the
// router distinguishes. They cover the topic space with overlap — no eight
// filters of these kinds can partition a 32×32 two-level grid — and the
// broker delivers one copy per session whatever the overlap, so every
// message still arrives exactly once.
var relayFilters = []string{
	"relay/a00/s00", "relay/a01/s01", // exact
	"relay/a02/+", "relay/a03/+", "relay/+/s31", // single-level wildcard
	"relay/a04/#", "relay/a05/#", "relay/#", // multi-level wildcard
}

// relayRun is one live instance of broker_relay: a broker, one raw wire
// publisher and one raw wire subscriber. No client library, no module, no
// JSON: the broker, the codec and the sockets do all the work.
type relayRun struct {
	stack  *stack
	pub    net.Conn
	sub    net.Conn
	out    *bufio.Writer
	pace   *pacer
	arena  *arena
	topics []string
	frames [][]byte // pre-encoded PUBLISH frame per topic; payload is the last relayPayload bytes
	tails  [][]byte // seeded last 16 payload bytes per topic

	t0, t1 atomic.Int64 // measured window, unix ns; fixed before generate

	// Written by the generator.
	sent    int64
	offered int64
	genErr  error
	genWG   sync.WaitGroup
	// Written by the receiver.
	received atomic.Int64
	lat      []uint32 // ns, messages that arrived inside the window, arrival order
	nLat     int
	onTime   int64        // messages sent inside the window that arrived within flowDeadline
	bad      atomic.Int64 // payloads not byte-equal to what was sent, or on the wrong topic
	gaps     atomic.Int64 // sequence numbers skipped or repeated
	recvErr  error
	recvWG   sync.WaitGroup
	closing  atomic.Bool
}

func relayTopic(i int) string {
	return fmt.Sprintf("relay/a%02d/s%02d", i/relaySensors, i%relaySensors)
}

// startRelayRun sets broker_relay up and drives one message through.
func startRelayRun(cfg runConfig) (*relayRun, error) {
	w := &relayRun{}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	var err error
	n := int(cfg.window.Seconds()+1) * relayPerSecond
	if w.arena, err = newArena(4*n + 4096); err != nil {
		return nil, err
	}
	w.lat = w.arena.uint32s(n)

	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < relayAreas*relaySensors; i++ {
		topic := relayTopic(i)
		payload := make([]byte, relayPayload)
		rng.Read(payload[relayTailOffset:])
		frame, err := wire.AppendEncodePublish(nil, topic, payload)
		if err != nil {
			return nil, err
		}
		w.topics = append(w.topics, topic)
		w.frames = append(w.frames, frame)
		w.tails = append(w.tails, payload[relayTailOffset:])
	}

	if w.stack, err = startStack(stackOpts{traced: cfg.traced}, nil); err != nil {
		return nil, err
	}
	running := time.Now()
	if w.sub, err = rawSubscribe(w.stack.addr, "relay-sub", relayFilters); err != nil {
		return nil, err
	}
	if w.pub, err = relayConnect(w.stack.addr, "relay-pub"); err != nil {
		return nil, err
	}
	w.out = bufio.NewWriterSize(w.pub, relayIOBuffer)
	w.pace = newPacer(relayWindow, 0, w.received.Load)
	w.pace.idle = func() {
		if err := w.out.Flush(); err != nil && w.genErr == nil {
			w.genErr = err
		}
	}
	w.recvWG.Add(1)
	go w.receive()

	if err := w.send(time.Now()); err != nil {
		return nil, err
	}
	w.pace.idle()
	for deadline := time.Now().Add(setupTimeout); w.received.Load() == 0; {
		if time.Now().After(deadline) || w.genErr != nil {
			return nil, fmt.Errorf("first relay message never arrived (%v)", w.genErr)
		}
		w.pace.sleep(10 * time.Millisecond)
	}
	w.stack.phases.firstFlow = time.Since(running)
	ok = true
	return w, nil
}

// relayConnect opens a raw MQTT session: CONNECT, CONNACK, nothing else.
func relayConnect(addr, id string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := wire.WritePacket(conn, &wire.ConnectPacket{ClientID: id, CleanSession: true}); err != nil {
		conn.Close()
		return nil, err
	}
	p, err := wire.ReadPacket(conn, 0)
	if ack, ok := p.(*wire.ConnackPacket); err != nil || !ok || ack.Code != wire.ConnAccepted {
		conn.Close()
		return nil, fmt.Errorf("relay connect %s: %v (%v)", id, err, p)
	}
	return conn, nil
}

// rawSubscribe opens a raw session and subscribes it to filters at QoS 0;
// the caller reads the deliveries off the returned connection.
func rawSubscribe(addr, id string, filters []string) (net.Conn, error) {
	conn, err := relayConnect(addr, id)
	if err != nil {
		return nil, err
	}
	subs := make([]wire.Subscription, len(filters))
	for i, f := range filters {
		subs[i] = wire.Subscription{TopicFilter: f, QoS: wire.QoS0}
	}
	if err := wire.WritePacket(conn, &wire.SubscribePacket{PacketID: 1, Subscriptions: subs}); err != nil {
		conn.Close()
		return nil, err
	}
	if p, err := wire.ReadPacket(conn, 0); err != nil || p.Type() != wire.SUBACK {
		conn.Close()
		return nil, fmt.Errorf("subscribe %s: %v (%v)", id, err, p)
	}
	return conn, nil
}

// send stamps the next message's sequence number and send time into its
// topic's pre-encoded frame and queues the frame on the connection.
func (w *relayRun) send(now time.Time) error {
	frame := w.frames[w.sent%int64(len(w.frames))]
	payload := frame[len(frame)-relayPayload:]
	ns := now.UnixNano()
	binary.BigEndian.PutUint64(payload[0:8], uint64(w.sent))
	binary.BigEndian.PutUint64(payload[8:16], uint64(ns))
	w.sent++
	if ns >= w.t0.Load() && ns < w.t1.Load() {
		w.offered++
	}
	_, err := w.out.Write(frame)
	return err
}

func (w *relayRun) generate(t0, t1 time.Time) {
	w.t0.Store(t0.UnixNano())
	w.t1.Store(t1.UnixNano())
	w.genWG.Add(1)
	go func() {
		defer w.genWG.Done()
		for {
			due, _, ok := w.pace.next()
			if !ok {
				return
			}
			if err := w.send(due); err != nil {
				w.genErr = err
				return
			}
			if w.genErr != nil {
				return
			}
		}
	}()
}

// receive is the subscriber: it checks every delivery against what was
// sent and records the latency of those sent inside the window.
func (w *relayRun) receive() {
	defer w.recvWG.Done()
	in := bufio.NewReaderSize(w.sub, relayIOBuffer)
	next := uint64(0)
	for {
		p, err := wire.ReadPacket(in, 0)
		if err != nil {
			if !w.closing.Load() {
				w.recvErr = err
			}
			return
		}
		pub, ok := p.(*wire.PublishPacket)
		if !ok {
			continue
		}
		now := time.Now().UnixNano()
		if len(pub.Payload) != relayPayload {
			w.bad.Add(1)
			w.received.Add(1)
			w.pace.poke()
			continue
		}
		seq := binary.BigEndian.Uint64(pub.Payload[0:8])
		sentAt := int64(binary.BigEndian.Uint64(pub.Payload[8:16]))
		if seq != next {
			w.gaps.Add(1)
		}
		next = seq + 1
		t := int(seq % uint64(len(w.topics)))
		if pub.Topic != w.topics[t] || !bytes.Equal(pub.Payload[relayTailOffset:], w.tails[t]) {
			w.bad.Add(1)
		}
		t0, t1 := w.t0.Load(), w.t1.Load()
		if sentAt >= t0 && sentAt < t1 && now-sentAt <= int64(flowDeadline) {
			w.onTime++
		}
		if now >= t0 && now < t1 && w.nLat < len(w.lat) {
			w.lat[w.nLat] = uint32(min(now-sentAt, int64(^uint32(0))))
			w.nLat++
		}
		w.received.Add(1)
		w.pace.poke()
	}
}

func (w *relayRun) halt() {
	w.pace.halt()
	w.genWG.Wait()
	w.pace.idle()
	for deadline := time.Now().Add(flowDeadline); w.received.Load() < w.sent && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
}

func (w *relayRun) close() {
	w.closing.Store(true)
	if w.pub != nil {
		w.pub.Close()
	}
	if w.sub != nil {
		w.sub.Close()
	}
	w.recvWG.Wait()
	if w.stack != nil {
		w.stack.close()
	}
	if w.arena != nil {
		w.arena.free()
	}
}

func (w *relayRun) stackOf() *stack { return w.stack }

func (w *relayRun) collect(_, _ time.Time, _ bool) (*measurement, error) {
	if w.genErr != nil {
		return nil, fmt.Errorf("relay publisher: %w", w.genErr)
	}
	if w.recvErr != nil {
		return nil, fmt.Errorf("relay subscriber: %w", w.recvErr)
	}
	if w.nLat >= len(w.lat) {
		return nil, errors.New("relay recorder full: the broker outgrew relayPerSecond")
	}
	m := &measurement{offered: w.offered, layer: map[string]float64{}}
	if m.offered == 0 {
		return nil, errors.New("no message was sent inside the measured window")
	}
	for _, ns := range w.lat[:w.nLat] {
		if int64(ns) <= int64(flowDeadline) {
			m.flow = append(m.flow, int64(ns))
		}
	}
	m.completed = w.onTime
	m.check("sinks_agree", m.completed == m.offered, "offered %d, delivered in time %d", m.offered, m.completed)
	m.check("seq_increasing", w.gaps.Load() == 0, "%d sequence gaps at the subscriber", w.gaps.Load())
	m.check("payload_equal", w.bad.Load() == 0, "%d deliveries differ from what was published", w.bad.Load())
	return m, nil
}
