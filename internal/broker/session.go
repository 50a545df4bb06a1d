package broker

import (
	"sync"
	"sync/atomic"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// maxQueuedOffline bounds the parked entries of a session's QoS1 window;
// the oldest parked message is dropped first on overflow.
const maxQueuedOffline = 1000

// outPacket is one queued outbound item: either a packet encoded at write
// time, or a pre-encoded frame shared read-only across the subscribers of
// one publish (the broker's encode-once QoS0 fan-out).
type outPacket struct {
	pkt   wire.Packet // nil when frame is set
	frame []byte      // full wire frame; must not be mutated
}

// session holds the broker-side state for one client identifier. For
// persistent sessions (CleanSession=false) the object outlives the network
// connection; for clean sessions it is discarded on disconnect.
//
// outbound is the connection's queue: non-nil exactly while connected, and
// sent to and closed only under mu, so a send can never meet a closed
// channel and the connection writer can simply range over it.
type session struct {
	clientID   string
	persistent bool

	mu        sync.Mutex
	outbound  chan outPacket
	attachGen uint64 // increments per (re)connection

	// subscriptions maps each filter to its granted QoS. It is the
	// broker's one subscription table, guarded by Broker.mu, not mu: the
	// route snapshots are derived from it (buildRoutes).
	subscriptions map[string]wire.QoS

	// window is the session's QoS1 window: every unacked QoS1 message, in
	// the order it entered the session, which is the order attach resends
	// it in (MQTT 3.1.1 §4.6). An entry handed to a connection carries its
	// packet ID; a parked one — the session was offline, or a full queue
	// refused it — carries none.
	window []windowEntry
	// incomingQoS2 tracks QoS2 publishes received from the client whose
	// PUBREL is still pending, to suppress redelivery duplicates.
	incomingQoS2 map[uint16]struct{}

	nextPacketID uint16

	// droppedMessages is atomic so Stats and metrics scrapes read it
	// without taking s.mu — a stats tick never contends with deliveries.
	droppedMessages atomic.Int64

	// persist, when non-nil, is the broker's journal; a persistent
	// session's window entries are journaled under their message IDs.
	persist *persister
}

// windowEntry is one QoS1 message in a session's window. Packet IDs are
// per-connection, so a durable message is keyed by a broker-wide message
// ID instead: msgID is set only when the session is journaled, else 0.
type windowEntry struct {
	msgID uint64
	pkt   *wire.PublishPacket // PacketID 0 while parked
}

func newSession(clientID string, persistent bool) *session {
	return &session{
		clientID:      clientID,
		persistent:    persistent,
		subscriptions: make(map[string]wire.QoS),
		incomingQoS2:  make(map[uint16]struct{}),
	}
}

// attach binds a new connection's outbound queue to the session and returns
// the packets that must be (re)sent: the whole window in order, entries
// already sent again with DUP set, parked ones now given packet IDs. On a
// takeover it closes the predecessor's queue, ending that connection's
// writer.
func (s *session) attach(queueSize int) (outbound chan outPacket, resend []*wire.PublishPacket, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.outbound != nil {
		close(s.outbound)
	}
	s.attachGen++
	s.outbound = make(chan outPacket, queueSize)

	resend = make([]*wire.PublishPacket, 0, len(s.window))
	for _, e := range s.window {
		p := e.pkt
		if p.PacketID != 0 {
			dup := *p
			dup.Dup = true
			p = &dup
		} else {
			p.PacketID = s.allocPacketIDLocked()
		}
		resend = append(resend, p)
	}
	return s.outbound, resend, s.attachGen
}

// durableLocked reports whether this session's QoS1 window is journaled.
func (s *session) durableLocked() bool { return s.persist != nil && s.persistent }

// detach marks the session disconnected and closes the queue of the
// attachment it ends. It only takes effect if gen still identifies the
// current attachment (a stale detach from a taken-over connection must not
// disconnect the successor; attach already closed the stale queue).
func (s *session) detach(gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attachGen != gen || s.outbound == nil {
		return
	}
	close(s.outbound)
	s.outbound = nil
}

// enqueueLocked is the one place a session's queue is sent to: it refuses
// when the session is offline or the queue is full, and never blocks.
// Callers hold mu — the lock the close happens under.
func (s *session) enqueueLocked(op outPacket) bool {
	if s.outbound == nil {
		return false
	}
	select {
	case s.outbound <- op:
		return true
	default:
		return false
	}
}

// offerLocked enqueues a QoS 0 application message, which nothing parks:
// refused, it is dropped and counted. Callers hold mu.
func (s *session) offerLocked(op outPacket) bool {
	if s.enqueueLocked(op) {
		return true
	}
	s.droppedMessages.Add(1)
	return false
}

// deliver routes an application message to the client. Connected sessions
// get it on the outbound queue; a QoS0 message a full queue or an offline
// session refuses is dropped. A QoS1 message enters the window first:
// offline persistent sessions park it, and one a full queue refuses stays
// parked in its slot. It reports whether the message was accepted or
// parked; every message it reports false for counts as dropped.
func (s *session) deliver(p *wire.PublishPacket) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.QoS == wire.QoS0 {
		return s.offerLocked(outPacket{pkt: p})
	}
	connected := s.outbound != nil
	if !connected && !s.persistent {
		s.droppedMessages.Add(1)
		return false
	}
	if connected {
		p.PacketID = s.allocPacketIDLocked()
	}
	var id uint64
	if s.durableLocked() {
		id = s.persist.nextMsgID()
	}
	s.queueLocked(id, p)
	if connected && s.enqueueLocked(outPacket{pkt: p}) {
		return true
	}
	// Parked instead of lost; it will be sent on reconnect.
	p.PacketID = 0
	s.trimParkedLocked()
	return true
}

// deliverFrame routes a pre-encoded QoS0 application frame to a connected
// client. QoS0 messages are never queued offline, so a disconnected (or
// saturated) session drops and counts it.
func (s *session) deliverFrame(frame []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.offerLocked(outPacket{frame: frame})
}

// queueLocked is the one mutator of the opQueue fact, shared by deliver
// and WAL replay: it appends p to the window as its newest entry and, for a
// durable message (msgID ≠ 0), journals it under s.mu, so WAL order equals
// window order. A message the window already holds is a no-op — replay of
// a record the snapshot captured too.
func (s *session) queueLocked(msgID uint64, p *wire.PublishPacket) {
	if msgID != 0 && s.msgIndexLocked(msgID) >= 0 {
		return
	}
	s.window = append(s.window, windowEntry{msgID: msgID, pkt: p})
	if msgID != 0 {
		s.persist.append(persistRec{Op: opQueue, Client: s.clientID, ID: msgID, Topic: p.Topic, Payload: p.Payload, QoS: byte(p.QoS)})
	}
}

// removeLocked is the one mutator of the opAck fact, shared by a PUBACK,
// queue overflow and WAL replay: window entry i leaves, and a durable one
// journals its ack.
func (s *session) removeLocked(i int) {
	id := s.window[i].msgID
	copy(s.window[i:], s.window[i+1:])
	s.window[len(s.window)-1] = windowEntry{}
	s.window = s.window[:len(s.window)-1]
	if id != 0 {
		s.persist.append(persistRec{Op: opAck, Client: s.clientID, ID: id})
	}
}

// msgIndexLocked returns the position of the entry with message ID id, or
// -1.
func (s *session) msgIndexLocked(id uint64) int {
	for i, e := range s.window {
		if e.msgID == id {
			return i
		}
	}
	return -1
}

// trimParkedLocked enforces maxQueuedOffline over parked entries, dropping
// the oldest first; each drop counts and is journaled as an ack.
func (s *session) trimParkedLocked() {
	if len(s.window) <= maxQueuedOffline {
		return
	}
	parked := 0
	for _, e := range s.window {
		if e.pkt.PacketID == 0 {
			parked++
		}
	}
	for i := 0; parked > maxQueuedOffline; {
		if s.window[i].pkt.PacketID != 0 {
			i++
			continue
		}
		s.removeLocked(i)
		s.droppedMessages.Add(1)
		parked--
	}
}

// send enqueues a control packet (acks, pings) for the connected client.
func (s *session) send(p wire.Packet) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(outPacket{pkt: p})
}

// ack removes a client-acknowledged QoS1 message from the window.
func (s *session) ack(packetID uint16) {
	s.mu.Lock()
	if i := s.packetIndexLocked(packetID); i >= 0 {
		s.removeLocked(i)
	}
	s.mu.Unlock()
}

// packetIndexLocked returns the position of the sent entry carrying
// packetID, or -1.
func (s *session) packetIndexLocked(packetID uint16) int {
	if packetID == 0 {
		return -1 // parked entries carry none; 0 is never sent
	}
	for i, e := range s.window {
		if e.pkt.PacketID == packetID {
			return i
		}
	}
	return -1
}

// markIncomingQoS2 records an incoming QoS2 publish. It reports true if the
// packet ID is new (message should be delivered) or false for a duplicate.
func (s *session) markIncomingQoS2(packetID uint16) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.incomingQoS2[packetID]; dup {
		return false
	}
	s.incomingQoS2[packetID] = struct{}{}
	return true
}

// releaseIncomingQoS2 completes the QoS2 receive handshake for packetID.
func (s *session) releaseIncomingQoS2(packetID uint16) {
	s.mu.Lock()
	delete(s.incomingQoS2, packetID)
	s.mu.Unlock()
}

// dropped reports this session's cumulative drop count; lock-free so a
// stats scrape never touches the delivery mutex.
func (s *session) dropped() int64 { return s.droppedMessages.Load() }

// allocPacketIDLocked returns the next nonzero packet identifier no window
// entry holds.
func (s *session) allocPacketIDLocked() uint16 {
	for {
		s.nextPacketID++
		if s.nextPacketID == 0 {
			s.nextPacketID = 1
		}
		if s.packetIndexLocked(s.nextPacketID) < 0 {
			return s.nextPacketID
		}
	}
}
