package broker

import (
	"sync"
	"sync/atomic"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// maxQueuedOffline bounds the per-session offline message queue for
// persistent sessions; the oldest messages are dropped first on overflow.
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

	// subscriptions mirrors the trie entries owned by this session so
	// they can be reported and cleaned up.
	subscriptions map[string]wire.QoS

	// inflight holds QoS1 messages sent to the client but not yet acked,
	// keyed by packet ID; they are resent (Dup) on reconnect.
	inflight map[uint16]*wire.PublishPacket
	// queued holds QoS1 messages that arrived while a persistent session
	// was offline.
	queued []*wire.PublishPacket
	// incomingQoS2 tracks QoS2 publishes received from the client whose
	// PUBREL is still pending, to suppress redelivery duplicates.
	incomingQoS2 map[uint16]struct{}

	nextPacketID uint16

	// droppedMessages is atomic so Stats and metrics scrapes read it
	// without taking s.mu — a stats tick never contends with deliveries.
	droppedMessages atomic.Int64

	// persist, when non-nil, journals this session's QoS1 window to the
	// broker's WAL. Packet IDs are per-connection, so durable messages
	// are keyed by a broker-wide message ID instead: inflightIDs maps
	// packet ID → message ID and queuedIDs parallels queued. Both are
	// populated only for persistent sessions with persistence on; the
	// QoS0 path never touches them.
	persist     *persister
	inflightIDs map[uint16]uint64
	queuedIDs   []uint64
}

func newSession(clientID string, persistent bool) *session {
	return &session{
		clientID:      clientID,
		persistent:    persistent,
		subscriptions: make(map[string]wire.QoS),
		inflight:      make(map[uint16]*wire.PublishPacket),
		incomingQoS2:  make(map[uint16]struct{}),
		inflightIDs:   make(map[uint16]uint64),
	}
}

// attach binds a new connection's outbound queue to the session and returns
// the packets that must be (re)sent: unacked inflight messages first (with
// DUP set), then queued offline messages (now given packet IDs). On a
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

	resend = make([]*wire.PublishPacket, 0, len(s.inflight)+len(s.queued))
	for _, p := range s.inflight {
		dup := *p
		dup.Dup = true
		resend = append(resend, &dup)
	}
	for i, p := range s.queued {
		p.PacketID = s.allocPacketIDLocked()
		s.inflight[p.PacketID] = p
		if s.durableLocked() && i < len(s.queuedIDs) {
			s.inflightIDs[p.PacketID] = s.queuedIDs[i]
		}
		resend = append(resend, p)
	}
	s.queued = nil
	s.queuedIDs = nil
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
// when the session is offline, and refuses and counts a drop when the queue
// is full. It never blocks. Callers hold mu — the lock the close happens
// under.
func (s *session) enqueueLocked(op outPacket) bool {
	if s.outbound == nil {
		return false
	}
	select {
	case s.outbound <- op:
		return true
	default:
		s.droppedMessages.Add(1)
		return false
	}
}

// deliver routes an application message to the client. Connected sessions
// get it on the outbound queue (dropped if the queue is full and the
// message is QoS0). Offline persistent sessions queue QoS1 messages.
// It reports whether the message was accepted.
func (s *session) deliver(p *wire.PublishPacket) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.outbound == nil {
		if !s.persistent || p.QoS == wire.QoS0 {
			return false
		}
		var id uint64
		if s.durableLocked() {
			id = s.persist.noteQueued(s.clientID, p)
		}
		s.queueOfflineLocked(p, id)
		return true
	}
	if p.QoS > wire.QoS0 {
		p.PacketID = s.allocPacketIDLocked()
		s.inflight[p.PacketID] = p
		if s.durableLocked() {
			// Journaled under s.mu: WAL order = window order.
			s.inflightIDs[p.PacketID] = s.persist.noteQueued(s.clientID, p)
		}
	}
	if s.enqueueLocked(outPacket{pkt: p}) {
		return true
	}
	if p.QoS > wire.QoS0 {
		// Parked instead of lost; it will be retried on reconnect.
		delete(s.inflight, p.PacketID)
		id := s.inflightIDs[p.PacketID]
		delete(s.inflightIDs, p.PacketID)
		s.queueOfflineLocked(p, id)
	}
	return false
}

// deliverFrame routes a pre-encoded QoS0 application frame to a connected
// client. QoS0 messages are never queued offline, so a disconnected (or
// saturated) session just reports the drop.
func (s *session) deliverFrame(frame []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(outPacket{frame: frame})
}

// queueOfflineLocked parks a QoS1 message (with its durable message ID,
// zero when persistence is off) until reconnect, dropping the oldest on
// overflow — and journaling that drop as an ack so replay agrees.
func (s *session) queueOfflineLocked(p *wire.PublishPacket, msgID uint64) {
	if len(s.queued) >= maxQueuedOffline {
		if s.durableLocked() && len(s.queuedIDs) > 0 {
			s.persist.noteAcked(s.clientID, s.queuedIDs[0])
			copy(s.queuedIDs, s.queuedIDs[1:])
			s.queuedIDs = s.queuedIDs[:len(s.queuedIDs)-1]
		}
		copy(s.queued, s.queued[1:])
		s.queued = s.queued[:len(s.queued)-1]
		s.droppedMessages.Add(1)
	}
	s.queued = append(s.queued, p)
	if s.durableLocked() {
		s.queuedIDs = append(s.queuedIDs, msgID)
	}
}

// send enqueues a control packet (acks, pings) for the connected client.
func (s *session) send(p wire.Packet) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(outPacket{pkt: p})
}

// ack removes a client-acknowledged QoS1 message from the inflight window.
func (s *session) ack(packetID uint16) {
	s.mu.Lock()
	delete(s.inflight, packetID)
	if id, ok := s.inflightIDs[packetID]; ok {
		delete(s.inflightIDs, packetID)
		if s.durableLocked() {
			s.persist.noteAcked(s.clientID, id)
		}
	}
	s.mu.Unlock()
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

func (s *session) addSubscription(filter string, qos wire.QoS) {
	s.mu.Lock()
	s.subscriptions[filter] = qos
	s.mu.Unlock()
}

func (s *session) removeSubscription(filter string) {
	s.mu.Lock()
	delete(s.subscriptions, filter)
	s.mu.Unlock()
}

func (s *session) subscriptionList() map[string]wire.QoS {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]wire.QoS, len(s.subscriptions))
	for f, q := range s.subscriptions {
		out[f] = q
	}
	return out
}

// dropped reports this session's cumulative drop count; lock-free so a
// stats scrape never touches the delivery mutex.
func (s *session) dropped() int64 { return s.droppedMessages.Load() }

// allocPacketIDLocked returns the next free nonzero packet identifier.
func (s *session) allocPacketIDLocked() uint16 {
	for {
		s.nextPacketID++
		if s.nextPacketID == 0 {
			s.nextPacketID = 1
		}
		if _, used := s.inflight[s.nextPacketID]; !used {
			return s.nextPacketID
		}
	}
}
