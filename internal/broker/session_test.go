package broker

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ifot-middleware/ifot/internal/wire"
)

func TestSessionDeliverAssignsPacketIDs(t *testing.T) {
	s := newSession("c", false)
	out, _, _ := s.attach(8)
	if !s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1}) {
		t.Fatal("deliver rejected")
	}
	if !s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1}) {
		t.Fatal("deliver rejected")
	}
	first := (<-out).pkt.(*wire.PublishPacket)
	second := (<-out).pkt.(*wire.PublishPacket)
	if first.PacketID == 0 || second.PacketID == 0 || first.PacketID == second.PacketID {
		t.Fatalf("packet ids %d, %d must be distinct and nonzero", first.PacketID, second.PacketID)
	}
}

func TestSessionAckClearsInflight(t *testing.T) {
	s := newSession("c", false)
	out, _, _ := s.attach(8)
	s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1})
	pkt := (<-out).pkt.(*wire.PublishPacket)
	if sent(s) != 1 {
		t.Fatalf("inflight = %d, want 1", sent(s))
	}
	s.ack(pkt.PacketID)
	if sent(s) != 0 {
		t.Fatalf("inflight after ack = %d, want 0", sent(s))
	}
}

func TestSessionResendAfterReattach(t *testing.T) {
	s := newSession("c", true)
	out, _, gen := s.attach(8)
	s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1, Payload: []byte("m")})
	<-out // delivered but never acked
	s.detach(gen)

	_, resend, _ := s.attach(8)
	if len(resend) != 1 {
		t.Fatalf("resend = %d packets, want 1", len(resend))
	}
	if !resend[0].Dup {
		t.Fatal("resent packet must carry DUP")
	}
}

func TestSessionOfflineQueueingOnlyQoS1(t *testing.T) {
	s := newSession("c", true)
	if s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS0}) {
		t.Fatal("offline QoS0 delivery accepted")
	}
	if !s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1}) {
		t.Fatal("offline QoS1 delivery rejected")
	}
	if parked(s) != 1 {
		t.Fatalf("queued = %d, want 1", parked(s))
	}
}

func TestSessionOfflineQueueBounded(t *testing.T) {
	s := newSession("c", true)
	for i := 0; i < maxQueuedOffline+50; i++ {
		s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1})
	}
	if parked(s) != maxQueuedOffline {
		t.Fatalf("queued = %d, want bounded at %d", parked(s), maxQueuedOffline)
	}
	if s.dropped() == 0 {
		t.Fatal("overflow not counted as drops")
	}
}

func TestSessionNonPersistentOfflineDrops(t *testing.T) {
	s := newSession("c", false)
	if s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1}) {
		t.Fatal("offline delivery to clean session accepted")
	}
	if parked(s) != 0 {
		t.Fatal("clean session queued offline message")
	}
}

func TestSessionStaleDetachIgnored(t *testing.T) {
	s := newSession("c", true)
	first, _, gen1 := s.attach(8)
	second, _, gen2 := s.attach(8) // takeover
	if _, ok := <-first; ok {
		t.Fatal("takeover left the first attachment's queue open")
	}
	s.detach(gen1) // stale: must not disconnect gen2
	if s.outbound == nil {
		t.Fatal("stale detach disconnected the live attachment")
	}
	if !s.send(&wire.PingrespPacket{}) {
		t.Fatal("live attachment refused a packet after the stale detach")
	}
	if _, ok := <-second; !ok {
		t.Fatal("stale detach closed the live attachment's queue")
	}
	s.detach(gen2)
	if s.outbound != nil {
		t.Fatal("live detach did not disconnect")
	}
	if _, ok := <-second; ok {
		t.Fatal("live detach left its queue open")
	}
}

// TestSessionQueueSendCloseRace hammers every enqueue path while the
// session is attached, detached and taken over. The queue is sent to and
// closed only under s.mu, so no sender may panic with "send on closed
// channel", every queue handed out is closed (each drainer's range ends),
// every accepted frame reaches a drainer, and a frame that met a connected
// session is either accepted or counted in dropped().
func TestSessionQueueSendCloseRace(t *testing.T) {
	s := newSession("c", true)
	counted, other := []byte{0x30, 0}, []byte{0x30, 1}
	var received, accepted atomic.Int64
	var drainers sync.WaitGroup
	// attach starts a drainer on the new queue; it and the drainer ack every
	// QoS1 message so the inflight window (and packet-ID space) stays small.
	attach := func() uint64 {
		ch, resend, gen := s.attach(4)
		for _, p := range resend {
			s.ack(p.PacketID)
		}
		drainers.Add(1)
		go func() {
			defer drainers.Done()
			for op := range ch {
				if len(op.frame) == 2 && op.frame[1] == 0 {
					received.Add(1)
				}
				if p, ok := op.pkt.(*wire.PublishPacket); ok && p.QoS > wire.QoS0 {
					s.ack(p.PacketID)
				}
			}
		}()
		return gen
	}

	stop := make(chan struct{})
	var senders sync.WaitGroup
	for g := 0; g < 4; g++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// One offer is made under s.mu (through the send statement
				// all entry points share) so the test sees the connection
				// state and the drop count that very offer saw.
				s.mu.Lock()
				connected, before := s.outbound != nil, s.dropped()
				ok := s.enqueueLocked(outPacket{frame: counted})
				drops := s.dropped() - before
				s.mu.Unlock()
				if ok {
					accepted.Add(1)
				}
				var want int64 // a drop is counted exactly when a full queue refuses
				if connected && !ok {
					want = 1
				}
				if drops != want || ok && !connected {
					t.Errorf("offer: connected=%v accepted=%v drops=%d", connected, ok, drops)
					return
				}
				s.deliverFrame(other)
				s.send(&wire.PingrespPacket{})
				s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS0})
				s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1})
			}
		}()
	}

	for i := 0; i < 300; i++ {
		gen := attach()
		if i%3 == 0 {
			stale := gen
			gen = attach() // takeover closes the first queue
			s.detach(stale)
		}
		s.detach(gen)
	}
	close(stop)
	senders.Wait()
	drainers.Wait() // returns only if every queue handed out was closed

	if received.Load() != accepted.Load() {
		t.Fatalf("drainers received %d frames, senders had %d accepted", received.Load(), accepted.Load())
	}
}

func TestSessionFullOutboundQueueDropsQoS0(t *testing.T) {
	s := newSession("c", false)
	s.attach(1)
	s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS0}) // fills queue
	if s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS0}) {
		t.Fatal("second QoS0 delivery accepted with full queue")
	}
	if s.dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", s.dropped())
	}
}

func TestSessionFullOutboundQueueRequeuesQoS1(t *testing.T) {
	s := newSession("c", true)
	s.attach(1)
	s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS0}) // fill
	s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1, Payload: []byte("keep")})
	// The QoS1 message must be preserved for redelivery.
	if parked(s) != 1 {
		t.Fatalf("queued = %d, want the overflowed QoS1 message kept", parked(s))
	}
}

func TestSessionQoS2DuplicateSuppression(t *testing.T) {
	s := newSession("c", false)
	if !s.markIncomingQoS2(7) {
		t.Fatal("first QoS2 publish not fresh")
	}
	if s.markIncomingQoS2(7) {
		t.Fatal("duplicate QoS2 publish treated as fresh")
	}
	s.releaseIncomingQoS2(7)
	if !s.markIncomingQoS2(7) {
		t.Fatal("released packet id not reusable")
	}
}

func TestSessionPacketIDWraparound(t *testing.T) {
	s := newSession("c", false)
	s.nextPacketID = 65534
	a := s.allocPacketIDLocked()
	b := s.allocPacketIDLocked()
	if a != 65535 || b != 1 {
		t.Fatalf("wraparound ids = %d, %d; want 65535, 1 (skip 0)", a, b)
	}
}

func TestSessionPacketIDSkipsInflight(t *testing.T) {
	s := newSession("c", false)
	s.window = append(s.window, windowEntry{pkt: &wire.PublishPacket{PacketID: 1}})
	s.nextPacketID = 65535
	if got := s.allocPacketIDLocked(); got != 2 {
		t.Fatalf("alloc = %d, want 2 (0 invalid, 1 in flight)", got)
	}
}

// The session's filter map is the broker's subscription table: the
// mutators keep it, a resubscribe replaces the granted QoS, and their
// reports say when the routes must be rebuilt.
func TestSessionSubscriptionBookkeeping(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	b.mu.Lock()
	defer b.mu.Unlock()
	s, _ := b.openSessionLocked("c", false)
	b.subscribeLocked(s, "a/#", wire.QoS0)
	b.subscribeLocked(s, "a/#", wire.QoS1)
	b.subscribeLocked(s, "b", wire.QoS0)
	if len(s.subscriptions) != 2 || s.subscriptions["a/#"] != wire.QoS1 {
		t.Fatalf("subscriptions = %v", s.subscriptions)
	}
	if !b.unsubscribeLocked(s, "a/#") || b.unsubscribeLocked(s, "a/#") {
		t.Fatal("unsubscribe must report exactly the filter it removed")
	}
	if len(s.subscriptions) != 1 {
		t.Fatal("subscription not removed")
	}
	if !b.dropSessionLocked(s) {
		t.Fatal("dropping a session with a filter reported no route change")
	}
	if s, _ = b.openSessionLocked("c", false); b.dropSessionLocked(s) {
		t.Fatal("dropping a session without filters reported a route change")
	}
}

// sent counts the window entries handed to a connection.
func sent(s *session) (n int) {
	for _, e := range s.window {
		if e.pkt.PacketID != 0 {
			n++
		}
	}
	return n
}

// parked counts the window entries awaiting a connection.
func parked(s *session) int { return len(s.window) - sent(s) }
