package broker

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// A persistent QoS1 subscriber that acked nothing gets the whole window
// back on reconnect in the order it was published (MQTT 3.1.1 §4.6):
// sent messages again with DUP, then those parked while it was offline.
func TestReconnectRedeliversInOrder(t *testing.T) {
	const n = 24
	t.Run("session", func(t *testing.T) {
		s := newSession("c", true)
		out, _, gen := s.attach(n)
		for i := 0; i < n; i++ {
			s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1, Payload: []byte{byte(i)}})
		}
		for i := 0; i < n; i++ {
			<-out // delivered, never acked
		}
		s.detach(gen)
		for i := n; i < n+4; i++ {
			s.deliver(&wire.PublishPacket{Topic: "t", QoS: wire.QoS1, Payload: []byte{byte(i)}})
		}

		_, resend, _ := s.attach(n)
		if len(resend) != n+4 {
			t.Fatalf("resend = %d packets, want %d", len(resend), n+4)
		}
		for i, p := range resend {
			if int(p.Payload[0]) != i || p.Dup != (i < n) || p.PacketID == 0 {
				t.Fatalf("resend[%d] = payload %d dup=%v id=%d; want payload %d dup=%v", i, p.Payload[0], p.Dup, p.PacketID, i, i < n)
			}
		}
	})

	t.Run("wire", func(t *testing.T) {
		bus := newTestBus(t, Options{})
		dial := func() net.Conn {
			conn, err := bus.listener.Dial()
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.WritePacket(conn, &wire.ConnectPacket{ClientID: "in-order", KeepAlive: 60}); err != nil {
				t.Fatal(err)
			}
			if pkt, err := wire.ReadPacket(conn, 0); err != nil || pkt.Type() != wire.CONNACK {
				t.Fatalf("CONNACK: %v %v", pkt, err)
			}
			return conn
		}
		readPublishes := func(conn net.Conn) []*wire.PublishPacket {
			var out []*wire.PublishPacket
			for len(out) < n {
				pkt, err := wire.ReadPacket(conn, 0)
				if err != nil {
					t.Fatal(err)
				}
				if p, ok := pkt.(*wire.PublishPacket); ok {
					out = append(out, p)
				}
			}
			return out
		}

		conn := dial()
		sub := &wire.SubscribePacket{PacketID: 1, Subscriptions: []wire.Subscription{{TopicFilter: "ord/#", QoS: wire.QoS1}}}
		if err := wire.WritePacket(conn, sub); err != nil {
			t.Fatal(err)
		}
		if pkt, err := wire.ReadPacket(conn, 0); err != nil || pkt.Type() != wire.SUBACK {
			t.Fatalf("SUBACK: %v %v", pkt, err)
		}
		pub := bus.connect(t, mqttclient.NewOptions("pub"))
		for i := 0; i < n; i++ {
			if err := pub.Publish("ord/t", []byte{byte(i)}, wire.QoS1, false); err != nil {
				t.Fatal(err)
			}
		}
		readPublishes(conn) // received, never acked
		_ = conn.Close()
		waitFor(t, "subscriber detach", func() bool { return bus.broker.Stats().ConnectedClients == 1 })

		conn = dial()
		defer conn.Close()
		for i, p := range readPublishes(conn) {
			if int(p.Payload[0]) != i || !p.Dup {
				t.Fatalf("redelivery %d = payload %d dup=%v; want payload %d with DUP", i, p.Payload[0], p.Dup, i)
			}
		}
	})
}

// liveConn is a connection driven in-process: registered and attached like
// handleConn does, with its outbound queue read by the test.
type liveConn struct {
	sess *session
	conn net.Conn
	out  chan outPacket
	gen  uint64
}

func connectLive(t *testing.T, b *Broker, clientID string, clean bool, queueSize int) *liveConn {
	t.Helper()
	conn, _ := net.Pipe()
	sess, _, err := b.registerSession(&wire.ConnectPacket{ClientID: clientID, CleanSession: clean}, conn)
	if err != nil {
		t.Fatal(err)
	}
	out, _, gen := sess.attach(queueSize)
	return &liveConn{sess: sess, conn: conn, out: out, gen: gen}
}

// drain empties the outbound queue, returning the publishes in it.
func (c *liveConn) drain() []*wire.PublishPacket {
	var pubs []*wire.PublishPacket
	for {
		select {
		case op := <-c.out:
			if p, ok := op.pkt.(*wire.PublishPacket); ok {
				pubs = append(pubs, p)
			}
		default:
			return pubs
		}
	}
}

func (c *liveConn) subscribe(b *Broker, filters ...string) {
	p := &wire.SubscribePacket{PacketID: 1}
	for _, f := range filters {
		p.Subscriptions = append(p.Subscriptions, wire.Subscription{TopicFilter: f, QoS: wire.QoS1})
	}
	b.handleSubscribe(c.sess, p)
}

func (c *liveConn) disconnect(b *Broker) { b.unregisterConn(c.sess, c.conn, c.gen) }

// driveDurableFacts changes every durable fact through the live path. The
// middle of the sequence runs inside midway, which a caller can use to
// take a snapshot whose capture races it.
func driveDurableFacts(t *testing.T, b *Broker, midway func(more func())) {
	pub := func(topic, payload string, retain bool) {
		b.Publish(topic, []byte(payload), wire.QoS1, retain)
	}

	// Retained messages: set, overwrite, delete.
	pub("cfg/a", "a1", true)
	pub("cfg/b", "b1", true)
	pub("cfg/a", "a2", true)
	pub("cfg/b", "", true)

	// A persistent session subscribes, unsubscribes one filter, and acks
	// part of what it was sent (the retained replay among it).
	p1 := connectLive(t, b, "p1", false, 64)
	p1.subscribe(b, "cfg/#", "jobs/#", "x/y")
	b.handleUnsubscribe(p1.sess, &wire.UnsubscribePacket{PacketID: 2, TopicFilters: []string{"x/y"}})
	for i := 0; i < 6; i++ {
		pub(fmt.Sprintf("jobs/%d", i), "j", false)
	}
	sent := p1.drain()
	if len(sent) != 7 {
		t.Fatalf("p1 was sent %d publishes, want 7", len(sent))
	}
	for _, i := range []int{0, 2, 3} {
		p1.sess.ack(sent[i].PacketID)
	}

	// A QoS1 message parked behind a full size-1 queue, between two sent.
	p2 := connectLive(t, b, "p2", false, 1)
	p2.subscribe(b, "park/#")
	p2.drain()
	pub("park/0", "0", false)
	pub("park/1", "1", false) // the queue is full: parked in its slot
	p2.drain()
	pub("park/2", "2", false)
	p2.disconnect(b)

	midway(func() {
		// An offline queue driven past its bound, an ack and a retained
		// overwrite.
		p3 := connectLive(t, b, "p3", false, 8)
		p3.subscribe(b, "flood/#")
		p3.disconnect(b)
		for i := 0; i < maxQueuedOffline+10; i++ {
			pub("flood/t", fmt.Sprint(i), false)
		}
		p1.sess.ack(sent[5].PacketID)
		pub("cfg/a", "a3", true)
	})

	// A clean-session takeover discards a persistent client's state.
	p4 := connectLive(t, b, "p4", false, 8)
	p4.subscribe(b, "t/#")
	p4.disconnect(b)
	pub("t/1", "gone", false)
	connectLive(t, b, "p4", true, 8).disconnect(b)
}

// WAL replay rebuilds exactly the state the live path journaled: a second
// broker opened on the store captures byte-for-byte the same durable state,
// without a snapshot and across one whose capture raced further changes
// (so their records replay on top of it).
func TestBrokerReplayEquivalence(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", snapshot), func(t *testing.T) {
			st := store.NewMemStore()
			b, err := Open(Options{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			driveDurableFacts(t, b, func(more func()) {
				if !snapshot {
					more()
					return
				}
				if err := st.SaveSnapshot(func() ([]byte, error) {
					more()
					return b.captureState()
				}); err != nil {
					t.Fatal(err)
				}
			})
			live, err := b.captureState()
			if err != nil {
				t.Fatal(err)
			}

			b2, err := Open(Options{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			defer b2.Close()
			replayed, err := b2.captureState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(replayed, live) {
				t.Fatalf("replayed state differs from live:\nlive:     %.2000s\nreplayed: %.2000s", live, replayed)
			}
			ls, rs := b.Stats(), b2.Stats()
			if ls.Sessions != rs.Sessions || ls.Subscriptions != rs.Subscriptions || ls.RetainedMessages != rs.RetainedMessages {
				t.Fatalf("stats: live %+v, replayed %+v", ls, rs)
			}
		})
	}
}

// A data dir written before the window refactor recovers: its snapshot and
// WAL formats are unchanged, duplicate queue records across the snapshot
// mark apply once, and an ack for an unknown message is a no-op.
func TestBrokerRecoversParentJournal(t *testing.T) {
	st := store.NewMemStore()
	snap := `{"msg_seq":7,` +
		`"retained":[{"topic":"cfg/a","payload":"YTE=","qos":1}],` +
		`"sessions":[{"client":"dev","subs":{"cfg/#":0,"jobs/#":1},"msgs":[` +
		`{"id":5,"topic":"jobs/1","payload":"b25l","qos":1},` +
		`{"id":7,"topic":"jobs/2","payload":"dHdv","qos":1}]}]}`
	if err := st.SaveSnapshot(func() ([]byte, error) { return []byte(snap), nil }); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"op":"q","client":"dev","topic":"jobs/2","payload":"dHdv","qos":1,"id":7}`, // also in the snapshot
		`{"op":"q","client":"dev","topic":"jobs/3","payload":"dGhyZWU=","qos":1,"id":8}`,
		`{"op":"ack","client":"dev","id":5}`,
		`{"op":"ack","client":"dev","id":6}`, // unknown
		`{"op":"unsub","client":"dev","filter":"cfg/#"}`,
		`{"op":"ret","topic":"cfg/b","payload":"YjE=","qos":1}`,
		`{"op":"ret","topic":"cfg/a"}`,
		`{"op":"sess","client":"other"}`,
		`{"op":"sub","client":"other","filter":"o/+","qos":1}`,
		`{"op":"sess","client":"gone"}`,
		`{"op":"sub","client":"gone","filter":"g","qos":1}`,
		`{"op":"q","client":"gone","topic":"g","payload":"Zw==","qos":1,"id":9}`,
		`{"op":"sessrm","client":"gone"}`,
	} {
		if err := st.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}

	b, err := Open(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if s := b.Stats(); s.Sessions != 2 || s.Subscriptions != 2 || s.RetainedMessages != 1 {
		t.Fatalf("recovered %+v, want 2 sessions, 2 subscriptions, 1 retained", s)
	}
	if got := string(b.retained["cfg/b"].payload); got != "b1" {
		t.Fatalf("retained cfg/b = %q, want b1", got)
	}
	if got := b.persist.msgSeq.Load(); got < 9 {
		t.Fatalf("message sequence resumes at %d, below recovered ID 9", got)
	}
	dev, other := b.sessions["dev"], b.sessions["other"]
	if dev == nil || other == nil {
		t.Fatalf("sessions = %v, want dev and other", b.sessions)
	}
	if subs := dev.subscriptions; len(subs) != 1 || subs["jobs/#"] != wire.QoS1 {
		t.Fatalf("dev subscriptions = %v", subs)
	}
	if subs := other.subscriptions; len(subs) != 1 || subs["o/+"] != wire.QoS1 {
		t.Fatalf("other subscriptions = %v", subs)
	}
	_, resend, _ := dev.attach(8)
	var got []string
	for _, p := range resend {
		got = append(got, p.Topic+"="+string(p.Payload))
	}
	if fmt.Sprint(got) != "[jobs/2=two jobs/3=three]" {
		t.Fatalf("dev queue = %v, want [jobs/2=two jobs/3=three]", got)
	}
}
