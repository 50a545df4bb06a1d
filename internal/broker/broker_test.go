package broker

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/netsim"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// testBus bundles a broker with an in-memory listener.
type testBus struct {
	broker   *Broker
	listener *netsim.PipeListener
}

func newTestBus(t *testing.T, opts Options) *testBus {
	t.Helper()
	b := New(opts)
	l := netsim.NewPipeListener()
	go func() { _ = b.Serve(l) }()
	t.Cleanup(func() {
		_ = b.Close()
		_ = l.Close()
	})
	return &testBus{broker: b, listener: l}
}

func (tb *testBus) connect(t *testing.T, opts mqttclient.Options) *mqttclient.Client {
	t.Helper()
	conn, err := tb.listener.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c, err := mqttclient.Connect(conn, opts)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPublishSubscribeQoS0(t *testing.T) {
	bus := newTestBus(t, Options{})
	sub := bus.connect(t, mqttclient.NewOptions("sub"))
	pub := bus.connect(t, mqttclient.NewOptions("pub"))

	var mu sync.Mutex
	var got []mqttclient.Message
	if _, err := sub.Subscribe("ifot/sensor/+", wire.QoS0, func(m mqttclient.Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	if err := pub.Publish("ifot/sensor/acc", []byte("hello"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "message delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0].Topic != "ifot/sensor/acc" || string(got[0].Payload) != "hello" {
		t.Fatalf("got %+v", got[0])
	}
}

func TestPublishQoS1Acked(t *testing.T) {
	bus := newTestBus(t, Options{})
	sub := bus.connect(t, mqttclient.NewOptions("sub"))
	pub := bus.connect(t, mqttclient.NewOptions("pub"))

	received := make(chan mqttclient.Message, 1)
	granted, err := sub.Subscribe("t/q1", wire.QoS1, func(m mqttclient.Message) { received <- m })
	if err != nil {
		t.Fatal(err)
	}
	if granted != wire.QoS1 {
		t.Fatalf("granted = %v, want QoS1", granted)
	}

	// Publish blocks until PUBACK under QoS1 — returning nil proves the
	// broker acked.
	if err := pub.Publish("t/q1", []byte("x"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-received:
		if m.QoS != wire.QoS1 {
			t.Fatalf("delivered QoS = %v, want QoS1", m.QoS)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestQoSDowngradeToSubscriberLevel(t *testing.T) {
	bus := newTestBus(t, Options{})
	sub := bus.connect(t, mqttclient.NewOptions("sub"))
	pub := bus.connect(t, mqttclient.NewOptions("pub"))

	received := make(chan mqttclient.Message, 1)
	if _, err := sub.Subscribe("t", wire.QoS0, func(m mqttclient.Message) { received <- m }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("t", []byte("x"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-received:
		if m.QoS != wire.QoS0 {
			t.Fatalf("delivered QoS = %v, want downgraded QoS0", m.QoS)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestRetainedMessageReplay(t *testing.T) {
	bus := newTestBus(t, Options{})
	pub := bus.connect(t, mqttclient.NewOptions("pub"))

	if err := pub.Publish("conf/room1", []byte("25C"), wire.QoS1, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "retained store", func() bool { return bus.broker.Stats().RetainedMessages == 1 })

	// A later subscriber receives the retained message with Retain set.
	sub := bus.connect(t, mqttclient.NewOptions("late-sub"))
	received := make(chan mqttclient.Message, 1)
	if _, err := sub.Subscribe("conf/#", wire.QoS1, func(m mqttclient.Message) { received <- m }); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-received:
		if !m.Retain || string(m.Payload) != "25C" {
			t.Fatalf("retained replay = %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retained message not replayed")
	}
}

func TestRetainedMessageCleared(t *testing.T) {
	bus := newTestBus(t, Options{})
	pub := bus.connect(t, mqttclient.NewOptions("pub"))

	if err := pub.Publish("conf/x", []byte("v"), wire.QoS0, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "retained stored", func() bool { return bus.broker.Stats().RetainedMessages == 1 })
	// Empty retained payload clears the slot.
	if err := pub.Publish("conf/x", nil, wire.QoS0, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "retained cleared", func() bool { return bus.broker.Stats().RetainedMessages == 0 })
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	bus := newTestBus(t, Options{})
	sub := bus.connect(t, mqttclient.NewOptions("sub"))
	pub := bus.connect(t, mqttclient.NewOptions("pub"))

	var count int
	var mu sync.Mutex
	if _, err := sub.Subscribe("u/t", wire.QoS1, func(mqttclient.Message) {
		mu.Lock()
		count++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("u/t", []byte("1"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first delivery", func() bool { mu.Lock(); defer mu.Unlock(); return count == 1 })

	if err := sub.Unsubscribe("u/t"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("u/t", []byte("2"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("received %d messages after unsubscribe, want 1", count)
	}
}

func TestWillPublishedOnAbnormalDisconnect(t *testing.T) {
	bus := newTestBus(t, Options{})
	watcher := bus.connect(t, mqttclient.NewOptions("watcher"))
	will := make(chan mqttclient.Message, 1)
	if _, err := watcher.Subscribe("status/+", wire.QoS1, func(m mqttclient.Message) { will <- m }); err != nil {
		t.Fatal(err)
	}

	opts := mqttclient.NewOptions("dying")
	opts.Will = &mqttclient.Message{Topic: "status/dying", Payload: []byte("offline"), QoS: wire.QoS1}
	dying := bus.connect(t, opts)
	_ = dying.Close() // abnormal: no DISCONNECT packet

	select {
	case m := <-will:
		if string(m.Payload) != "offline" {
			t.Fatalf("will payload = %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("will message not published")
	}
}

func TestNoWillOnGracefulDisconnect(t *testing.T) {
	bus := newTestBus(t, Options{})
	watcher := bus.connect(t, mqttclient.NewOptions("watcher"))
	will := make(chan mqttclient.Message, 1)
	if _, err := watcher.Subscribe("status/+", wire.QoS1, func(m mqttclient.Message) { will <- m }); err != nil {
		t.Fatal(err)
	}

	opts := mqttclient.NewOptions("leaving")
	opts.Will = &mqttclient.Message{Topic: "status/leaving", Payload: []byte("offline")}
	leaving := bus.connect(t, opts)
	if err := leaving.Disconnect(); err != nil {
		t.Fatal(err)
	}

	select {
	case m := <-will:
		t.Fatalf("will %+v published despite graceful disconnect", m)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestPersistentSessionQueuesWhileOffline(t *testing.T) {
	bus := newTestBus(t, Options{})
	pub := bus.connect(t, mqttclient.NewOptions("pub"))

	subOpts := mqttclient.NewOptions("persist")
	subOpts.CleanSession = false
	sub := bus.connect(t, subOpts)
	if _, err := sub.Subscribe("p/t", wire.QoS1, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Disconnect(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscriber offline", func() bool { return bus.broker.Stats().ConnectedClients == 1 })

	// Publish while the persistent subscriber is offline.
	if err := pub.Publish("p/t", []byte("queued"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}

	// Reconnect with the same client ID and CleanSession=false: the
	// queued message must be delivered. The broker kept the subscription,
	// so the replay can arrive before any Subscribe call — catch it with
	// the default handler.
	received := make(chan mqttclient.Message, 4)
	subOpts.DefaultHandler = func(m mqttclient.Message) { received <- m }
	_ = bus.connect(t, subOpts)
	select {
	case m := <-received:
		if string(m.Payload) != "queued" {
			t.Fatalf("queued payload = %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued message not delivered on reconnect")
	}
}

// A reconnecting persistent subscriber gets its whole parked backlog, not
// just the first sessionQueueSize of it: redelivery is written by the
// connection writer ahead of the queue, never through it.
func TestReconnectRedeliversWholeBacklog(t *testing.T) {
	const backlog = 600 // > sessionQueueSize (256), < maxQueuedOffline
	bus := newTestBus(t, Options{})
	pub := bus.connect(t, mqttclient.NewOptions("pub"))

	subOpts := mqttclient.NewOptions("persist")
	subOpts.CleanSession = false
	sub := bus.connect(t, subOpts)
	if _, err := sub.Subscribe("p/#", wire.QoS1, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Disconnect(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscriber offline", func() bool { return bus.broker.Stats().ConnectedClients == 1 })
	for i := 0; i < backlog; i++ {
		if err := pub.Publish("p/t", []byte{byte(i), byte(i >> 8)}, wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	droppedBefore := bus.broker.Stats().MessagesDropped

	received := make(chan mqttclient.Message, backlog)
	subOpts.DefaultHandler = func(m mqttclient.Message) { received <- m }
	_ = bus.connect(t, subOpts)
	for i := 0; i < backlog; i++ {
		select {
		case m := <-received:
			if got := int(m.Payload[0]) | int(m.Payload[1])<<8; got != i {
				t.Fatalf("backlog message %d arrived in position %d", got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d of %d, dropped=%d", i, backlog,
				bus.broker.Stats().MessagesDropped-droppedBefore)
		}
	}
	if d := bus.broker.Stats().MessagesDropped - droppedBefore; d != 0 {
		t.Fatalf("reconnect counted %d drops", d)
	}
}

// Stats().MessagesDropped is cumulative: a clean session's drops stay in
// the total after the session itself is discarded.
func TestDroppedTotalSurvivesSessionDiscard(t *testing.T) {
	bus := newTestBus(t, Options{sessionQueueSize: 1})
	conn, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A raw subscriber that stops reading after SUBACK: its writer blocks on
	// the pipe, the one-slot queue fills, and further publishes are dropped.
	for _, step := range []struct {
		send wire.Packet
		want wire.PacketType
	}{
		{&wire.ConnectPacket{ClientID: "stuck", CleanSession: true}, wire.CONNACK},
		{&wire.SubscribePacket{PacketID: 1, Subscriptions: []wire.Subscription{{TopicFilter: "d/t"}}}, wire.SUBACK},
	} {
		if err := wire.WritePacket(conn, step.send); err != nil {
			t.Fatal(err)
		}
		if pkt, err := wire.ReadPacket(conn, 1<<20); err != nil || pkt.Type() != step.want {
			t.Fatalf("handshake: got %v, %v; want %v", pkt, err, step.want)
		}
	}
	for i := 0; i < 8; i++ {
		bus.broker.Publish("d/t", []byte("x"), wire.QoS0, false)
	}
	dropped := bus.broker.Stats().MessagesDropped
	if dropped == 0 {
		t.Fatal("no drop on a full one-slot queue")
	}

	_ = conn.Close()
	waitFor(t, "session discard", func() bool { return bus.broker.Stats().Sessions == 0 })
	if got := bus.broker.Stats().MessagesDropped; got < dropped {
		t.Fatalf("MessagesDropped ran backwards: %d after the session was discarded, %d before", got, dropped)
	}
}

// A second CONNECT with a client's ID takes the connection over. A clean
// takeover discards the subscribed session, and its routes go with it; a
// persistent re-attach keeps the session and its routes.
func TestSessionTakeover(t *testing.T) {
	bus := newTestBus(t, Options{})
	first := bus.connect(t, mqttclient.NewOptions("dup-id"))
	if _, err := first.Subscribe("take/t", wire.QoS0, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	if n := bus.broker.Stats().Subscriptions; n != 1 {
		t.Fatalf("Subscriptions = %d before the takeover, want 1", n)
	}
	_ = bus.connect(t, mqttclient.NewOptions("dup-id"))

	select {
	case <-first.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("first connection not taken over")
	}
	waitFor(t, "single connection", func() bool { return bus.broker.Stats().ConnectedClients == 1 })
	if n := bus.broker.Stats().Subscriptions; n != 0 {
		t.Fatalf("Subscriptions = %d after a clean takeover, want 0", n)
	}
	mb := getMatchBuf()
	defer mb.release()
	if subs := bus.broker.routes.Load().match("take/t", mb); len(subs) != 0 {
		t.Fatalf("the discarded session is still routed to: %v", idsRoute(subs))
	}
	// Publish fans out before it returns: a stale route would count a drop.
	base := bus.broker.Stats()
	bus.broker.Publish("take/t", []byte("x"), wire.QoS0, false)
	if st := bus.broker.Stats(); st.MessagesDropped != base.MessagesDropped {
		t.Fatalf("a publish to the old filter reached a session: %d drops", st.MessagesDropped-base.MessagesDropped)
	}

	opts := mqttclient.NewOptions("keep")
	opts.CleanSession = false
	kept := bus.connect(t, opts)
	if _, err := kept.Subscribe("keep/t", wire.QoS1, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	got := make(chan mqttclient.Message, 1)
	opts.DefaultHandler = func(m mqttclient.Message) { got <- m }
	_ = bus.connect(t, opts)
	select {
	case <-kept.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("persistent connection not taken over")
	}
	if n := bus.broker.Stats().Subscriptions; n != 1 {
		t.Fatalf("Subscriptions = %d after a persistent re-attach, want 1", n)
	}
	bus.broker.Publish("keep/t", []byte("y"), wire.QoS1, false)
	select {
	case m := <-got:
		if m.Topic != "keep/t" || string(m.Payload) != "y" {
			t.Fatalf("re-attached client got %s=%q, want keep/t=y", m.Topic, m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the re-attached session's route was lost")
	}
}

func TestAuthenticatorRejects(t *testing.T) {
	bus := newTestBus(t, Options{
		Authenticator: func(clientID, username string, password []byte) bool {
			return username == "ok"
		},
	})
	conn, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	opts := mqttclient.NewOptions("c")
	opts.Username = "bad"
	_, err = mqttclient.Connect(conn, opts)
	if !errors.Is(err, mqttclient.ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}

	conn2, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	opts.Username = "ok"
	c, err := mqttclient.Connect(conn2, opts)
	if err != nil {
		t.Fatalf("valid credentials rejected: %v", err)
	}
	_ = c.Close()
}

func TestRejectsEmptyClientIDWithPersistentSession(t *testing.T) {
	bus := newTestBus(t, Options{})
	conn, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	opts := mqttclient.Options{ClientID: "", CleanSession: false}
	if _, err := mqttclient.Connect(conn, opts); !errors.Is(err, mqttclient.ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestQoS2InboundDelivedOnceWithHandshake(t *testing.T) {
	bus := newTestBus(t, Options{})
	sub := bus.connect(t, mqttclient.NewOptions("sub"))
	received := make(chan mqttclient.Message, 2)
	if _, err := sub.Subscribe("q2/t", wire.QoS1, func(m mqttclient.Message) { received <- m }); err != nil {
		t.Fatal(err)
	}

	// Drive the raw protocol to send a QoS2 publish.
	conn, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WritePacket(conn, &wire.ConnectPacket{ClientID: "raw", CleanSession: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadPacket(conn, 0); err != nil { // CONNACK
		t.Fatal(err)
	}
	pub := &wire.PublishPacket{Topic: "q2/t", Payload: []byte("x"), QoS: wire.QoS2, PacketID: 77}
	if err := wire.WritePacket(conn, pub); err != nil {
		t.Fatal(err)
	}
	pkt, err := wire.ReadPacket(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := pkt.(*wire.AckPacket)
	if !ok || rec.PacketType != wire.PUBREC || rec.PacketID != 77 {
		t.Fatalf("got %+v, want PUBREC id=77", pkt)
	}
	// Duplicate before PUBREL must not be redelivered.
	pubDup := *pub
	pubDup.Dup = true
	if err := wire.WritePacket(conn, &pubDup); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadPacket(conn, 0); err != nil { // second PUBREC
		t.Fatal(err)
	}
	if err := wire.WritePacket(conn, &wire.AckPacket{PacketType: wire.PUBREL, PacketID: 77}); err != nil {
		t.Fatal(err)
	}
	pkt, err = wire.ReadPacket(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if comp, ok := pkt.(*wire.AckPacket); !ok || comp.PacketType != wire.PUBCOMP {
		t.Fatalf("got %+v, want PUBCOMP", pkt)
	}

	select {
	case <-received:
	case <-time.After(5 * time.Second):
		t.Fatal("QoS2 publish never delivered")
	}
	select {
	case m := <-received:
		t.Fatalf("duplicate QoS2 publish delivered: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestBrokerStats(t *testing.T) {
	bus := newTestBus(t, Options{})
	sub := bus.connect(t, mqttclient.NewOptions("sub"))
	pub := bus.connect(t, mqttclient.NewOptions("pub"))
	if _, err := sub.Subscribe("s/t", wire.QoS0, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("s/t", []byte("x"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stats", func() bool {
		st := bus.broker.Stats()
		return st.ConnectedClients == 2 && st.Subscriptions == 1 &&
			st.MessagesReceived >= 1 && st.MessagesDelivered >= 1
	})
}

// A client that has seen its SUBACK may tell a peer to publish at once; the
// subscription must already be routed to by then.
func TestSubackMeansRouted(t *testing.T) {
	bus := newTestBus(t, Options{})
	sub := bus.connect(t, mqttclient.NewOptions("sub"))
	pub := bus.connect(t, mqttclient.NewOptions("pub"))
	got := make(chan string, 1)
	for i := 0; i < 200; i++ {
		topic := clientName("acked", i)
		if _, err := sub.Subscribe(topic, wire.QoS0, func(m mqttclient.Message) { got <- m.Topic }); err != nil {
			t.Fatal(err)
		}
		if err := pub.Publish(topic, []byte("x"), wire.QoS0, false); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("publish to %s right after its SUBACK was not delivered", topic)
		}
	}
}

func TestBrokerCloseDisconnectsClients(t *testing.T) {
	b := New(Options{})
	l := netsim.NewPipeListener()
	go func() { _ = b.Serve(l) }()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := mqttclient.Connect(conn, mqttclient.NewOptions("c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client not disconnected by broker close")
	}
	_ = l.Close()
}

func TestServeAfterCloseFails(t *testing.T) {
	b := New(Options{})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Serve(netsim.NewPipeListener()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Close = %v, want ErrClosed", err)
	}
}

func TestBrokerOverTCP(t *testing.T) {
	b := New(Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	t.Cleanup(func() { _ = b.Close() })

	sub, err := mqttclient.Dial(l.Addr().String(), mqttclient.NewOptions("tcp-sub"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := mqttclient.Dial(l.Addr().String(), mqttclient.NewOptions("tcp-pub"))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	got := make(chan mqttclient.Message, 1)
	if _, err := sub.Subscribe("tcp/t", wire.QoS1, func(m mqttclient.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("tcp/t", []byte("over tcp"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if string(m.Payload) != "over tcp" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery over TCP")
	}
}
