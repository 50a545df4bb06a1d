package broker

import (
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/netsim"
	"github.com/ifot-middleware/ifot/internal/wire"
)

func TestBrokerEnforcesMaxPacketSize(t *testing.T) {
	bus := newTestBus(t, Options{MaxPacketSize: 256})
	c := bus.connect(t, mqttclient.NewOptions("big"))

	// An oversized publish kills the connection server-side.
	_ = c.Publish("t", make([]byte, 1024), wire.QoS0, false)
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("oversized packet did not terminate the connection")
	}
}

func TestBrokerMaxQoSGrantsLower(t *testing.T) {
	bus := newTestBus(t, Options{MaxQoS: wire.QoS1})
	c := bus.connect(t, mqttclient.NewOptions("q"))
	granted, err := c.Subscribe("t", wire.QoS2, func(mqttclient.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if granted != wire.QoS1 {
		t.Fatalf("granted = %v, want capped QoS1", granted)
	}
}

func TestBrokerKeepAliveTimeoutDisconnects(t *testing.T) {
	bus := newTestBus(t, Options{})
	conn, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	// Keep-alive 1s and a single ping pipelined behind CONNECT, then
	// silence: once the read buffer has drained the broker is back on the
	// socket's deadline and must drop us after ~1.5s.
	connect, err := wire.Encode(&wire.ConnectPacket{ClientID: "sleepy", CleanSession: true, KeepAlive: 1})
	if err != nil {
		t.Fatal(err)
	}
	ping, _ := wire.Encode(&wire.PingreqPacket{})
	if _, err := conn.Write(append(connect, ping...)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []wire.PacketType{wire.CONNACK, wire.PINGRESP} {
		if p, err := wire.ReadPacket(conn, 0); err != nil || p.Type() != want {
			t.Fatalf("got %v, %v; want %v", p, err, want)
		}
	}
	start := time.Now()
	_, err = wire.ReadPacket(conn, 0) // blocks until broker closes
	if err == nil {
		t.Fatal("expected connection to be dropped")
	}
	elapsed := time.Since(start)
	if elapsed < time.Second || elapsed > 10*time.Second {
		t.Fatalf("dropped after %v, want ~1.5s keep-alive window", elapsed)
	}
}

func TestBrokerSecondConnectPacketDisconnects(t *testing.T) {
	bus := newTestBus(t, Options{})
	conn, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	connect := &wire.ConnectPacket{ClientID: "dupe", CleanSession: true}
	if err := wire.WritePacket(conn, connect); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadPacket(conn, 0); err != nil {
		t.Fatal(err)
	}
	if err := wire.WritePacket(conn, connect); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadPacket(conn, 0); err == nil {
		t.Fatal("broker tolerated a second CONNECT")
	}
}

// A QoS 0 PUBLISH with DUP set violates MQTT-3.3.1-2: the broker drops
// the connection.
func TestBrokerDropsQoS0PublishWithDup(t *testing.T) {
	bus := newTestBus(t, Options{})
	conn, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WritePacket(conn, &wire.ConnectPacket{ClientID: "dup0", CleanSession: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadPacket(conn, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0x38, 0x04, 0x00, 0x01, 'a', 'x'}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadPacket(conn, 0); err == nil {
		t.Fatal("broker tolerated a QoS 0 PUBLISH with DUP set")
	}
}

func TestBrokerFanOutToManySubscribers(t *testing.T) {
	bus := newTestBus(t, Options{})
	const subscribers = 20
	received := make(chan int, subscribers*4)
	for i := 0; i < subscribers; i++ {
		i := i
		c := bus.connect(t, mqttclient.NewOptions(clientName("fan", i)))
		if _, err := c.Subscribe("fan/t", wire.QoS0, func(mqttclient.Message) {
			received <- i
		}); err != nil {
			t.Fatal(err)
		}
	}
	pub := bus.connect(t, mqttclient.NewOptions("fan-pub"))
	if err := pub.Publish("fan/t", []byte("x"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	deadline := time.After(10 * time.Second)
	for len(seen) < subscribers {
		select {
		case i := <-received:
			seen[i] = true
		case <-deadline:
			t.Fatalf("only %d/%d subscribers received the fan-out", len(seen), subscribers)
		}
	}
}

func TestBrokerManyTopicsRouteIndependently(t *testing.T) {
	bus := newTestBus(t, Options{})
	sub := bus.connect(t, mqttclient.NewOptions("multi-sub"))
	type rx struct {
		topic   string
		payload string
	}
	got := make(chan rx, 64)
	for _, topic := range []string{"room/1/temp", "room/2/temp", "room/1/hum"} {
		if _, err := sub.Subscribe(topic, wire.QoS0, func(m mqttclient.Message) {
			got <- rx{m.Topic, string(m.Payload)}
		}); err != nil {
			t.Fatal(err)
		}
	}
	pub := bus.connect(t, mqttclient.NewOptions("multi-pub"))
	if err := pub.Publish("room/2/temp", []byte("22"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.topic != "room/2/temp" || r.payload != "22" {
			t.Fatalf("got %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
	select {
	case r := <-got:
		t.Fatalf("unexpected extra delivery %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestBrokerWithDelayedLinks(t *testing.T) {
	b := New(Options{})
	l := netsim.NewPipeListener()
	go func() { _ = b.Serve(l) }()
	t.Cleanup(func() { _ = b.Close(); _ = l.Close() })

	dialDelayed := func(seed int64) *mqttclient.Client {
		conn, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		delayed := netsim.NewDelayConn(conn, netsim.Profile{Latency: 5 * time.Millisecond}, seed)
		c, err := mqttclient.Connect(delayed, mqttclient.NewOptions(clientName("lag", int(seed))))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	sub := dialDelayed(1)
	pub := dialDelayed(2)
	got := make(chan time.Time, 1)
	if _, err := sub.Subscribe("lag/t", wire.QoS0, func(mqttclient.Message) { got <- time.Now() }); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	if err := pub.Publish("lag/t", []byte("x"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if lat := at.Sub(sent); lat < 5*time.Millisecond {
			t.Fatalf("latency %v below the injected link delay", lat)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery over delayed links")
	}
}

func clientName(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestBrokerAcceptsLegacyMQTT31(t *testing.T) {
	bus := newTestBus(t, Options{})
	conn, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	connect := &wire.ConnectPacket{
		ClientID:      "legacy31",
		CleanSession:  true,
		ProtocolLevel: wire.ProtocolLevel31,
	}
	if err := wire.WritePacket(conn, connect); err != nil {
		t.Fatal(err)
	}
	pkt, err := wire.ReadPacket(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := pkt.(*wire.ConnackPacket)
	if !ok || ack.Code != wire.ConnAccepted {
		t.Fatalf("3.1 CONNECT answered with %+v", pkt)
	}
}

func TestBrokerRefusesUnknownProtocolLevel(t *testing.T) {
	bus := newTestBus(t, Options{})
	conn, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Hand-craft a CONNECT with level 5 (MQTT 5).
	connect := &wire.ConnectPacket{ClientID: "v5", CleanSession: true}
	data, err := wire.Encode(connect)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 5 // protocol level byte
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	pkt, err := wire.ReadPacket(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := pkt.(*wire.ConnackPacket)
	if !ok || ack.Code != wire.ConnRefusedVersion {
		t.Fatalf("level-5 CONNECT answered with %+v, want refused-version", pkt)
	}
}
