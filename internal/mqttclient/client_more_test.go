package mqttclient

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/netsim"
	"github.com/ifot-middleware/ifot/internal/wire"
)

func TestClientDialTCP(t *testing.T) {
	b := broker.New(broker.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	t.Cleanup(func() { _ = b.Close() })

	c, err := Dial(l.Addr().String(), NewOptions("dialer"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish("t", []byte("x"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
}

func TestClientDialRefused(t *testing.T) {
	// Nothing listens on this port (bind then close to reserve).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	if _, err := Dial(addr, NewOptions("nope")); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func TestClientDoneClosesOnServerDrop(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	select {
	case <-c.Done():
		t.Fatal("Done closed while connected")
	default:
	}
	_ = c.conn.Close()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not closed after transport loss")
	}
}

func TestHandlerRegistrationRemove(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))

	first := make(chan Message, 4)
	second := make(chan Message, 4)
	_, reg1, err := c.SubscribeHandle("shared/t", wire.QoS0, func(m Message) { first <- m })
	if err != nil {
		t.Fatal(err)
	}
	if reg1.Filter() != "shared/t" {
		t.Fatalf("Filter() = %q", reg1.Filter())
	}
	if _, _, err := c.SubscribeHandle("shared/t", wire.QoS0, func(m Message) { second <- m }); err != nil {
		t.Fatal(err)
	}

	// Removing one handler must leave the other attached.
	reg1.Remove()
	if err := c.Publish("shared/t", []byte("x"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-second:
	case <-time.After(5 * time.Second):
		t.Fatal("surviving handler not invoked")
	}
	select {
	case <-first:
		t.Fatal("removed handler invoked")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestClientAckTimeout: on a virtual clock, a publish the broker never
// acknowledges fails with ErrAckTimeout no earlier than AckTimeout after it
// was sent and no later than one sweep period after that.
func TestClientAckTimeout(t *testing.T) {
	conn, pubs, _ := silentBroker(t)
	v := clock.NewVirtual(virtualEpoch)
	opts := NewOptions("quiet")
	opts.AckTimeout = 10 * time.Second
	opts.clock = v
	c, err := Connect(conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	awaitArmed(t, v)
	sweep := opts.AckTimeout / sweepsPerAckTimeout
	advance(t, v, sweep/2) // send between two sweeps

	sentAt := v.Now()
	res := make(chan error, 1)
	go func() { res <- c.Publish("t", []byte("x"), wire.QoS1, false) }()
	recv(t, pubs, "PUBLISH")
	awaitSent(t, c, 1)
	for c.pendingLen() == 1 {
		if waited := v.Now().Sub(sentAt); waited > opts.AckTimeout+sweep {
			t.Fatalf("still waiting %v after the send", waited)
		}
		advance(t, v, sweep/4)
	}
	if waited := v.Now().Sub(sentAt); waited < opts.AckTimeout {
		t.Fatalf("timed out %v after the send, before AckTimeout %v", waited, opts.AckTimeout)
	}
	if err := recv(t, res, "publish result"); !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("err = %v, want ErrAckTimeout", err)
	}
}

func TestClientConnectRejectsNonConnack(t *testing.T) {
	listener := netsim.NewPipeListener()
	t.Cleanup(func() { _ = listener.Close() })
	go func() {
		conn, err := listener.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadPacket(conn, 0); err != nil {
			return
		}
		_ = wire.WritePacket(conn, &wire.PingrespPacket{}) // not a CONNACK
		time.Sleep(time.Second)
	}()
	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := Connect(conn, NewOptions("x")); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestClientQoS1RetainedPublishFlagPreserved(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	// The QoS 0 frame is encoded by a different path; the QoS 1 publish
	// after it returns only once the broker has read both.
	if err := c.Publish("t", []byte("x"), wire.QoS0, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("t", []byte("x"), wire.QoS1, true); err != nil {
		t.Fatal(err)
	}
	var qos []wire.QoS
	for _, p := range fb.packets() {
		if pub, ok := p.(*wire.PublishPacket); ok {
			if !pub.Retain {
				t.Fatalf("retain flag lost on the wire at QoS %d", pub.QoS)
			}
			qos = append(qos, pub.QoS)
		}
	}
	if len(qos) != 2 || qos[0] != wire.QoS0 || qos[1] != wire.QoS1 {
		t.Fatalf("broker read publishes at QoS %v, want [0 1]", qos)
	}
}

func TestClientInboundQoS1IsAcked(t *testing.T) {
	// Real broker: subscribing at QoS1 and receiving a QoS1 message
	// requires the client to PUBACK or the broker would keep it inflight.
	b := broker.New(broker.Options{})
	listener := netsim.NewPipeListener()
	go func() { _ = b.Serve(listener) }()
	t.Cleanup(func() { _ = b.Close(); _ = listener.Close() })

	subConn, _ := listener.Dial()
	sub, err := Connect(subConn, NewOptions("sub"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := make(chan Message, 1)
	if _, err := sub.Subscribe("q1/t", wire.QoS1, func(m Message) { got <- m }); err != nil {
		t.Fatal(err)
	}

	pubConn, _ := listener.Dial()
	pub, err := Connect(pubConn, NewOptions("pub"))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish("q1/t", []byte("x"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.QoS != wire.QoS1 {
			t.Fatalf("QoS = %v", m.QoS)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
	// The broker's inflight window must drain (client acked).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().MessagesDelivered >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("delivery not accounted")
}

// Publish keeps no reference to the payload once it returns, at QoS 0 and
// QoS 1: a caller may overwrite or reuse the buffer at once, and the
// subscriber still receives the bytes that were passed.
func TestPublishPayloadNotRetained(t *testing.T) {
	b := broker.New(broker.Options{})
	listener := netsim.NewPipeListener()
	go func() { _ = b.Serve(listener) }()
	t.Cleanup(func() { _ = b.Close(); _ = listener.Close() })
	connect := func(id string) *Client {
		conn, err := listener.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c, err := Connect(conn, NewOptions(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	sub, pub := connect("sub"), connect("pub")
	const msgs = 50
	for _, qos := range []wire.QoS{wire.QoS0, wire.QoS1} {
		topic := fmt.Sprintf("reuse/%d", qos)
		got := make(chan string, msgs)
		if _, err := sub.Subscribe(topic, qos, func(m Message) { got <- string(m.Payload) }); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, 64)
		for i := 0; i < msgs; i++ {
			buf = fmt.Appendf(buf[:0], "message %03d at QoS %d", i, qos)
			if err := pub.Publish(topic, buf, qos, false); err != nil {
				t.Fatal(err)
			}
			for j := range buf {
				buf[j] = 'X'
			}
		}
		for i := 0; i < msgs; i++ {
			select {
			case p := <-got:
				if want := fmt.Sprintf("message %03d at QoS %d", i, qos); p != want {
					t.Fatalf("QoS %d: received %q, want %q", qos, p, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("QoS %d: %d of %d messages received", qos, i, msgs)
			}
		}
	}
}
