package mqttclient

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/netsim"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// fakeBroker implements just enough broker behaviour to unit-test the
// client against scripted responses.
type fakeBroker struct {
	listener *netsim.PipeListener
	mu       sync.Mutex
	inbound  []wire.Packet
}

func newFakeBroker(t *testing.T) *fakeBroker {
	t.Helper()
	fb := &fakeBroker{listener: netsim.NewPipeListener()}
	go fb.serve()
	t.Cleanup(func() { _ = fb.listener.Close() })
	return fb
}

func (fb *fakeBroker) serve() {
	for {
		conn, err := fb.listener.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			for {
				pkt, err := wire.ReadPacket(conn, 0)
				if err != nil {
					return
				}
				fb.mu.Lock()
				fb.inbound = append(fb.inbound, pkt)
				fb.mu.Unlock()
				switch p := pkt.(type) {
				case *wire.ConnectPacket:
					_ = wire.WritePacket(conn, &wire.ConnackPacket{Code: wire.ConnAccepted})
				case *wire.PublishPacket:
					if p.QoS == wire.QoS1 {
						_ = wire.WritePacket(conn, &wire.AckPacket{PacketType: wire.PUBACK, PacketID: p.PacketID})
					}
					// Echo back to exercise the dispatch path.
					echo := *p
					echo.QoS = wire.QoS0
					echo.PacketID = 0
					_ = wire.WritePacket(conn, &echo)
				case *wire.SubscribePacket:
					codes := make([]byte, len(p.Subscriptions))
					for i, s := range p.Subscriptions {
						codes[i] = byte(s.QoS)
					}
					_ = wire.WritePacket(conn, &wire.SubackPacket{PacketID: p.PacketID, ReturnCodes: codes})
				case *wire.UnsubscribePacket:
					_ = wire.WritePacket(conn, &wire.AckPacket{PacketType: wire.UNSUBACK, PacketID: p.PacketID})
				case *wire.PingreqPacket:
					_ = wire.WritePacket(conn, &wire.PingrespPacket{})
				case *wire.DisconnectPacket:
					return
				}
			}
		}()
	}
}

func (fb *fakeBroker) connect(t *testing.T, opts Options) *Client {
	t.Helper()
	conn, err := fb.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func (fb *fakeBroker) packets() []wire.Packet {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return append([]wire.Packet(nil), fb.inbound...)
}

func TestClientPublishQoS0NoAck(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	if err := c.Publish("t", []byte("x"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
}

func TestClientPublishQoS1WaitsForAck(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	if err := c.Publish("t", []byte("x"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
}

func TestClientSubscribeRoutesOnlyMatching(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))

	matched := make(chan Message, 2)
	other := make(chan Message, 2)
	if _, err := c.Subscribe("a/+", wire.QoS0, func(m Message) { matched <- m }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("b/#", wire.QoS0, func(m Message) { other <- m }); err != nil {
		t.Fatal(err)
	}

	// The fake broker echoes publishes back regardless of subscriptions;
	// the client-side router must still route by filter.
	if err := c.Publish("a/x", []byte("m"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-matched:
		if m.Topic != "a/x" {
			t.Fatalf("routed topic = %q", m.Topic)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("matching handler not invoked")
	}
	select {
	case m := <-other:
		t.Fatalf("non-matching handler invoked with %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestClientSubscribeInvalidFilter(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	if _, err := c.Subscribe("bad/#/filter", wire.QoS0, func(Message) {}); !errors.Is(err, wire.ErrInvalidTopic) {
		t.Fatalf("err = %v, want ErrInvalidTopic", err)
	}
}

func TestClientSubscribeNilHandler(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	if _, err := c.Subscribe("t", wire.QoS0, nil); err == nil {
		t.Fatal("Subscribe(nil handler) succeeded")
	}
}

func TestClientUnsubscribeRemovesHandler(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	got := make(chan Message, 2)
	if _, err := c.Subscribe("t", wire.QoS0, func(m Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("t", []byte("x"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("handler invoked after Unsubscribe")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestClientDefaultHandler(t *testing.T) {
	fb := newFakeBroker(t)
	opts := NewOptions("c")
	unrouted := make(chan Message, 1)
	opts.DefaultHandler = func(m Message) { unrouted <- m }
	c := fb.connect(t, opts)

	if err := c.Publish("nobody/listens", []byte("x"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-unrouted:
		if m.Topic != "nobody/listens" {
			t.Fatalf("default handler topic = %q", m.Topic)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("default handler not invoked")
	}
}

func TestClientOperationsAfterCloseFail(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("t", nil, wire.QoS1, false); err == nil {
		t.Fatal("Publish after Close succeeded")
	}
	if _, err := c.Subscribe("t", wire.QoS0, func(Message) {}); err == nil {
		t.Fatal("Subscribe after Close succeeded")
	}
}

func TestClientOnDisconnectFiresOnBrokerDrop(t *testing.T) {
	fb := newFakeBroker(t)
	disconnected := make(chan error, 1)
	opts := NewOptions("c")
	opts.OnDisconnect = func(err error) { disconnected <- err }
	c := fb.connect(t, opts)

	_ = fb.listener.Close()
	// Force the server side closed by closing our transport peer: the
	// fake broker exits when the read fails.
	_ = c.conn.Close()

	select {
	case <-disconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("OnDisconnect not invoked")
	}
}

func TestClientOnDisconnectNotFiredOnExplicitDisconnect(t *testing.T) {
	fb := newFakeBroker(t)
	disconnected := make(chan error, 1)
	opts := NewOptions("c")
	opts.OnDisconnect = func(err error) { disconnected <- err }
	c := fb.connect(t, opts)

	if err := c.Disconnect(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-disconnected:
		t.Fatalf("OnDisconnect(%v) fired on explicit Disconnect", err)
	case <-time.After(50 * time.Millisecond):
	}
}

// pingConn counts the PINGREQ frames the client writes.
type pingConn struct {
	net.Conn
	pings atomic.Int64
}

func (c *pingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err == nil && len(p) == 2 && p[0] == byte(wire.PINGREQ)<<4 && p[1] == 0 {
		c.pings.Add(1)
	}
	return n, err
}

// TestClientKeepAlivePings: on a virtual clock, the client sends exactly
// one PINGREQ per KeepAlive, on the KeepAlive grid, between ack sweeps.
func TestClientKeepAlivePings(t *testing.T) {
	fb := newFakeBroker(t)
	raw, err := fb.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	conn := &pingConn{Conn: raw}
	v := clock.NewVirtual(virtualEpoch)
	opts := NewOptions("c")
	opts.KeepAlive = 30 * time.Second
	opts.AckTimeout = 7 * time.Second // sweeps every 700ms, off the ping grid
	opts.clock = v
	c, err := Connect(conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	awaitArmed(t, v)
	for step := 1; step <= 380; step++ {
		advance(t, v, 250*time.Millisecond)
		elapsed := v.Now().Sub(virtualEpoch)
		want := int64(elapsed / opts.KeepAlive)
		// The timer loop hands the PINGREQ write to its own goroutine.
		guard := time.Now().Add(5 * time.Second)
		for conn.pings.Load() < want && time.Now().Before(guard) {
			runtime.Gosched()
		}
		if got := conn.pings.Load(); got != want {
			t.Fatalf("after %v: %d PINGREQs, want %d", elapsed, got, want)
		}
	}
}

func TestClientConcurrentPublishes(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Publish("t", []byte("x"), wire.QoS1, false); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent publish: %v", err)
	}
}

func TestClientDoubleCloseIsSafe(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Disconnect(); err != nil {
		t.Fatal(err)
	}
}
