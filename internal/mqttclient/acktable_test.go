package mqttclient

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/wire"
)

var virtualEpoch = time.Date(2016, 6, 27, 0, 0, 0, 0, time.UTC)

// awaitArmed waits until the client's timer loop, the only user of v, is
// parked on its next wake-up: everything due up to v.Now() has been done.
func awaitArmed(t *testing.T, v *clock.Virtual) {
	t.Helper()
	guard := time.Now().Add(5 * time.Second)
	for {
		if at, ok := v.NextDeadline(); ok && at.After(v.Now()) {
			return
		}
		if time.Now().After(guard) {
			t.Fatal("timer loop never re-armed")
		}
		runtime.Gosched()
	}
}

// advance moves v forward by d and waits for the timer loop to catch up.
func advance(t *testing.T, v *clock.Virtual, d time.Duration) {
	t.Helper()
	v.Advance(d)
	awaitArmed(t, v)
}

// awaitSent waits until n acks are outstanding, each with its timeout
// running because its packet has been written.
func awaitSent(t *testing.T, c *Client, n int) {
	t.Helper()
	guard := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		sent := 0
		for _, w := range c.pending {
			if !w.deadline.IsZero() {
				sent++
			}
		}
		c.mu.Unlock()
		if sent == n {
			return
		}
		if time.Now().After(guard) {
			t.Fatalf("%d ack waits started, want %d", sent, n)
		}
		runtime.Gosched()
	}
}

// pendingLen reports how many acks are outstanding.
func (c *Client) pendingLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// silentBroker accepts one connection, answers CONNECT, hands every
// PUBLISH it reads to pubs, and writes whatever arrives on send.
func silentBroker(t *testing.T) (conn net.Conn, pubs <-chan *wire.PublishPacket, send chan<- wire.Packet) {
	t.Helper()
	clientEnd, brokerEnd := net.Pipe()
	in := make(chan *wire.PublishPacket, 16) // more than any test here sends
	out := make(chan wire.Packet)
	go func() {
		defer brokerEnd.Close()
		if _, err := wire.ReadPacket(brokerEnd, 0); err != nil {
			return
		}
		if err := wire.WritePacket(brokerEnd, &wire.ConnackPacket{Code: wire.ConnAccepted}); err != nil {
			return
		}
		go func() {
			for p := range out {
				_ = wire.WritePacket(brokerEnd, p)
			}
		}()
		for {
			pkt, err := wire.ReadPacket(brokerEnd, 0)
			if err != nil {
				return
			}
			if p, ok := pkt.(*wire.PublishPacket); ok {
				in <- p
			}
		}
	}()
	t.Cleanup(func() { close(out) })
	return clientEnd, in, out
}

// recv takes the next value from ch, failing the test after 5 s.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	var v T
	select {
	case v = <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s", what)
	}
	return v
}

// TestLateAckNeverCompletesRecycledWaiter: a PUBACK that arrives after
// its waiter expired must not complete the next publish, which reuses that
// waiter under a new packet ID.
func TestLateAckNeverCompletesRecycledWaiter(t *testing.T) {
	conn, pubs, send := silentBroker(t)
	v := clock.NewVirtual(virtualEpoch)
	fence := make(chan Message, 1)
	opts := NewOptions("late")
	opts.KeepAlive = 0
	opts.AckTimeout = time.Second
	opts.clock = v
	opts.DefaultHandler = func(m Message) { fence <- m }
	c, err := Connect(conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	awaitArmed(t, v)

	first := make(chan error, 1)
	go func() { first <- c.Publish("t", []byte("1"), wire.QoS1, false) }()
	p1 := recv(t, pubs, "first PUBLISH")
	awaitSent(t, c, 1)
	advance(t, v, opts.AckTimeout+opts.AckTimeout/sweepsPerAckTimeout)
	if err := recv(t, first, "first result"); !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("first publish: %v, want ErrAckTimeout", err)
	}
	c.mu.Lock()
	if len(c.free) != 1 {
		c.mu.Unlock()
		t.Fatalf("free waiters = %d, want 1", len(c.free))
	}
	expired := c.free[0]
	c.mu.Unlock()

	second := make(chan error, 1)
	go func() { second <- c.Publish("t", []byte("2"), wire.QoS1, false) }()
	p2 := recv(t, pubs, "second PUBLISH")
	c.mu.Lock()
	reused := c.pending[p2.PacketID] == expired
	c.mu.Unlock()
	if !reused {
		t.Fatal("second publish did not reuse the expired waiter")
	}

	send <- &wire.AckPacket{PacketType: wire.PUBACK, PacketID: p1.PacketID}
	// The reader handles packets in order: once the fence is delivered the
	// late PUBACK has been dealt with.
	send <- &wire.PublishPacket{Topic: "fence"}
	recv(t, fence, "fence")
	c.mu.Lock()
	open := c.pending[p2.PacketID] == expired && len(expired.ch) == 0
	c.mu.Unlock()
	select {
	case err := <-second:
		t.Fatalf("late PUBACK completed the second publish: %v", err)
	default:
	}
	if !open {
		t.Fatal("late PUBACK reached the recycled waiter")
	}

	send <- &wire.AckPacket{PacketType: wire.PUBACK, PacketID: p2.PacketID}
	if err := recv(t, second, "second result"); err != nil {
		t.Fatalf("second publish: %v", err)
	}
}

// TestAckWaitEndsWhenConnectionDrops: a wait cut short by the connection
// ending returns ErrNotConnected, not a timeout.
func TestAckWaitEndsWhenConnectionDrops(t *testing.T) {
	conn, pubs, _ := silentBroker(t)
	opts := NewOptions("drop")
	opts.clock = clock.NewVirtual(virtualEpoch)
	c, err := Connect(conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := make(chan error, 1)
	go func() { res <- c.Publish("t", []byte("x"), wire.QoS1, false) }()
	recv(t, pubs, "PUBLISH")
	_ = conn.Close()
	if err := recv(t, res, "publish result"); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

// stallConn passes writes through until stall is set; from then on every
// Write blocks until gate or the connection is closed.
type stallConn struct {
	net.Conn
	stall   atomic.Bool
	stalled atomic.Int64 // writes blocked so far
	gate    chan struct{}
	closed  chan struct{}
	once    sync.Once
}

func newStallConn(conn net.Conn) *stallConn {
	return &stallConn{Conn: conn, gate: make(chan struct{}), closed: make(chan struct{})}
}

func (c *stallConn) Write(p []byte) (int, error) {
	if c.stall.Load() {
		c.stalled.Add(1)
		select {
		case <-c.gate:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(p)
}

// awaitStalled waits until n writes have blocked on c.
func (c *stallConn) awaitStalled(t *testing.T, n int64) {
	t.Helper()
	guard := time.Now().Add(5 * time.Second)
	for c.stalled.Load() < n {
		if time.Now().After(guard) {
			t.Fatalf("%d writes blocked, want %d", c.stalled.Load(), n)
		}
		runtime.Gosched()
	}
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestAckTimeoutFiresWhileWriteStalls: a PINGREQ stuck on a connection
// that no longer takes writes does not hold up the timeout of a publish
// already sent.
func TestAckTimeoutFiresWhileWriteStalls(t *testing.T) {
	raw, pubs, _ := silentBroker(t)
	conn := newStallConn(raw)
	v := clock.NewVirtual(virtualEpoch)
	opts := NewOptions("stall")
	opts.KeepAlive = 5 * time.Second
	opts.AckTimeout = 10 * time.Second
	opts.clock = v
	c, err := Connect(conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	awaitArmed(t, v)

	res := make(chan error, 1)
	go func() { res <- c.Publish("t", []byte("x"), wire.QoS1, false) }()
	recv(t, pubs, "PUBLISH")
	awaitSent(t, c, 1)
	conn.stall.Store(true)
	advance(t, v, opts.KeepAlive)
	conn.awaitStalled(t, 1) // the PINGREQ
	advance(t, v, opts.AckTimeout-opts.KeepAlive+opts.AckTimeout/sweepsPerAckTimeout)
	if err := recv(t, res, "publish result"); !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("err = %v, want ErrAckTimeout", err)
	}
}

// TestAckTimeoutCountsFromWrite: time a PUBLISH spends blocked in its
// write does not count against AckTimeout.
func TestAckTimeoutCountsFromWrite(t *testing.T) {
	raw, pubs, _ := silentBroker(t)
	conn := newStallConn(raw)
	v := clock.NewVirtual(virtualEpoch)
	opts := NewOptions("slow")
	opts.KeepAlive = 0
	opts.AckTimeout = 10 * time.Second
	opts.clock = v
	c, err := Connect(conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	awaitArmed(t, v)
	sweep := opts.AckTimeout / sweepsPerAckTimeout

	conn.stall.Store(true)
	res := make(chan error, 1)
	go func() { res <- c.Publish("t", []byte("x"), wire.QoS1, false) }()
	conn.awaitStalled(t, 1)
	advance(t, v, 2*opts.AckTimeout)
	close(conn.gate)
	recv(t, pubs, "PUBLISH")
	awaitSent(t, c, 1)
	advance(t, v, opts.AckTimeout-sweep)
	select {
	case err := <-res:
		t.Fatalf("publish ended %v after its write: %v", opts.AckTimeout-sweep, err)
	default:
	}
	advance(t, v, 2*sweep)
	if err := recv(t, res, "publish result"); !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("err = %v, want ErrAckTimeout", err)
	}
}

// timerLoops counts the goroutines running a client timer loop (a frame,
// not a "created by" line).
func timerLoops() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Client).timerLoop(")
}

// awaitTimerLoops waits until n client timer loops are running.
func awaitTimerLoops(t *testing.T, n int) {
	t.Helper()
	guard := time.Now().Add(5 * time.Second)
	for timerLoops() != n {
		if time.Now().After(guard) {
			t.Fatalf("%d timer loops running, want %d", timerLoops(), n)
		}
		runtime.Gosched()
	}
}

// TestCloseAndDisconnectStopTimerLoop: tearing a client down either way
// leaves no timer loop behind.
func TestCloseAndDisconnectStopTimerLoop(t *testing.T) {
	fb := newFakeBroker(t)
	// A client whose connection dropped stops its loop on its own, shortly
	// after: let any from earlier tests finish.
	awaitTimerLoops(t, 0)
	for _, teardown := range []struct {
		name string
		fn   func(*Client) error
	}{{"Close", (*Client).Close}, {"Disconnect", (*Client).Disconnect}} {
		conn, err := fb.listener.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c, err := Connect(conn, NewOptions(teardown.name))
		if err != nil {
			t.Fatal(err)
		}
		awaitTimerLoops(t, 1) // a goroutine not yet scheduled has no frames
		if err := teardown.fn(c); err != nil {
			t.Fatal(err)
		}
		if n := timerLoops(); n != 0 {
			t.Fatalf("%s left %d timer loops running", teardown.name, n)
		}
	}
}

// sinkClient connects a client to a peer that discards everything after
// CONNACK, on a virtual clock that never moves.
func sinkClient(t *testing.T) *Client {
	t.Helper()
	clientEnd, brokerEnd := net.Pipe()
	go func() {
		defer brokerEnd.Close()
		if _, err := wire.ReadPacket(brokerEnd, 0); err != nil {
			return
		}
		if err := wire.WritePacket(brokerEnd, &wire.ConnackPacket{Code: wire.ConnAccepted}); err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, brokerEnd)
	}()
	opts := NewOptions("sink")
	opts.clock = clock.NewVirtual(virtualEpoch)
	c, err := Connect(clientEnd, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestPublishQoS0AllocatesNothing pins the QoS 0 path: the frame is
// encoded into the client's own buffer, so a publish allocates nothing.
func TestPublishQoS0AllocatesNothing(t *testing.T) {
	c := sinkClient(t)
	payload := []byte("0123456789abcdef0123456789abcdef")
	for _, retain := range []bool{false, true} {
		n := testing.AllocsPerRun(1000, func() {
			if err := c.Publish("bench/t", payload, wire.QoS0, retain); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Fatalf("QoS 0 publish (retain %v): %v allocs, want 0", retain, n)
		}
	}
}

// TestPublishQoS1RoundTripAllocs pins the QoS 1 ack table: a round trip
// against the fake broker (both ends counted) allocated 20 objects with a
// fresh ack channel and runtime timer per wait, and 15 with recycled
// waiters and the one timer loop.
func TestPublishQoS1RoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	fb := newFakeBroker(t)
	opts := NewOptions("c")
	opts.clock = clock.NewVirtual(virtualEpoch)
	c := fb.connect(t, opts)
	payload := []byte("0123456789abcdef0123456789abcdef")
	for i := 0; i < 100; i++ {
		if err := c.Publish("bench/t", payload, wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, func() {
		if err := c.Publish("bench/t", payload, wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	})
	if n > 20-3 {
		t.Fatalf("QoS 1 round trip: %v allocs, want at most 17", n)
	}
}

// loopbackClient connects a client to a broker on a loopback TCP socket.
func loopbackClient(b *testing.B) *Client {
	b.Helper()
	br := broker.New(broker.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = br.Serve(l) }()
	c, err := Dial(l.Addr().String(), NewOptions("bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close(); _ = br.Close() })
	return c
}

func benchmarkPublish(b *testing.B, qos wire.QoS) {
	c := loopbackClient(b)
	payload := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Publish("bench/t", payload, qos, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublishQoS0(b *testing.B) { benchmarkPublish(b, wire.QoS0) }
func BenchmarkPublishQoS1(b *testing.B) { benchmarkPublish(b, wire.QoS1) }
