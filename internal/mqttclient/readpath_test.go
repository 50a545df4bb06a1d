package mqttclient

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// countingConn counts the Read calls the client makes on its connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// connectOverPipe connects a client over a net.Pipe to a scripted broker
// that answers CONNECT with greeting, written chunk bytes per Write (all at
// once when 0). A pipe Read hands over at most what one Write supplied, so
// the script decides how the stream is cut into reads. Every PUBLISH the
// client receives lands on the returned channel through its DefaultHandler.
func connectOverPipe(t *testing.T, greeting []byte, chunk int) (*countingConn, <-chan Message) {
	t.Helper()
	clientEnd, brokerEnd := net.Pipe()
	go func() {
		defer brokerEnd.Close()
		if _, err := wire.ReadPacket(brokerEnd, 0); err != nil {
			return
		}
		if chunk <= 0 {
			chunk = len(greeting)
		}
		for rest := greeting; len(rest) > 0; {
			n := min(chunk, len(rest))
			if _, err := brokerEnd.Write(rest[:n]); err != nil {
				return
			}
			rest = rest[n:]
		}
		_, _ = io.Copy(io.Discard, brokerEnd) // until the client closes
	}()

	got := make(chan Message, 1024) // holds every message a test here sends
	opts := Options{ClientID: "readpath", CleanSession: true, DefaultHandler: func(m Message) { got <- m }}
	cc := &countingConn{Conn: clientEnd}
	c, err := Connect(cc, opts)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return cc, got
}

func nextMessage(t *testing.T, got <-chan Message) Message {
	t.Helper()
	select {
	case m := <-got:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a message")
	}
	return Message{}
}

func mustEncode(t *testing.T, pkts ...wire.Packet) []byte {
	t.Helper()
	var buf []byte
	for _, p := range pkts {
		var err error
		if buf, err = wire.AppendEncode(buf, p); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// A burst of small frames already in the socket must cost one read per
// buffer-full, not three per packet.
func TestClientReadsBurstInFewReads(t *testing.T) {
	const n = 500
	pkts := []wire.Packet{&wire.ConnackPacket{Code: wire.ConnAccepted}}
	for i := 0; i < n; i++ {
		pkts = append(pkts, &wire.PublishPacket{Topic: "burst/t", Payload: make([]byte, 32)})
	}
	data := mustEncode(t, pkts...)
	cc, got := connectOverPipe(t, data, 0)
	for i := 0; i < n; i++ {
		nextMessage(t, got)
	}
	limit := int64((len(data)+readBufSize-1)/readBufSize + 1)
	if reads := cc.reads.Load(); reads > limit {
		t.Fatalf("%d Read calls for %d packets in %d bytes, want <= %d", reads, len(pkts), len(data), limit)
	}
}

// However the stream is cut into reads, every frame decodes. In one segment
// this is CONNACK + retained replay coalesced by the broker: the replay
// reaches the handler only if Connect and readLoop share one reader. A
// packet larger than the read buffer arrives whole and the packet after it
// is intact.
func TestClientFramingSurvivesAnySegmentation(t *testing.T) {
	big := make([]byte, 10<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	sent := []*wire.PublishPacket{
		{Topic: "state/retained", Payload: []byte("replayed"), Retain: true},
		{Topic: "state/big", Payload: big},
		{Topic: "state/small", Payload: []byte("next")},
	}
	data := mustEncode(t, &wire.ConnackPacket{Code: wire.ConnAccepted}, sent[0], sent[1], sent[2])
	for _, tc := range []struct {
		name  string
		chunk int
	}{
		{"one segment", 0},
		{"one byte per read", 1},
		{"reads straddle frames", 4099},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, got := connectOverPipe(t, data, tc.chunk)
			for _, want := range sent {
				m := nextMessage(t, got)
				if m.Topic != want.Topic || m.Retain != want.Retain || !bytes.Equal(m.Payload, want.Payload) {
					t.Fatalf("%s arrived wrong: topic %q retain %v, %d payload bytes", want.Topic, m.Topic, m.Retain, len(m.Payload))
				}
			}
		})
	}
}

// The dispatcher's match step runs once per inbound message over every
// subscription; it must not allocate.
func TestMatchLanesDoesNotAllocate(t *testing.T) {
	c := &Client{}
	for _, f := range []string{"ifot/sensor/acc/1", "ifot/+/acc/+", "ifot/sensor/#", "ifot/actuator/#"} {
		c.subs = append(c.subs, subscription{filter: f, lane: &lane{}})
	}
	lanes := make([]*lane, 0, len(c.subs))
	allocs := testing.AllocsPerRun(1000, func() {
		lanes = c.matchLanes(lanes[:0], "ifot/sensor/acc/1")
	})
	if allocs != 0 {
		t.Fatalf("matchLanes allocates %.1f times per message, want 0", allocs)
	}
	if len(lanes) != 3 {
		t.Fatalf("matched %d lanes, want 3", len(lanes))
	}
}

// Receiving one QoS 0 publish costs the client two heap objects on the
// read side: the body the reader reads the packet into, which the
// handler's Message then carries as its payload, and the topic string.
// Reading with wire.ReadPacket made three: body, packet and topic string.
func TestReceiveQoS0ReadSideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const runs = 1000
	frame, err := wire.AppendEncodePublish(nil, "ifot/sensor/acc/1", make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(bytes.NewReader(bytes.Repeat(frame, 2*runs+1)), readBufSize)
	c := &Client{opts: Options{}.withDefaults(), rd: wire.NewReader(br, 0, false), dispatch: make(chan Message, 1)}
	receive := func() {
		pkt, err := c.rd.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		c.handleInboundPublish(pkt.(*wire.PublishPacket))
		<-c.dispatch
	}
	for i := 0; i < runs; i++ {
		receive()
	}
	if allocs := testing.AllocsPerRun(runs-1, receive); allocs != 2 {
		t.Fatalf("receiving a QoS 0 publish: %.2f allocs, want 2", allocs)
	}
}
