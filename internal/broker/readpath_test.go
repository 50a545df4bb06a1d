package broker

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// countingConn counts the Read calls the broker makes on its connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// servePipe runs a broker on one end of a net.Pipe, whose Read hands over
// at most what one Write on the other end supplied — so the test decides
// how the byte stream is cut into reads. It returns the test's end, the
// broker's (counting) end, and every packet the broker sends back.
func servePipe(t *testing.T) (net.Conn, *Broker, *countingConn, <-chan wire.Packet) {
	t.Helper()
	client, server := net.Pipe()
	b := New(Options{})
	cc := &countingConn{Conn: server}
	go b.ServeConn(cc)
	out := make(chan wire.Packet, 16) // more than any test here expects back
	go func() {
		defer close(out)
		for {
			p, err := wire.ReadPacket(client, 0)
			if err != nil {
				return
			}
			out <- p
		}
	}()
	t.Cleanup(func() {
		_ = client.Close()
		_ = b.Close()
	})
	return client, b, cc, out
}

func nextPacket(t *testing.T, out <-chan wire.Packet) wire.Packet {
	t.Helper()
	select {
	case p, ok := <-out:
		if !ok {
			t.Fatal("broker closed the connection")
		}
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a packet from the broker")
	}
	return nil
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

// writeChunked writes data chunk bytes per Write (all at once when 0).
func writeChunked(t *testing.T, conn net.Conn, data []byte, chunk int) {
	t.Helper()
	if chunk <= 0 {
		chunk = len(data)
	}
	for len(data) > 0 {
		n := min(chunk, len(data))
		if _, err := conn.Write(data[:n]); err != nil {
			t.Fatalf("write: %v", err)
		}
		data = data[n:]
	}
}

// A burst of small frames already in the socket must cost one read per
// buffer-full, not three per packet; the CONNECT that leads the burst
// proves handleConn and readLoop share one reader.
func TestBrokerReadsBurstInFewReads(t *testing.T) {
	client, b, cc, out := servePipe(t)
	const n = 500
	pkts := []wire.Packet{&wire.ConnectPacket{ClientID: "burst", CleanSession: true}}
	for i := 0; i < n; i++ {
		pkts = append(pkts, &wire.PublishPacket{Topic: "burst/t", Payload: make([]byte, 32)})
	}
	// Packets are handled in order, so the PINGRESP marks the burst done.
	pkts = append(pkts, &wire.PingreqPacket{})
	data := mustEncode(t, pkts...)
	writeChunked(t, client, data, 0)

	if p := nextPacket(t, out); p.Type() != wire.CONNACK {
		t.Fatalf("first packet = %v, want CONNACK", p.Type())
	}
	if p := nextPacket(t, out); p.Type() != wire.PINGRESP {
		t.Fatalf("second packet = %v, want PINGRESP", p.Type())
	}
	if got := b.Stats().MessagesReceived; got != n {
		t.Fatalf("broker received %d publishes, want %d", got, n)
	}
	limit := int64((len(data)+readerBufSize-1)/readerBufSize + 1)
	if got := cc.reads.Load(); got > limit {
		t.Fatalf("%d Read calls for %d packets in %d bytes, want <= %d", got, len(pkts), len(data), limit)
	}
}

// However the stream is cut into reads, every frame decodes: packets
// pipelined behind CONNECT are processed, a packet larger than the read
// buffer arrives whole, and the packet after it is intact.
func TestBrokerFramingSurvivesAnySegmentation(t *testing.T) {
	big := make([]byte, 10<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	data := mustEncode(t,
		&wire.ConnectPacket{ClientID: "framing", CleanSession: true},
		&wire.SubscribePacket{PacketID: 1, Subscriptions: []wire.Subscription{{TopicFilter: "echo/#"}}},
		&wire.PublishPacket{Topic: "echo/big", Payload: big},
		&wire.PublishPacket{Topic: "echo/small", Payload: []byte("next")},
	)
	for _, tc := range []struct {
		name  string
		chunk int
	}{
		{"one segment", 0},
		{"one byte per read", 1},
		{"reads straddle frames", 4099},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, _, _, out := servePipe(t)
			writeChunked(t, client, data, tc.chunk)

			if p := nextPacket(t, out); p.Type() != wire.CONNACK {
				t.Fatalf("got %v, want CONNACK", p.Type())
			}
			if p := nextPacket(t, out); p.Type() != wire.SUBACK {
				t.Fatalf("got %v, want SUBACK", p.Type())
			}
			for _, want := range []struct {
				topic   string
				payload []byte
			}{{"echo/big", big}, {"echo/small", []byte("next")}} {
				pub, ok := nextPacket(t, out).(*wire.PublishPacket)
				if !ok || pub.Topic != want.topic || !bytes.Equal(pub.Payload, want.payload) {
					t.Fatalf("echo of %s came back wrong: %+v", want.topic, pub)
				}
			}
		})
	}
}
