package broker

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
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

// Nothing keeps the values the connection readers reuse: a QoS 1
// subscriber's window entry, a retained entry and a client Message keep
// their topic and payload while the broker's and the subscriber's readers
// decode 1,000 more packets, QoS 0 (forwarded as read) and QoS 1 mixed.
func TestReceivedPublishOutlivesReader(t *testing.T) {
	bus := newTestBus(t, Options{})
	holderOpts := mqttclient.NewOptions("holder")
	holderOpts.CleanSession = false
	holder := bus.connect(t, holderOpts)
	if _, err := holder.Subscribe("life/first", wire.QoS1, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	_ = holder.Close() // the session stays, so its window keeps the message

	got := make(chan mqttclient.Message, 64)
	keeper := bus.connect(t, mqttclient.NewOptions("keeper"))
	if _, err := keeper.Subscribe("life/#", wire.QoS1, func(m mqttclient.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	pub := bus.connect(t, mqttclient.NewOptions("life-pub"))

	const firstTopic, firstPayload = "life/first", "the first payload, 32 bytes long"
	if err := pub.Publish(firstTopic, []byte(firstPayload), wire.QoS1, true); err != nil {
		t.Fatal(err)
	}
	first := recv(t, got, "message")

	const more, batch = 1000, 50 // batches stay far below every queue bound
	for i := 0; i < more; i += batch {
		for j := i; j < i+batch; j++ {
			payload := bytes.Repeat([]byte{byte(j)}, len(firstPayload))
			if err := pub.Publish(fmt.Sprintf("life/n/%d", j%10), payload, wire.QoS(j%2), false); err != nil {
				t.Fatal(err)
			}
		}
		for j := i; j < i+batch; j++ {
			m := recv(t, got, "message")
			if m.Topic != fmt.Sprintf("life/n/%d", j%10) || !bytes.Equal(m.Payload, bytes.Repeat([]byte{byte(j)}, len(firstPayload))) {
				t.Fatalf("message %d arrived as %q %q", j, m.Topic, m.Payload)
			}
		}
	}

	if first.Topic != firstTopic || string(first.Payload) != firstPayload {
		t.Fatalf("client Message changed to %q %q", first.Topic, first.Payload)
	}
	b := bus.broker
	b.retainedMu.Lock()
	retained := b.retained[firstTopic]
	b.retainedMu.Unlock()
	if string(retained.payload) != firstPayload {
		t.Fatalf("retained entry changed to %q", retained.payload)
	}
	b.mu.RLock()
	sess := b.sessions["holder"]
	b.mu.RUnlock()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if len(sess.window) != 1 || sess.window[0].pkt.Topic != firstTopic || string(sess.window[0].pkt.Payload) != firstPayload {
		t.Fatalf("window = %+v, want the first message", sess.window)
	}
}

// Relaying one QoS 0 publish to a QoS 0 subscriber costs the broker two
// heap objects on the read side: the frame the reader reads the packet
// into, which the subscriber's queue then carries as is, and the topic
// string. Reading with wire.ReadPacket and encoding the fan-out frame
// afresh made four: body, packet, topic string and frame.
func TestRelayQoS0ReadSideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const runs = 1000
	b := New(Options{SessionQueueSize: 2 * runs})
	defer b.Close()
	b.mu.Lock()
	sub, _ := b.openSessionLocked("relay-sub", false)
	b.subscribeLocked(sub, "relay/#", wire.QoS0)
	b.swapRoutesLocked()
	b.mu.Unlock()
	out, _, _ := sub.attach(2 * runs)
	from := newSession("relay-pub", false)

	var stream []byte
	for i := 0; i < 2*runs+1; i++ {
		frame, err := wire.AppendEncodePublish(nil, fmt.Sprintf("relay/a%02d", i%8), make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	rd := b.newConnReader(bytes.NewReader(stream))
	relay := func() {
		pkt, err := rd.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		b.handlePublish(from, pkt.(*wire.PublishPacket), rd.Frame())
		if op := <-out; op.frame == nil {
			t.Fatal("the QoS 0 delivery was not a shared frame")
		}
	}
	for i := 0; i < runs; i++ { // warm the route cache
		relay()
	}
	if allocs := testing.AllocsPerRun(runs-1, relay); allocs != 2 {
		t.Fatalf("relaying a QoS 0 publish: %.2f allocs, want 2", allocs)
	}
}
