package wire

import (
	"bufio"
	"io"
	"net"
	"sync/atomic"
	"testing"
)

// BenchmarkWireEncode measures packet serialization cost for the frames
// that dominate broker traffic: application publishes and the QoS1 ack.
func BenchmarkWireEncode(b *testing.B) {
	pub := &PublishPacket{Topic: "ifot/sensor/acc", Payload: make([]byte, 128), QoS: QoS0}
	pubQ1 := &PublishPacket{Topic: "ifot/sensor/acc", Payload: make([]byte, 128), QoS: QoS1, PacketID: 42}
	ack := &AckPacket{PacketType: PUBACK, PacketID: 42}

	b.Run("encode/publish-128B", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Encode(pub); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/publish-qos1-128B", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Encode(pubQ1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/puback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Encode(ack); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write/publish-128B", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WritePacket(io.Discard, pub); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write/puback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WritePacket(io.Discard, ack); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// countingConn counts Read calls on a connection: one per read syscall.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// BenchmarkReadPacketPublish reads a stream of sensor-sized QoS 0 PUBLISH
// frames off a loopback TCP connection, straight from the conn (header
// byte, length byte and body are a read each) and through the 4 KiB
// bufio.Reader the broker and client use. reads/op is syscalls per packet.
func BenchmarkReadPacketPublish(b *testing.B) {
	frame, err := Encode(&PublishPacket{Topic: "ifot/sensor/acc/1", Payload: make([]byte, 32)})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"raw-conn", func(r io.Reader) io.Reader { return r }},
		{"bufio", func(r io.Reader) io.Reader { return bufio.NewReaderSize(r, 4<<10) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				w := bufio.NewWriterSize(conn, 64<<10)
				for i := 0; i < b.N; i++ {
					if _, err := w.Write(frame); err != nil {
						return
					}
				}
				_ = w.Flush()
			}()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			cc := &countingConn{Conn: conn}
			r := bc.wrap(cc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadPacket(r, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cc.reads.Load())/float64(b.N), "reads/op")
		})
	}
}

var matchSink bool

// BenchmarkMatchTopic covers the matcher's four outcomes on a sensor topic.
func BenchmarkMatchTopic(b *testing.B) {
	const topic = "ifot/sensor/acc/1"
	for _, bc := range []struct{ name, filter string }{
		{"exact", "ifot/sensor/acc/1"},
		{"plus", "ifot/+/acc/+"},
		{"hash", "ifot/sensor/#"},
		{"miss", "ifot/actuator/#"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matchSink = MatchTopic(bc.filter, topic)
			}
		})
	}
}
