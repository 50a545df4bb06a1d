package wire

import (
	"bufio"
	"bytes"
	"testing"
)

func mustEncode(t *testing.T, p Packet) []byte {
	t.Helper()
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// A received PUBLISH costs the Reader two allocations, its frame or body
// and its topic string, where ReadPacket makes three (body, packet, topic
// string); an ack costs none.
func TestReaderAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pkt     Packet
		forward bool
		want    float64
	}{
		{"qos0 publish", &PublishPacket{Topic: "ifot/sensor/acc/1", Payload: make([]byte, 32)}, false, 2},
		{"qos0 publish forwarded", &PublishPacket{Topic: "ifot/sensor/acc/1", Payload: make([]byte, 32)}, true, 2},
		{"qos1 publish", &PublishPacket{Topic: "ifot/sensor/acc/1", Payload: make([]byte, 32), QoS: QoS1, PacketID: 7}, true, 2},
		{"puback", &AckPacket{PacketType: PUBACK, PacketID: 7}, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 1000
			frame := mustEncode(t, tc.pkt)
			rd := NewReader(bufio.NewReader(bytes.NewReader(bytes.Repeat(frame, runs+1))), 0, tc.forward)
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := rd.ReadPacket(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != tc.want {
				t.Fatalf("Reader.ReadPacket(%s) = %.1f allocs, want %.0f", tc.name, allocs, tc.want)
			}
		})
	}
}
