package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// FuzzReadPacket hammers the packet reader with arbitrary bytes: it must
// never panic and every successfully decoded packet must re-encode.
func FuzzReadPacket(f *testing.F) {
	// Seed with one valid packet of each kind.
	seedPackets := []Packet{
		&ConnectPacket{ClientID: "c", CleanSession: true, KeepAlive: 10},
		&ConnackPacket{Code: ConnAccepted},
		&PublishPacket{Topic: "a/b", Payload: []byte("x"), QoS: QoS1, PacketID: 3},
		&AckPacket{PacketType: PUBACK, PacketID: 1},
		&SubscribePacket{PacketID: 2, Subscriptions: []Subscription{{TopicFilter: "a/#", QoS: QoS1}}},
		&SubackPacket{PacketID: 2, ReturnCodes: []byte{1}},
		&UnsubscribePacket{PacketID: 4, TopicFilters: []string{"a"}},
		&PingreqPacket{},
		&DisconnectPacket{},
	}
	for _, p := range seedPackets {
		data, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0x30, 0x02, 0x00, 0x00}) // publish with empty topic
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x38, 0x04, 0x00, 0x01, 'a', 'x'}) // QoS 0 publish with DUP set

	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := ReadPacket(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode (idempotence of the model).
		if _, err := Encode(pkt); err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", pkt.Type(), err)
		}
	})
}

// FuzzMatchTopic checks the split-free matcher against the strings.Split
// oracle on arbitrary input (valid or not) and the exact-match identity for
// valid topics.
func FuzzMatchTopic(f *testing.F) {
	f.Add("a/b/c", "a/b/c")
	f.Add("a/+/c", "a/x/c")
	f.Add("#", "x")
	f.Add("$SYS/#", "$SYS/broker")
	f.Add("a/#", "a")
	f.Add("a/#/c", "a/x")
	f.Add("a//+", "a//")
	f.Fuzz(func(t *testing.T, filter, topic string) {
		if got, want := MatchTopic(filter, topic), matchTopicOracle(filter, topic); got != want {
			t.Fatalf("MatchTopic(%q, %q) = %v, oracle says %v", filter, topic, got, want)
		}
		if ValidateTopicName(topic) == nil && ValidateTopicFilter(topic) == nil {
			if !MatchTopic(topic, topic) {
				t.Fatalf("valid topic %q does not match itself", topic)
			}
		}
	})
}

// FuzzReader checks the per-connection Reader, forwarding and not, against
// ReadPacket on the same byte stream: packet by packet, equal packets and
// equal errors. Every forward frame the forwarding Reader keeps is
// byte-equal to AppendEncodePublish of the packet's topic and payload,
// present exactly when the packet's first byte was 0x30; the other Reader
// keeps none.
func FuzzReader(f *testing.F) {
	var stream []byte
	for _, p := range []Packet{
		&ConnectPacket{ClientID: "c", CleanSession: true},
		&PublishPacket{Topic: "a/b", Payload: []byte("x")},
		&PublishPacket{Topic: "a/b", Payload: []byte("y"), QoS: QoS1, PacketID: 3},
		&PublishPacket{Topic: "a/c", Retain: true},
		&AckPacket{PacketType: PUBACK, PacketID: 3},
		&AckPacket{PacketType: PUBREL, PacketID: 4},
		&SubscribePacket{PacketID: 2, Subscriptions: []Subscription{{TopicFilter: "a/#", QoS: QoS1}}},
		&SubackPacket{PacketID: 2, ReturnCodes: []byte{1}},
		&PublishPacket{Topic: "a/b", Payload: []byte("z")},
		&PingreqPacket{},
	} {
		frame, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	f.Add(stream)
	// Remaining length 6 in two digits: the forward frame re-encodes it.
	f.Add([]byte{0x30, 0x86, 0x00, 0x00, 0x03, 'a', '/', 'b', 'x', 0x30, 0x03, 0x00, 0x01, 'a'})
	f.Add([]byte{0x30, 0x04, 0x00, 0x01, 'a', 'x', 0x38, 0x04, 0x00, 0x01, 'a', 'x'}) // then DUP at QoS 0
	f.Add([]byte{0x30, 0x05, 0x00, 0x01, 'a'})                                        // torn body
	f.Add([]byte{0x30, 0x06, 0x00, 0x03, 'a', '/', '#', 'x'})                         // wildcard in a topic name

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxSize = 1 << 16
		ref := bytes.NewReader(data)
		rd := NewReader(bufio.NewReader(bytes.NewReader(data)), maxSize, true)
		plain := NewReader(bufio.NewReader(bytes.NewReader(data)), maxSize, false)
		for i := 0; ; i++ {
			first := byte(0)
			if ref.Len() > 0 {
				first = data[len(data)-ref.Len()]
			}
			want, wantErr := ReadPacket(ref, maxSize)
			for _, r := range []*Reader{rd, plain} {
				got, err := r.ReadPacket()
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("packet %d: Reader(forward %v) error %v, ReadPacket error %v", i, r.forward, err, wantErr)
				}
				if wantErr == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("packet %d: Reader(forward %v) decoded %+v, ReadPacket %+v", i, r.forward, got, want)
				}
			}
			if wantErr != nil {
				return
			}
			if plain.Frame() != nil {
				t.Fatalf("packet %d: a non-forwarding Reader kept forward frame %x", i, plain.Frame())
			}
			frame := rd.Frame()
			if (frame != nil) != (first == 0x30) {
				t.Fatalf("packet %d: first byte %#x, forward frame %x", i, first, frame)
			}
			if frame != nil {
				enc, err := AppendEncodePublish(nil, rd.pub.Topic, rd.pub.Payload)
				if err != nil || !bytes.Equal(frame, enc) {
					t.Fatalf("packet %d: forward frame %x, AppendEncodePublish %x (%v)", i, frame, enc, err)
				}
			}
		}
	})
}
