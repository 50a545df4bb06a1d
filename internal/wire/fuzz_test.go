package wire

import (
	"bytes"
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
