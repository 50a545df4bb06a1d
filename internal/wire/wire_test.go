package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, p Packet) Packet {
	t.Helper()
	data, err := Encode(p)
	if err != nil {
		t.Fatalf("Encode(%T) error: %v", p, err)
	}
	got, err := ReadPacket(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatalf("ReadPacket(%T) error: %v", p, err)
	}
	return got
}

func TestConnectRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		pkt  *ConnectPacket
	}{
		{"minimal", &ConnectPacket{ClientID: "n1", CleanSession: true, KeepAlive: 30}},
		{"with will", &ConnectPacket{
			ClientID: "n2", CleanSession: true, KeepAlive: 60,
			WillFlag: true, WillTopic: "ifot/status/n2", WillMessage: []byte("offline"),
			WillQoS: QoS1, WillRetain: true,
		}},
		{"with auth", &ConnectPacket{
			ClientID: "n3", KeepAlive: 10,
			HasUsername: true, Username: "user",
			HasPassword: true, Password: []byte("secret"),
		}},
		{"empty client id", &ConnectPacket{ClientID: "", CleanSession: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.pkt)
			// A zero ProtocolLevel encodes as the 3.1.1 default.
			want := *tt.pkt
			if want.ProtocolLevel == 0 {
				want.ProtocolLevel = ProtocolLevel311
			}
			if !reflect.DeepEqual(got, &want) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, &want)
			}
		})
	}
}

func TestConnectMQTT31RoundTrip(t *testing.T) {
	in := &ConnectPacket{ClientID: "legacy", CleanSession: true, ProtocolLevel: ProtocolLevel31}
	got := roundTrip(t, in).(*ConnectPacket)
	if got.ProtocolLevel != ProtocolLevel31 || got.ClientID != "legacy" {
		t.Fatalf("3.1 round trip = %+v", got)
	}
}

func TestConnectRejectsUnknownProtocolName(t *testing.T) {
	// Craft a CONNECT with a bogus protocol name.
	in := &ConnectPacket{ClientID: "x", CleanSession: true}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	// Protocol name "MQTT" starts at offset 4 (hdr+len+2-byte strlen).
	copy(data[4:8], "JUNK")
	if _, err := ReadPacket(bytes.NewReader(data), 0); err == nil {
		t.Fatal("accepted bogus protocol name")
	}
}

func TestConnackRoundTrip(t *testing.T) {
	for _, pkt := range []*ConnackPacket{
		{SessionPresent: false, Code: ConnAccepted},
		{SessionPresent: true, Code: ConnAccepted},
		{Code: ConnRefusedIdentifier},
	} {
		got := roundTrip(t, pkt)
		if !reflect.DeepEqual(got, pkt) {
			t.Errorf("round trip: got %+v want %+v", got, pkt)
		}
	}
}

func TestPublishRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		pkt  *PublishPacket
	}{
		{"qos0", &PublishPacket{Topic: "ifot/sensor/a", Payload: []byte("12345")}},
		{"qos1", &PublishPacket{Topic: "ifot/sensor/b", Payload: []byte{0, 1, 2}, QoS: QoS1, PacketID: 7}},
		{"qos2 dup retain", &PublishPacket{Topic: "t", Payload: nil, QoS: QoS2, PacketID: 99, Dup: true, Retain: true}},
		{"empty payload", &PublishPacket{Topic: "x/y/z", Payload: nil}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.pkt).(*PublishPacket)
			if got.Topic != tt.pkt.Topic || !bytes.Equal(got.Payload, tt.pkt.Payload) ||
				got.QoS != tt.pkt.QoS || got.PacketID != tt.pkt.PacketID ||
				got.Dup != tt.pkt.Dup || got.Retain != tt.pkt.Retain {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, tt.pkt)
			}
		})
	}
}

func TestPublishQoS1RequiresPacketID(t *testing.T) {
	_, err := Encode(&PublishPacket{Topic: "t", QoS: QoS1})
	if !errors.Is(err, ErrProtocolViolated) {
		t.Fatalf("Encode(QoS1, id=0) err = %v, want ErrProtocolViolated", err)
	}
}

// TestAppendEncodeQoS0PublishMatchesAppendEncode: the single-pass QoS 0
// encoder writes the same frame as a PublishPacket, RETAIN flag included.
func TestAppendEncodeQoS0PublishMatchesAppendEncode(t *testing.T) {
	for _, retain := range []bool{false, true} {
		want, err := Encode(&PublishPacket{Topic: "a/b", Payload: []byte("xyz"), Retain: retain})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendEncodeQoS0Publish([]byte("pre"), "a/b", []byte("xyz"), retain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("pre"), want...)) {
			t.Fatalf("retain %v: frame %x, want pre+%x", retain, got, want)
		}
		if !retain {
			plain, _ := AppendEncodePublish(nil, "a/b", []byte("xyz"))
			if !bytes.Equal(plain, want) {
				t.Fatalf("AppendEncodePublish frame %x, want %x", plain, want)
			}
		}
	}
}

// A QoS 0 PUBLISH must not have DUP set (MQTT-3.3.1-2): neither decoded
// nor encoded.
func TestQoS0PublishWithDupIsProtocolViolation(t *testing.T) {
	if _, err := ReadPacket(bytes.NewReader([]byte{0x38, 0x04, 0x00, 0x01, 'a', 'x'}), 0); !errors.Is(err, ErrProtocolViolated) {
		t.Fatalf("decode: err = %v, want ErrProtocolViolated", err)
	}
	if _, err := Encode(&PublishPacket{Topic: "a", Payload: []byte("x"), Dup: true}); !errors.Is(err, ErrProtocolViolated) {
		t.Fatalf("encode: err = %v, want ErrProtocolViolated", err)
	}
}

func TestPublishRejectsWildcardTopic(t *testing.T) {
	_, err := Encode(&PublishPacket{Topic: "a/+/b"})
	if !errors.Is(err, ErrInvalidTopic) {
		t.Fatalf("err = %v, want ErrInvalidTopic", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, pt := range []PacketType{PUBACK, PUBREC, PUBREL, PUBCOMP, UNSUBACK} {
		pkt := &AckPacket{PacketType: pt, PacketID: 1234}
		got := roundTrip(t, pkt)
		if !reflect.DeepEqual(got, pkt) {
			t.Errorf("%v round trip: got %+v want %+v", pt, got, pkt)
		}
		want, _ := Encode(pkt)
		if frame := AppendEncodeAck([]byte("pre"), pt, 1234); !bytes.Equal(frame, append([]byte("pre"), want...)) {
			t.Errorf("%v: AppendEncodeAck frame %x, want pre+%x", pt, frame, want)
		}
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	pkt := &SubscribePacket{
		PacketID: 42,
		Subscriptions: []Subscription{
			{TopicFilter: "ifot/sensor/+", QoS: QoS1},
			{TopicFilter: "ifot/#", QoS: QoS0},
		},
	}
	got := roundTrip(t, pkt)
	if !reflect.DeepEqual(got, pkt) {
		t.Errorf("round trip: got %+v want %+v", got, pkt)
	}
}

func TestSubscribeRequiresTopics(t *testing.T) {
	if _, err := Encode(&SubscribePacket{PacketID: 1}); !errors.Is(err, ErrProtocolViolated) {
		t.Fatalf("err = %v, want ErrProtocolViolated", err)
	}
}

func TestSubackRoundTrip(t *testing.T) {
	pkt := &SubackPacket{PacketID: 9, ReturnCodes: []byte{0, 1, SubackFailure}}
	got := roundTrip(t, pkt)
	if !reflect.DeepEqual(got, pkt) {
		t.Errorf("round trip: got %+v want %+v", got, pkt)
	}
}

func TestUnsubscribeRoundTrip(t *testing.T) {
	pkt := &UnsubscribePacket{PacketID: 5, TopicFilters: []string{"a/b", "c/#"}}
	got := roundTrip(t, pkt)
	if !reflect.DeepEqual(got, pkt) {
		t.Errorf("round trip: got %+v want %+v", got, pkt)
	}
}

func TestEmptyPackets(t *testing.T) {
	for _, p := range []Packet{&PingreqPacket{}, &PingrespPacket{}, &DisconnectPacket{}} {
		got := roundTrip(t, p)
		if got.Type() != p.Type() {
			t.Errorf("round trip type = %v, want %v", got.Type(), p.Type())
		}
	}
}

func TestReadPacketEnforcesMaxSize(t *testing.T) {
	data, err := Encode(&PublishPacket{Topic: "t", Payload: make([]byte, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPacket(bytes.NewReader(data), 100); !errors.Is(err, ErrPacketTooLarge) {
		t.Fatalf("err = %v, want ErrPacketTooLarge", err)
	}
}

// A peer that closes between packets is an orderly io.EOF; one that closes
// after any byte of a frame (header, inside the two-byte remaining length,
// anywhere in the body) must surface as io.ErrUnexpectedEOF.
func TestReadPacketTruncated(t *testing.T) {
	data, err := Encode(&PublishPacket{Topic: "topic", Payload: make([]byte, 200)})
	if err != nil {
		t.Fatal(err)
	}
	// Both paths through ReadPacket: a reader with ReadByte (what the broker
	// and client hand it) and a bare io.Reader (the fallback).
	for _, kind := range []struct {
		name string
		wrap func([]byte) io.Reader
	}{
		{"bufio", func(b []byte) io.Reader { return bufio.NewReader(bytes.NewReader(b)) }},
		{"bare", func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} }},
	} {
		for cut := 0; cut < len(data); cut++ {
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF
			}
			if _, err := ReadPacket(kind.wrap(data[:cut]), 0); err != want {
				t.Errorf("%s reader, %d of %d bytes: err = %v, want %v", kind.name, cut, len(data), err, want)
			}
		}
		if _, err := ReadPacket(kind.wrap(data), 0); err != nil {
			t.Errorf("%s reader, whole frame: %v", kind.name, err)
		}
	}
}

// A QoS 0 PUBLISH read from a buffered reader costs three heap objects:
// the body, the packet struct and the topic string.
func TestReadPacketPublishAllocs(t *testing.T) {
	frame, err := Encode(&PublishPacket{Topic: "ifot/sensor/acc/1", Payload: make([]byte, 32)})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	r := bufio.NewReader(bytes.NewReader(bytes.Repeat(frame, runs+1)))
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := ReadPacket(r, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("ReadPacket(PUBLISH) = %.1f allocs, want <= 3", allocs)
	}
}

// The payload aliases the packet's body, which every holder of the packet
// shares: an append by one holder must reallocate, not write into bytes the
// others (or the rest of the body's backing array) can see.
func TestPublishPayloadAppendDoesNotLeak(t *testing.T) {
	frame, err := Encode(&PublishPacket{Topic: "t", Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	body := append(make([]byte, 0, len(frame)+8), frame[2:]...)
	spare := body[len(body) : len(body)+1]
	spare[0] = 0xAA
	pkt, err := Decode(PUBLISH, 0, body)
	if err != nil {
		t.Fatal(err)
	}
	pub := pkt.(*PublishPacket)
	other := pub.Payload // a second holder: a lane, a session queue, a retained entry
	grown := append(pub.Payload, 'X')
	grown[0] = 'P'
	if string(other) != "payload" || string(pub.Payload) != "payload" {
		t.Fatalf("append through one holder changed the shared payload: %q / %q", other, pub.Payload)
	}
	if spare[0] != 0xAA {
		t.Fatal("append wrote past the payload into the body's backing array")
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := Decode(PacketType(0), 0, nil); !errors.Is(err, ErrUnknownPacket) {
		t.Fatalf("err = %v, want ErrUnknownPacket", err)
	}
	if _, err := Decode(PacketType(15), 0, nil); !errors.Is(err, ErrUnknownPacket) {
		t.Fatalf("err = %v, want ErrUnknownPacket", err)
	}
}

func TestConnectRejectsReservedFlagBit(t *testing.T) {
	data, err := Encode(&ConnectPacket{ClientID: "a", CleanSession: true})
	if err != nil {
		t.Fatal(err)
	}
	// Connect flags byte is at: 1 (fixed hdr) + 1 (remlen, small pkt) +
	// 2+4 (proto name) + 1 (level) = offset 9.
	data[9] |= 1
	if _, err := ReadPacket(bytes.NewReader(data), 0); err == nil {
		t.Fatal("ReadPacket accepted CONNECT with reserved flag bit set")
	}
}

func TestRemainingLengthRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 2097151, 2097152, MaxRemainingLength} {
		b := appendRemainingLength(nil, n)
		got, err := readRemainingLength(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("readRemainingLength(%d) error: %v", n, err)
		}
		if got != n {
			t.Errorf("remaining length %d round-tripped to %d", n, got)
		}
	}
}

func TestRemainingLengthOverlong(t *testing.T) {
	_, err := readRemainingLength(bytes.NewReader([]byte{0x80, 0x80, 0x80, 0x80, 0x01}))
	if !errors.Is(err, ErrMalformedPacket) {
		t.Fatalf("err = %v, want ErrMalformedPacket", err)
	}
}

func TestPingreqRejectsBody(t *testing.T) {
	if _, err := Decode(PINGREQ, 0, []byte{1}); err == nil {
		t.Fatal("Decode accepted PINGREQ with payload")
	}
}

// Property: every QoS-0 publish with a valid topic round-trips.
func TestPublishRoundTripProperty(t *testing.T) {
	f := func(payload []byte, topicSeed uint8) bool {
		topic := "ifot/prop/" + string(rune('a'+topicSeed%26))
		in := &PublishPacket{Topic: topic, Payload: payload}
		data, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := ReadPacket(bytes.NewReader(data), 0)
		if err != nil {
			return false
		}
		pub, ok := out.(*PublishPacket)
		return ok && pub.Topic == topic && bytes.Equal(pub.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestReadPacketFuzzNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = ReadPacket(bytes.NewReader(data), 1<<16)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWritePacket(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePacket(&buf, &PingreqPacket{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPacket(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type() != PINGREQ {
		t.Fatalf("type = %v, want PINGREQ", got.Type())
	}
}

func TestReadPacketEOF(t *testing.T) {
	_, err := ReadPacket(bytes.NewReader(nil), 0)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestPacketTypeString(t *testing.T) {
	if got := PUBLISH.String(); got != "PUBLISH" {
		t.Errorf("PUBLISH.String() = %q", got)
	}
	if got := PacketType(99).String(); got != "UNKNOWN(99)" {
		t.Errorf("PacketType(99).String() = %q", got)
	}
}
