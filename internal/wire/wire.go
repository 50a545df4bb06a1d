// Package wire implements the MQTT 3.1.1 wire protocol: fixed headers,
// variable headers, and payloads for every control packet type. It is the
// transport substrate for the IFoT flow-distribution function (the paper's
// prototype used Mosquitto; this package plus internal/broker replaces it).
package wire

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// PacketType identifies an MQTT control packet.
type PacketType byte

// MQTT 3.1.1 control packet types (spec section 2.2.1).
const (
	CONNECT     PacketType = 1
	CONNACK     PacketType = 2
	PUBLISH     PacketType = 3
	PUBACK      PacketType = 4
	PUBREC      PacketType = 5
	PUBREL      PacketType = 6
	PUBCOMP     PacketType = 7
	SUBSCRIBE   PacketType = 8
	SUBACK      PacketType = 9
	UNSUBSCRIBE PacketType = 10
	UNSUBACK    PacketType = 11
	PINGREQ     PacketType = 12
	PINGRESP    PacketType = 13
	DISCONNECT  PacketType = 14
)

// String returns the spec name of the packet type.
func (t PacketType) String() string {
	names := map[PacketType]string{
		CONNECT: "CONNECT", CONNACK: "CONNACK", PUBLISH: "PUBLISH",
		PUBACK: "PUBACK", PUBREC: "PUBREC", PUBREL: "PUBREL",
		PUBCOMP: "PUBCOMP", SUBSCRIBE: "SUBSCRIBE", SUBACK: "SUBACK",
		UNSUBSCRIBE: "UNSUBSCRIBE", UNSUBACK: "UNSUBACK",
		PINGREQ: "PINGREQ", PINGRESP: "PINGRESP", DISCONNECT: "DISCONNECT",
	}
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("UNKNOWN(%d)", byte(t))
}

// QoS is an MQTT quality-of-service level.
type QoS byte

// Supported QoS levels.
const (
	QoS0 QoS = 0 // at most once
	QoS1 QoS = 1 // at least once
	QoS2 QoS = 2 // exactly once
)

// ConnackCode is a CONNACK return code (spec table 3.1).
type ConnackCode byte

// CONNACK return codes.
const (
	ConnAccepted          ConnackCode = 0
	ConnRefusedVersion    ConnackCode = 1
	ConnRefusedIdentifier ConnackCode = 2
	ConnRefusedUnavail    ConnackCode = 3
	ConnRefusedBadAuth    ConnackCode = 4
	ConnRefusedNotAuth    ConnackCode = 5
)

// SubackFailure is the SUBACK return code for a rejected subscription.
const SubackFailure byte = 0x80

// Errors returned by the codec.
var (
	ErrMalformedPacket  = errors.New("wire: malformed packet")
	ErrPacketTooLarge   = errors.New("wire: packet exceeds maximum size")
	ErrInvalidQoS       = errors.New("wire: invalid QoS")
	ErrInvalidTopic     = errors.New("wire: invalid topic")
	ErrUnknownPacket    = errors.New("wire: unknown packet type")
	ErrProtocolViolated = errors.New("wire: protocol violation")
)

// MaxRemainingLength is the largest representable remaining length
// (spec 2.2.3: four bytes of varint).
const MaxRemainingLength = 268435455

// Packet is any MQTT control packet.
type Packet interface {
	// Type reports the control packet type.
	Type() PacketType
	// encode appends the variable header + payload to *buf (which may
	// already hold data and is never truncated) and returns the
	// fixed-header flag nibble. Append-style encoding lets callers reuse
	// pooled buffers across packets instead of allocating per encode.
	encode(buf *[]byte) (flags byte, err error)
	// decode parses the variable header + payload from body given the
	// fixed-header flag nibble.
	decode(flags byte, body []byte) error
}

// ConnectPacket is the client connection request.
type ConnectPacket struct {
	ClientID     string
	CleanSession bool
	KeepAlive    uint16 // seconds
	// ProtocolLevel is the MQTT revision: 4 for MQTT 3.1.1 (default when
	// zero), 3 for the legacy MQTT 3.1 ("MQIsdp") dialect.
	ProtocolLevel byte

	WillFlag    bool
	WillTopic   string
	WillMessage []byte
	WillQoS     QoS
	WillRetain  bool

	Username    string
	HasUsername bool
	Password    []byte
	HasPassword bool
}

// ConnackPacket is the broker's connection acknowledgement.
type ConnackPacket struct {
	SessionPresent bool
	Code           ConnackCode
}

// PublishPacket carries an application message.
type PublishPacket struct {
	Topic    string
	Payload  []byte
	QoS      QoS
	Retain   bool
	Dup      bool
	PacketID uint16 // present only for QoS > 0
}

// AckPacket covers PUBACK, PUBREC, PUBREL, PUBCOMP, and UNSUBACK, which all
// carry just a packet identifier.
type AckPacket struct {
	PacketType PacketType
	PacketID   uint16
}

// Subscription pairs a topic filter with a requested QoS.
type Subscription struct {
	TopicFilter string
	QoS         QoS
}

// SubscribePacket requests one or more subscriptions.
type SubscribePacket struct {
	PacketID      uint16
	Subscriptions []Subscription
}

// SubackPacket acknowledges a SUBSCRIBE; one return code per subscription.
type SubackPacket struct {
	PacketID    uint16
	ReturnCodes []byte
}

// UnsubscribePacket removes subscriptions.
type UnsubscribePacket struct {
	PacketID     uint16
	TopicFilters []string
}

// PingreqPacket is a keep-alive probe.
type PingreqPacket struct{}

// PingrespPacket is the keep-alive response.
type PingrespPacket struct{}

// DisconnectPacket is the client's graceful goodbye.
type DisconnectPacket struct{}

// Type implementations.

// Type implements Packet.
func (*ConnectPacket) Type() PacketType { return CONNECT }

// Type implements Packet.
func (*ConnackPacket) Type() PacketType { return CONNACK }

// Type implements Packet.
func (*PublishPacket) Type() PacketType { return PUBLISH }

// Type implements Packet.
func (p *AckPacket) Type() PacketType { return p.PacketType }

// Type implements Packet.
func (*SubscribePacket) Type() PacketType { return SUBSCRIBE }

// Type implements Packet.
func (*SubackPacket) Type() PacketType { return SUBACK }

// Type implements Packet.
func (*UnsubscribePacket) Type() PacketType { return UNSUBSCRIBE }

// Type implements Packet.
func (*PingreqPacket) Type() PacketType { return PINGREQ }

// Type implements Packet.
func (*PingrespPacket) Type() PacketType { return PINGRESP }

// Type implements Packet.
func (*DisconnectPacket) Type() PacketType { return DISCONNECT }

// encodeBufPool recycles encode scratch buffers (packet bodies and whole
// frames). Buffers that grew beyond maxPooledBuf are dropped rather than
// returned, so one oversized payload cannot pin memory in the pool.
var encodeBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

const maxPooledBuf = 64 << 10

func putEncodeBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		encodeBufPool.Put(bp)
	}
}

// WritePacket encodes p and writes it to w as a single Write call. The
// frame is built in a pooled buffer, so steady-state it allocates nothing.
func WritePacket(w io.Writer, p Packet) error {
	bp := encodeBufPool.Get().(*[]byte)
	frame, err := AppendEncode((*bp)[:0], p)
	*bp = frame
	if err == nil {
		_, err = w.Write(frame)
	}
	putEncodeBuf(bp)
	return err
}

// Encode serializes a packet to its full wire representation in a freshly
// allocated slice the caller owns.
func Encode(p Packet) ([]byte, error) {
	frame, err := AppendEncode(nil, p)
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// AppendEncode appends p's full wire representation (fixed header,
// remaining length, variable header, payload) to dst and returns the
// extended slice. On error dst is returned unchanged. The body scratch is
// pooled, so the only allocation is dst growth.
func AppendEncode(dst []byte, p Packet) ([]byte, error) {
	bp := encodeBufPool.Get().(*[]byte)
	body := (*bp)[:0]
	flags, err := p.encode(&body)
	*bp = body
	if err == nil && len(body) > MaxRemainingLength {
		err = ErrPacketTooLarge
	}
	if err != nil {
		putEncodeBuf(bp)
		return dst, err
	}
	dst = append(dst, byte(p.Type())<<4|flags)
	dst = appendRemainingLength(dst, len(body))
	dst = append(dst, body...)
	putEncodeBuf(bp)
	return dst, nil
}

// AppendEncodePublish appends a QoS 0, non-retained, non-dup PUBLISH frame
// for topic/payload to dst — the frame brokers fan out to every effective-
// QoS-0 subscriber. It is AppendEncodeQoS0Publish with retain false.
func AppendEncodePublish(dst []byte, topic string, payload []byte) ([]byte, error) {
	return AppendEncodeQoS0Publish(dst, topic, payload, false)
}

// AppendEncodeQoS0Publish appends a QoS 0, non-dup PUBLISH frame for
// topic/payload to dst, with the RETAIN flag set when retain is true. It is
// equivalent to AppendEncode with such a PublishPacket but encodes in a
// single pass with the exact frame size reserved up front: no packet value,
// no interface dispatch, no pooled body scratch. On error dst is returned
// unchanged.
func AppendEncodeQoS0Publish(dst []byte, topic string, payload []byte, retain bool) ([]byte, error) {
	if err := ValidateTopicName(topic); err != nil {
		return dst, err
	}
	remaining := 2 + len(topic) + len(payload)
	if remaining > MaxRemainingLength {
		return dst, ErrPacketTooLarge
	}
	if dst == nil {
		// 1 type byte + at most 4 remaining-length digits + body.
		dst = make([]byte, 0, 5+remaining)
	}
	first := byte(PUBLISH) << 4
	if retain {
		first |= publishRetain
	}
	dst = append(dst, first)
	dst = appendRemainingLength(dst, remaining)
	dst = appendString(dst, topic)
	return append(dst, payload...), nil
}

// ReadPacket reads and decodes exactly one packet from r. maxSize bounds the
// remaining length to defend against hostile peers; pass 0 for the protocol
// maximum. When r is an io.ByteReader (a *bufio.Reader around a socket) the
// fixed header is taken byte by byte from its buffer, so a burst of small
// packets costs one read of the underlying connection, not three per packet.
// A clean close between packets returns io.EOF; a close after any byte of
// a packet returns io.ErrUnexpectedEOF.
func ReadPacket(r io.Reader, maxSize int) (Packet, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = &byteReader{r: r}
	}
	first, remaining, err := readFixedHeader(br, maxSize)
	if err != nil {
		return nil, err
	}
	body := make([]byte, remaining)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, midPacket(err)
	}
	return Decode(PacketType(first>>4), first&0x0F, body)
}

// readFixedHeader reads a packet's first byte and remaining length,
// refusing a remaining length above maxSize (0: the protocol maximum).
func readFixedHeader(br io.ByteReader, maxSize int) (first byte, remaining int, err error) {
	if maxSize <= 0 || maxSize > MaxRemainingLength {
		maxSize = MaxRemainingLength
	}
	if first, err = br.ReadByte(); err != nil {
		return 0, 0, err
	}
	if remaining, err = readRemainingLength(br); err != nil {
		return 0, 0, err
	}
	if remaining > maxSize {
		return 0, 0, ErrPacketTooLarge
	}
	return first, remaining, nil
}

// byteReader is ReadPacket's fallback for a reader without ReadByte.
type byteReader struct {
	r io.Reader
	b [1]byte
}

func (br *byteReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(br.r, br.b[:])
	return br.b[0], err
}

// midPacket turns the io.EOF of a read that began inside a packet into
// io.ErrUnexpectedEOF, so a torn frame never looks like an orderly close.
func midPacket(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Decode parses a packet body given its type and fixed-header flags. A
// PUBLISH keeps body as its Payload, so body must not be reused. Every
// other packet copies what it keeps out of body.
func Decode(pt PacketType, flags byte, body []byte) (Packet, error) {
	var p Packet
	switch pt {
	case CONNECT:
		p = &ConnectPacket{}
	case CONNACK:
		p = &ConnackPacket{}
	case PUBLISH:
		p = &PublishPacket{}
	case PUBACK, PUBREC, PUBREL, PUBCOMP, UNSUBACK:
		p = &AckPacket{PacketType: pt}
	case SUBSCRIBE:
		p = &SubscribePacket{}
	case SUBACK:
		p = &SubackPacket{}
	case UNSUBSCRIBE:
		p = &UnsubscribePacket{}
	case PINGREQ:
		p = &PingreqPacket{}
	case PINGRESP:
		p = &PingrespPacket{}
	case DISCONNECT:
		p = &DisconnectPacket{}
	default:
		return nil, fmt.Errorf("%w: type %d", ErrUnknownPacket, pt)
	}
	if err := p.decode(flags, body); err != nil {
		return nil, err
	}
	return p, nil
}

// --- CONNECT ---

// Protocol identifiers for the two supported MQTT revisions.
const (
	protocolName311 = "MQTT"   // MQTT 3.1.1 (level 4)
	protocolName31  = "MQIsdp" // MQTT 3.1 (level 3)

	// ProtocolLevel31 and ProtocolLevel311 are the CONNECT protocol
	// levels of MQTT 3.1 and 3.1.1.
	ProtocolLevel31  byte = 3
	ProtocolLevel311 byte = 4
)

func (p *ConnectPacket) encode(buf *[]byte) (byte, error) {
	level := p.ProtocolLevel
	if level == 0 {
		level = ProtocolLevel311
	}
	name := protocolName311
	if level == ProtocolLevel31 {
		name = protocolName31
	}
	b := appendString(*buf, name)
	b = append(b, level)

	var connectFlags byte
	if p.CleanSession {
		connectFlags |= 1 << 1
	}
	if p.WillFlag {
		if p.WillQoS > QoS2 {
			return 0, ErrInvalidQoS
		}
		connectFlags |= 1 << 2
		connectFlags |= byte(p.WillQoS) << 3
		if p.WillRetain {
			connectFlags |= 1 << 5
		}
	}
	if p.HasPassword {
		connectFlags |= 1 << 6
	}
	if p.HasUsername {
		connectFlags |= 1 << 7
	}
	b = append(b, connectFlags)
	b = appendUint16(b, p.KeepAlive)
	b = appendString(b, p.ClientID)
	if p.WillFlag {
		b = appendString(b, p.WillTopic)
		b = appendBytes(b, p.WillMessage)
	}
	if p.HasUsername {
		b = appendString(b, p.Username)
	}
	if p.HasPassword {
		b = appendBytes(b, p.Password)
	}
	*buf = b
	return 0, nil
}

func (p *ConnectPacket) decode(flags byte, body []byte) error {
	if flags != 0 {
		return ErrProtocolViolated
	}
	r := reader{buf: body}
	name, err := r.string()
	if err != nil {
		return err
	}
	level, err := r.byte()
	if err != nil {
		return err
	}
	// Accept both MQTT 3.1.1 ("MQTT", level 4) and the legacy MQTT 3.1
	// ("MQIsdp", level 3). Unknown names are malformed; unknown levels
	// decode fine so the broker can answer with CONNACK return code 1
	// (unacceptable protocol version) as the spec requires.
	if name != protocolName311 && name != protocolName31 {
		return fmt.Errorf("%w: protocol name %q", ErrMalformedPacket, name)
	}
	p.ProtocolLevel = level
	cf, err := r.byte()
	if err != nil {
		return err
	}
	if cf&1 != 0 { // reserved bit must be zero
		return ErrProtocolViolated
	}
	p.CleanSession = cf&(1<<1) != 0
	p.WillFlag = cf&(1<<2) != 0
	p.WillQoS = QoS((cf >> 3) & 0x3)
	p.WillRetain = cf&(1<<5) != 0
	p.HasPassword = cf&(1<<6) != 0
	p.HasUsername = cf&(1<<7) != 0
	if !p.WillFlag && (p.WillQoS != 0 || p.WillRetain) {
		return ErrProtocolViolated
	}
	if p.WillQoS > QoS2 {
		return ErrInvalidQoS
	}
	if p.KeepAlive, err = r.uint16(); err != nil {
		return err
	}
	if p.ClientID, err = r.string(); err != nil {
		return err
	}
	if p.WillFlag {
		if p.WillTopic, err = r.string(); err != nil {
			return err
		}
		if p.WillMessage, err = r.bytes(); err != nil {
			return err
		}
	}
	if p.HasUsername {
		if p.Username, err = r.string(); err != nil {
			return err
		}
	}
	if p.HasPassword {
		if p.Password, err = r.bytes(); err != nil {
			return err
		}
	}
	return r.expectEOF()
}

// --- CONNACK ---

func (p *ConnackPacket) encode(buf *[]byte) (byte, error) {
	var ack byte
	if p.SessionPresent {
		ack = 1
	}
	*buf = append(*buf, ack, byte(p.Code))
	return 0, nil
}

func (p *ConnackPacket) decode(flags byte, body []byte) error {
	if flags != 0 || len(body) != 2 {
		return ErrMalformedPacket
	}
	if body[0] > 1 {
		return ErrMalformedPacket
	}
	p.SessionPresent = body[0] == 1
	p.Code = ConnackCode(body[1])
	return nil
}

// --- PUBLISH ---

// publishRetain is the RETAIN bit of a PUBLISH fixed header's flags.
const publishRetain = 1

func (p *PublishPacket) encode(buf *[]byte) (byte, error) {
	if p.QoS > QoS2 {
		return 0, ErrInvalidQoS
	}
	if p.Dup && p.QoS == QoS0 {
		return 0, fmt.Errorf("%w: QoS 0 publish with DUP set", ErrProtocolViolated)
	}
	if err := ValidateTopicName(p.Topic); err != nil {
		return 0, err
	}
	var flags byte
	if p.Dup {
		flags |= 1 << 3
	}
	flags |= byte(p.QoS) << 1
	if p.Retain {
		flags |= publishRetain
	}
	b := appendString(*buf, p.Topic)
	if p.QoS > QoS0 {
		if p.PacketID == 0 {
			return 0, fmt.Errorf("%w: QoS>0 publish requires nonzero packet id", ErrProtocolViolated)
		}
		b = appendUint16(b, p.PacketID)
	}
	b = append(b, p.Payload...)
	*buf = b
	return flags, nil
}

func (p *PublishPacket) decode(flags byte, body []byte) error {
	p.Dup = flags&(1<<3) != 0
	p.QoS = QoS((flags >> 1) & 0x3)
	p.Retain = flags&publishRetain != 0
	if p.QoS > QoS2 {
		return ErrInvalidQoS
	}
	if p.Dup && p.QoS == QoS0 { // MQTT-3.3.1-2
		return ErrProtocolViolated
	}
	r := reader{buf: body}
	var err error
	if p.Topic, err = r.string(); err != nil {
		return err
	}
	if err := ValidateTopicName(p.Topic); err != nil {
		return err
	}
	if p.QoS > QoS0 {
		if p.PacketID, err = r.uint16(); err != nil {
			return err
		}
		if p.PacketID == 0 {
			return ErrProtocolViolated
		}
	}
	// The payload aliases body, which the reader allocated for this packet
	// alone: every holder of the packet shares it read-only. The capacity
	// is clipped so that an append by one holder reallocates.
	if r.off < len(body) {
		p.Payload = body[r.off:len(body):len(body)]
	}
	return nil
}

// --- PUBACK / PUBREC / PUBREL / PUBCOMP / UNSUBACK ---

// ackFlags returns the fixed-header flags of ack packet type t.
func ackFlags(t PacketType) byte {
	if t == PUBREL {
		return 0x2 // spec: PUBREL fixed-header flags are 0010
	}
	return 0
}

// AppendEncodeAck appends the 4-byte frame of ack packet type t (PUBACK,
// PUBREC, PUBREL, PUBCOMP or UNSUBACK) for packet id to dst: AppendEncode
// of such an AckPacket, without the packet value.
func AppendEncodeAck(dst []byte, t PacketType, id uint16) []byte {
	dst = append(dst, byte(t)<<4|ackFlags(t), 2)
	return appendUint16(dst, id)
}

func (p *AckPacket) encode(buf *[]byte) (byte, error) {
	*buf = appendUint16(*buf, p.PacketID)
	return ackFlags(p.PacketType), nil
}

func (p *AckPacket) decode(flags byte, body []byte) error {
	if flags != ackFlags(p.PacketType) || len(body) != 2 {
		return ErrMalformedPacket
	}
	p.PacketID = uint16(body[0])<<8 | uint16(body[1])
	return nil
}

// --- SUBSCRIBE ---

func (p *SubscribePacket) encode(buf *[]byte) (byte, error) {
	if len(p.Subscriptions) == 0 {
		return 0, fmt.Errorf("%w: SUBSCRIBE requires at least one topic filter", ErrProtocolViolated)
	}
	if p.PacketID == 0 {
		return 0, fmt.Errorf("%w: SUBSCRIBE requires nonzero packet id", ErrProtocolViolated)
	}
	b := appendUint16(*buf, p.PacketID)
	for _, s := range p.Subscriptions {
		if s.QoS > QoS2 {
			return 0, ErrInvalidQoS
		}
		if err := ValidateTopicFilter(s.TopicFilter); err != nil {
			return 0, err
		}
		b = appendString(b, s.TopicFilter)
		b = append(b, byte(s.QoS))
	}
	*buf = b
	return 0x2, nil
}

func (p *SubscribePacket) decode(flags byte, body []byte) error {
	if flags != 0x2 {
		return ErrProtocolViolated
	}
	r := reader{buf: body}
	var err error
	if p.PacketID, err = r.uint16(); err != nil {
		return err
	}
	for !r.eof() {
		filter, err := r.string()
		if err != nil {
			return err
		}
		if err := ValidateTopicFilter(filter); err != nil {
			return err
		}
		q, err := r.byte()
		if err != nil {
			return err
		}
		if QoS(q) > QoS2 {
			return ErrInvalidQoS
		}
		p.Subscriptions = append(p.Subscriptions, Subscription{TopicFilter: filter, QoS: QoS(q)})
	}
	if len(p.Subscriptions) == 0 {
		return ErrProtocolViolated
	}
	return nil
}

// --- SUBACK ---

func (p *SubackPacket) encode(buf *[]byte) (byte, error) {
	b := appendUint16(*buf, p.PacketID)
	b = append(b, p.ReturnCodes...)
	*buf = b
	return 0, nil
}

func (p *SubackPacket) decode(flags byte, body []byte) error {
	if flags != 0 || len(body) < 3 {
		return ErrMalformedPacket
	}
	p.PacketID = uint16(body[0])<<8 | uint16(body[1])
	p.ReturnCodes = append([]byte(nil), body[2:]...)
	return nil
}

// --- UNSUBSCRIBE ---

func (p *UnsubscribePacket) encode(buf *[]byte) (byte, error) {
	if len(p.TopicFilters) == 0 {
		return 0, fmt.Errorf("%w: UNSUBSCRIBE requires at least one topic filter", ErrProtocolViolated)
	}
	b := appendUint16(*buf, p.PacketID)
	for _, f := range p.TopicFilters {
		if err := ValidateTopicFilter(f); err != nil {
			return 0, err
		}
		b = appendString(b, f)
	}
	*buf = b
	return 0x2, nil
}

func (p *UnsubscribePacket) decode(flags byte, body []byte) error {
	if flags != 0x2 {
		return ErrProtocolViolated
	}
	r := reader{buf: body}
	var err error
	if p.PacketID, err = r.uint16(); err != nil {
		return err
	}
	for !r.eof() {
		f, err := r.string()
		if err != nil {
			return err
		}
		if err := ValidateTopicFilter(f); err != nil {
			return err
		}
		p.TopicFilters = append(p.TopicFilters, f)
	}
	if len(p.TopicFilters) == 0 {
		return ErrProtocolViolated
	}
	return nil
}

// --- PINGREQ / PINGRESP / DISCONNECT ---

func (*PingreqPacket) encode(buf *[]byte) (byte, error) { return 0, nil }

func (*PingreqPacket) decode(flags byte, body []byte) error {
	if flags != 0 || len(body) != 0 {
		return ErrMalformedPacket
	}
	return nil
}

func (*PingrespPacket) encode(buf *[]byte) (byte, error) { return 0, nil }

func (*PingrespPacket) decode(flags byte, body []byte) error {
	if flags != 0 || len(body) != 0 {
		return ErrMalformedPacket
	}
	return nil
}

func (*DisconnectPacket) encode(buf *[]byte) (byte, error) { return 0, nil }

func (*DisconnectPacket) decode(flags byte, body []byte) error {
	if flags != 0 || len(body) != 0 {
		return ErrMalformedPacket
	}
	return nil
}

// --- primitive encoding helpers ---

func appendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func appendString(b []byte, s string) []byte {
	b = appendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = appendUint16(b, uint16(len(p)))
	return append(b, p...)
}

func appendRemainingLength(b []byte, n int) []byte {
	for {
		digit := byte(n % 128)
		n /= 128
		if n > 0 {
			digit |= 0x80
		}
		b = append(b, digit)
		if n == 0 {
			return b
		}
	}
}

// readRemainingLength reads the varint that follows the first header byte.
func readRemainingLength(r io.ByteReader) (int, error) {
	value, multiplier := 0, 1
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, midPacket(err)
		}
		value += int(b&0x7F) * multiplier
		if b&0x80 == 0 {
			return value, nil
		}
		multiplier *= 128
	}
	return 0, fmt.Errorf("%w: remaining length exceeds 4 bytes", ErrMalformedPacket)
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) eof() bool { return r.off >= len(r.buf) }

func (r *reader) expectEOF() error {
	if !r.eof() {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformedPacket, len(r.buf)-r.off)
	}
	return nil
}

func (r *reader) byte() (byte, error) {
	if r.off+1 > len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) uint16() (uint16, error) {
	if r.off+2 > len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := uint16(r.buf[r.off])<<8 | uint16(r.buf[r.off+1])
	r.off += 2
	return v, nil
}

// field returns the next length-prefixed field as a view into buf.
func (r *reader) field() ([]byte, error) {
	n, err := r.uint16()
	if err != nil {
		return nil, err
	}
	if r.off+int(n) > len(r.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) bytes() ([]byte, error) {
	b, err := r.field()
	return append([]byte(nil), b...), err
}

func (r *reader) string() (string, error) {
	b, err := r.field()
	return string(b), err
}
