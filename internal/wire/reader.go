package wire

import (
	"bufio"
	"io"
)

// forwardByte is the first byte of a PUBLISH with QoS 0 and neither DUP
// nor RETAIN: the one kind of frame a broker fans out as it arrived.
const forwardByte = byte(PUBLISH) << 4

// scratchSize bounds the bodies a Reader reads into its own scratch
// instead of a fresh slice: every ack, CONNACK and ping, and small
// SUBACKs.
const scratchSize = 64

// Reader reads one connection's packets through the connection's buffered
// reader, decoding as ReadPacket does — the same header read, the same
// per-type decode, the same errors — with two differences that save a
// received PUBLISH the packet object and, at a forwarding reader, the
// re-encoded frame:
//
//   - A PUBLISH or an ack is decoded into a value the Reader owns, valid
//     only until the next ReadPacket call. A PUBLISH's Topic and Payload
//     are the packet's own and may be kept (the Payload read-only, as from
//     ReadPacket); anything else must be copied out. Other packet types
//     are freshly allocated.
//   - At a forwarding reader, a PUBLISH whose first byte is exactly 0x30
//     is read into one buffer holding a canonically re-encoded fixed
//     header and then the body; Frame returns it, ready to forward.
//
// Beyond the bufio.Reader it wraps, a Reader holds only those two values
// and a 64-byte scratch, whatever the peer sends. It is not safe for
// concurrent use.
type Reader struct {
	br      *bufio.Reader
	maxSize int
	forward bool

	pub     PublishPacket
	ack     AckPacket
	frame   []byte // forward frame of the last packet read, or nil
	scratch [scratchSize]byte
}

// NewReader returns a Reader over br whose packets' remaining length is
// bounded by maxSize (0: the protocol maximum), as for ReadPacket. Only a
// forwarding reader keeps forward frames (see Frame): a broker forwards,
// a client does not.
func NewReader(br *bufio.Reader, maxSize int, forward bool) *Reader {
	return &Reader{br: br, maxSize: maxSize, forward: forward}
}

// ReadPacket reads and decodes the next packet. A *PublishPacket or
// *AckPacket it returns is reused by the next call; see Reader.
func (r *Reader) ReadPacket() (Packet, error) {
	r.frame = nil
	first, remaining, err := readFixedHeader(r.br, r.maxSize)
	if err != nil {
		return nil, err
	}
	pt, flags := PacketType(first>>4), first&0x0F
	if pt == PUBLISH {
		return r.readPublish(first, remaining)
	}
	body := r.scratch[:0]
	if remaining > len(r.scratch) {
		body = make([]byte, 0, remaining)
	}
	body = body[:remaining]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return nil, midPacket(err)
	}
	switch pt {
	case PUBACK, PUBREC, PUBREL, PUBCOMP, UNSUBACK:
		r.ack = AckPacket{PacketType: pt}
		if err := r.ack.decode(flags, body); err != nil {
			return nil, err
		}
		return &r.ack, nil
	}
	// Every decode but PUBLISH's copies what it keeps, so the scratch body
	// is free again once Decode returns.
	return Decode(pt, flags, body)
}

// readPublish reads a PUBLISH body into a slice of its own, preceded by a
// canonical fixed header when the frame is to be forwarded as is, and
// decodes it into r.pub.
func (r *Reader) readPublish(first byte, remaining int) (Packet, error) {
	var frame, body []byte
	if r.forward && first == forwardByte {
		// Sized exactly: a slack byte can cost a whole size class.
		var hdr [5]byte // type byte, ≤ 4 length digits
		h := appendRemainingLength(append(hdr[:0], first), remaining)
		frame = make([]byte, len(h)+remaining)
		body = frame[copy(frame, h):]
	} else {
		body = make([]byte, remaining)
	}
	if _, err := io.ReadFull(r.br, body); err != nil {
		return nil, midPacket(err)
	}
	r.pub = PublishPacket{}
	if err := r.pub.decode(first&0x0F, body); err != nil {
		return nil, err
	}
	r.frame = frame
	return &r.pub, nil
}

// Frame returns the forward frame of the packet the last ReadPacket call
// returned: at a forwarding reader, for a PUBLISH whose first byte was
// 0x30, its whole frame with the remaining length canonically encoded,
// byte-equal to AppendEncodePublish(Topic, Payload); otherwise nil. Like
// the Payload it holds, the frame is the packet's own and may be kept and
// shared read-only.
func (r *Reader) Frame() []byte { return r.frame }
