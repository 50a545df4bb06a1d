package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
)

// Binary MIX payload format (versioned):
//
//	byte 0:  magic 0xCE
//	byte 1:  version (2)
//	byte 2:  flags (bit 0: keyframe — a shard's contribution; clear: delta)
//	uvarint: shard index
//	uvarint: round sequence number
//	8 bytes: At as little-endian unix nanoseconds
//	string:  publishing module ID        (string = uvarint length + bytes)
//	uvarint: feature-name-table size N, then N strings
//	uvarint: label count L, then per label:
//	  string:  label
//	  uvarint: entry count E
//	  E × uvarint: name-table indices, delta-encoded (first absolute,
//	               then index minus predecessor; strictly ascending)
//	  E × 8 bytes: little-endian IEEE-754 float64 weights
//
// Feature IDs are process-local intern order, so the wire form carries a
// payload-local name table and entries reference it by index — each
// payload is self-describing and QoS0 drops cannot desynchronize naming.
// Entries sort by local ID before encoding, so table indices ascend and
// varint deltas stay small.
const (
	mixMagic        = 0xCE
	mixVersion      = 2
	mixFlagKeyframe = 1 << 0
)

// ErrBadMixPayload reports a MIX payload that is not a valid binary frame.
var ErrBadMixPayload = errors.New("core: bad mix payload")

// MixHeader describes one MIX payload independently of its weight entries.
type MixHeader struct {
	ModuleID string
	Shard    int
	// Round sequences a publisher's payloads: receivers apply deltas only
	// in unbroken round order and resynchronize from keyframes.
	Round    uint64
	Keyframe bool
	At       time.Time
}

// AppendEncodeMix appends the binary wire form of (h, d) to dst and
// returns the extended slice — append-style like wire.AppendEncode, so
// callers reuse one buffer across rounds. Entries are sorted in place per
// label; IDs must be unique within a label (exports guarantee this).
func AppendEncodeMix(dst []byte, h MixHeader, d *ml.MixDelta, syms *feature.Symbols) []byte {
	total := 0
	for i := range d.Labels {
		d.Labels[i].Sort()
		total += len(d.Labels[i].IDs)
	}
	// Payload-local name table: union of all referenced IDs, ascending.
	table := make([]uint32, 0, total)
	for i := range d.Labels {
		table = append(table, d.Labels[i].IDs...)
	}
	sort.Slice(table, func(i, j int) bool { return table[i] < table[j] })
	uniq := table[:0]
	for i, id := range table {
		if i == 0 || id != table[i-1] {
			uniq = append(uniq, id)
		}
	}
	table = uniq

	flags := byte(0)
	if h.Keyframe {
		flags |= mixFlagKeyframe
	}
	dst = append(dst, mixMagic, mixVersion, flags)
	dst = binary.AppendUvarint(dst, uint64(h.Shard))
	dst = binary.AppendUvarint(dst, h.Round)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(h.At.UnixNano()))
	dst = append(dst, b8[:]...)
	dst = appendMixString(dst, h.ModuleID)

	dst = binary.AppendUvarint(dst, uint64(len(table)))
	for _, id := range table {
		dst = appendMixString(dst, syms.Name(id))
	}

	dst = binary.AppendUvarint(dst, uint64(len(d.Labels)))
	for i := range d.Labels {
		ld := &d.Labels[i]
		dst = appendMixString(dst, ld.Label)
		dst = binary.AppendUvarint(dst, uint64(len(ld.IDs)))
		ti, prev := 0, uint64(0)
		for _, id := range ld.IDs {
			for table[ti] != id {
				ti++
			}
			idx := uint64(ti)
			dst = binary.AppendUvarint(dst, idx-prev)
			prev = idx
		}
		for _, v := range ld.Vals {
			binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
			dst = append(dst, b8[:]...)
		}
	}
	return dst
}

func appendMixString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeMix parses a binary MIX payload into d (entries as locally
// interned feature IDs) and returns its header. Arbitrary input never
// panics; malformed payloads return an error wrapping ErrBadMixPayload and
// leave d in an unspecified (but safe) state. Non-finite weights are
// rejected: a NaN must never reach a model.
func DecodeMix(payload []byte, syms *feature.Symbols, d *ml.MixDelta) (MixHeader, error) {
	var h MixHeader
	if len(payload) == 0 {
		return h, fmt.Errorf("%w: empty", ErrBadMixPayload)
	}
	if payload[0] != mixMagic {
		return h, fmt.Errorf("%w: magic 0x%02x", ErrBadMixPayload, payload[0])
	}
	if len(payload) < 3 {
		return h, fmt.Errorf("%w: truncated header", ErrBadMixPayload)
	}
	if payload[1] != mixVersion {
		return h, fmt.Errorf("%w: version %d", ErrBadMixPayload, payload[1])
	}
	h.Keyframe = payload[2]&mixFlagKeyframe != 0
	r := mixReader{b: payload, off: 3}

	shard, err := r.uvarint()
	if err != nil {
		return h, err
	}
	if shard > math.MaxInt32 {
		return h, fmt.Errorf("%w: shard %d", ErrBadMixPayload, shard)
	}
	h.Shard = int(shard)
	if h.Round, err = r.uvarint(); err != nil {
		return h, err
	}
	ts, err := r.bytes(8)
	if err != nil {
		return h, err
	}
	h.At = time.Unix(0, int64(binary.LittleEndian.Uint64(ts)))
	if h.ModuleID, err = r.str(); err != nil {
		return h, err
	}

	nNames, err := r.uvarint()
	if err != nil {
		return h, err
	}
	if nNames > uint64(r.remaining()) {
		return h, fmt.Errorf("%w: name table size %d", ErrBadMixPayload, nNames)
	}
	ids := make([]uint32, nNames)
	seen := make(map[string]struct{}, nNames)
	for i := range ids {
		name, err := r.str()
		if err != nil {
			return h, err
		}
		if _, dup := seen[name]; dup {
			return h, fmt.Errorf("%w: duplicate name %q", ErrBadMixPayload, name)
		}
		seen[name] = struct{}{}
		ids[i] = syms.Intern(name)
	}

	nLabels, err := r.uvarint()
	if err != nil {
		return h, err
	}
	if nLabels*2 > uint64(r.remaining()) {
		return h, fmt.Errorf("%w: label count %d", ErrBadMixPayload, nLabels)
	}
	d.Reset()
	for li := uint64(0); li < nLabels; li++ {
		label, err := r.str()
		if err != nil {
			return h, err
		}
		nEntries, err := r.uvarint()
		if err != nil {
			return h, err
		}
		if nEntries*9 > uint64(r.remaining()) {
			return h, fmt.Errorf("%w: entry count %d", ErrBadMixPayload, nEntries)
		}
		ld := d.Grow(label)
		idx := uint64(0)
		for e := uint64(0); e < nEntries; e++ {
			delta, err := r.uvarint()
			if err != nil {
				return h, err
			}
			if e > 0 && delta == 0 {
				return h, fmt.Errorf("%w: non-ascending entry index", ErrBadMixPayload)
			}
			idx += delta
			if idx >= nNames {
				return h, fmt.Errorf("%w: entry index %d of %d", ErrBadMixPayload, idx, nNames)
			}
			ld.IDs = append(ld.IDs, ids[idx])
		}
		for e := uint64(0); e < nEntries; e++ {
			vb, err := r.bytes(8)
			if err != nil {
				return h, err
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(vb))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return h, fmt.Errorf("%w: non-finite weight", ErrBadMixPayload)
			}
			ld.Vals = append(ld.Vals, v)
		}
	}
	if r.remaining() != 0 {
		return h, fmt.Errorf("%w: %d trailing bytes", ErrBadMixPayload, r.remaining())
	}
	return h, nil
}

// mixReader is a bounds-checked cursor over one payload.
type mixReader struct {
	b   []byte
	off int
}

func (r *mixReader) remaining() int { return len(r.b) - r.off }

func (r *mixReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrBadMixPayload)
	}
	r.off += n
	return v, nil
}

func (r *mixReader) bytes(n int) ([]byte, error) {
	if r.remaining() < n {
		return nil, fmt.Errorf("%w: truncated", ErrBadMixPayload)
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *mixReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("%w: string length %d", ErrBadMixPayload, n)
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
