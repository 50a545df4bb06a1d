package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary byte streams through the WAL record
// decoder. Whatever the input — corrupted CRC, truncated tail, zero-length
// records, hostile length prefixes — the decoder must return a typed error
// or a valid record, never panic, never loop, and never hand back a record
// whose checksum doesn't verify.
func FuzzDecodeRecord(f *testing.F) {
	// Seed corpus: the interesting shapes from the unit tests.
	f.Add([]byte{})                                                  // empty log
	f.Add(AppendRecord(nil, nil))                                    // zero-length record
	f.Add(AppendRecord(nil, []byte("hello")))                        // one good record
	f.Add(AppendRecord(AppendRecord(nil, []byte("a")), []byte("b"))) // two records
	f.Add(AppendRecord(nil, []byte("torn"))[:6])                     // torn header
	f.Add(AppendRecord(nil, []byte("torn-payload"))[:14])            // torn payload
	big := AppendRecord(nil, bytes.Repeat([]byte{0xEE}, 4096))
	f.Add(big) // max-length record under the fuzz bound
	flipped := AppendRecord(nil, []byte("crc-mismatch"))
	flipped[recordHeaderSize] ^= 0xFF
	f.Add(flipped) // corrupted payload
	huge := make([]byte, recordHeaderSize)
	binary.LittleEndian.PutUint32(huge[0:4], 0xFFFFFFFF)
	f.Add(huge) // hostile length prefix

	const maxBytes = 4096
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for i := 0; ; i++ {
			if i > len(data) {
				t.Fatalf("decoder did not make progress after %d records", i)
			}
			payload, next, err := DecodeRecord(rest, maxBytes)
			if err == io.EOF {
				if len(rest) != 0 {
					t.Fatalf("io.EOF with %d bytes left", len(rest))
				}
				return
			}
			if err != nil {
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrTooLarge) && !errors.Is(err, ErrCRC) {
					t.Fatalf("untyped error %v", err)
				}
				// On error the decoder stops; the caller (WAL open)
				// truncates here. Nothing after an error is trusted.
				return
			}
			if len(payload) > maxBytes {
				t.Fatalf("accepted %d-byte record over the %d limit", len(payload), maxBytes)
			}
			if got := crc32.Checksum(payload, castagnoli); got != binary.LittleEndian.Uint32(rest[4:8]) {
				t.Fatalf("returned record fails its own checksum")
			}
			if len(next) >= len(rest) {
				t.Fatalf("no progress: rest %d -> %d", len(rest), len(next))
			}
			rest = next
		}
	})
}

// FuzzWALReopen round-trips arbitrary payload sets through a real
// FileStore, tears the tail at an arbitrary offset, and verifies reopen
// always yields a clean prefix of what was appended.
func FuzzWALReopen(f *testing.F) {
	f.Add([]byte("one\x00two\x00three"), uint8(3))
	f.Add([]byte(""), uint8(0))
	f.Add(bytes.Repeat([]byte{0xAA}, 300), uint8(250))
	f.Fuzz(func(t *testing.T, blob []byte, tear uint8) {
		dir := t.TempDir()
		s, err := Open(dir, Options{NoSync: true, segmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		payloads := bytes.Split(blob, []byte{0})
		for _, p := range payloads {
			if err := s.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Chop bytes off the newest segment to simulate a torn write.
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if len(segs) > 0 {
			last := segs[len(segs)-1]
			if info, err := os.Stat(last); err == nil && info.Size() > 0 {
				cut := int64(tear) % (info.Size() + 1)
				_ = os.Truncate(last, info.Size()-cut)
			}
		}
		s2, err := Open(dir, Options{NoSync: true, segmentBytes: 128})
		if err != nil {
			t.Fatalf("reopen after tear: %v", err)
		}
		defer s2.Close()
		i := 0
		if err := s2.Replay(func(rec []byte) error {
			if i >= len(payloads) {
				t.Fatalf("replayed more records (%d) than appended (%d)", i+1, len(payloads))
			}
			if !bytes.Equal(rec, payloads[i]) {
				t.Fatalf("record %d mutated: got %q want %q", i, rec, payloads[i])
			}
			i++
			return nil
		}); err != nil {
			t.Fatalf("replay: %v", err)
		}
	})
}
