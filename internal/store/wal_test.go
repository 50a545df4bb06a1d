package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) *FileStore {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func collect(t *testing.T, s Store) [][]byte {
	t.Helper()
	var out [][]byte
	if err := s.Replay(func(rec []byte) error {
		out = append(out, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestFileStoreAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true})
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, r := range want[:3] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendSync(want[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{NoSync: true})
	defer s2.Close()
	got := collect(t, s2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestFileStoreTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true})
	for i := 0; i < 5; i++ {
		if err := s.AppendSync([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append a partial frame to the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendRecord(nil, []byte("this record will be torn"))
	if _, err := f.Write(frame[:len(frame)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTest(t, dir, Options{NoSync: true})
	got := collect(t, s2)
	if len(got) != 5 {
		t.Fatalf("after torn tail: replayed %d records, want 5", len(got))
	}
	// The store must be appendable after truncation and the new record
	// must survive another cycle.
	if err := s2.AppendSync([]byte("post-truncate")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openTest(t, dir, Options{NoSync: true})
	defer s3.Close()
	got = collect(t, s3)
	if len(got) != 6 || !bytes.Equal(got[5], []byte("post-truncate")) {
		t.Fatalf("after truncate+append: got %d records, last %q", len(got), got[len(got)-1])
	}
}

func TestFileStoreCorruptionBeforeTail(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several files.
	s := openTest(t, dir, Options{NoSync: true, segmentBytes: 64})
	for i := 0; i < 20; i++ {
		if err := s.AppendSync(bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	// Flip a payload byte in the FIRST segment — not the tail.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[recordHeaderSize] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for mid-log corruption, got %v", err)
	}
}

func TestFileStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true, segmentBytes: 128})
	for i := 0; i < 50; i++ {
		if err := s.Append(bytes.Repeat([]byte{'a'}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("rotation never happened: %d segments", len(segs))
	}
	s2 := openTest(t, dir, Options{NoSync: true})
	defer s2.Close()
	if got := collect(t, s2); len(got) != 50 {
		t.Fatalf("replayed %d records across segments, want 50", len(got))
	}
}

func TestFileStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true, segmentBytes: 128})
	for i := 0; i < 30; i++ {
		if err := s.Append([]byte(fmt.Sprintf("pre-snap-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveSnapshot(func() ([]byte, error) {
		return []byte("state-after-30"), nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.AppendSync([]byte(fmt.Sprintf("post-snap-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{NoSync: true})
	defer s2.Close()
	snap, err := s2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "state-after-30" {
		t.Fatalf("snapshot = %q", snap)
	}
	got := collect(t, s2)
	if len(got) != 3 {
		t.Fatalf("replay after compaction: %d records, want 3 (pre-snapshot records must be dropped)", len(got))
	}
	for i, r := range got {
		if want := fmt.Sprintf("post-snap-%d", i); string(r) != want {
			t.Fatalf("record %d = %q want %q", i, r, want)
		}
	}
}

func TestFileStoreSnapshotCaptureError(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true})
	if err := s.Append([]byte("keep-me")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("capture exploded")
	if err := s.SaveSnapshot(func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("want capture error back, got %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The record must still be in the log after reopen: a failed capture
	// must not compact anything.
	s2 := openTest(t, dir, Options{NoSync: true})
	defer s2.Close()
	if got := collect(t, s2); len(got) != 1 || string(got[0]) != "keep-me" {
		t.Fatalf("records lost after failed snapshot: %v", got)
	}
}

func TestFileStoreCrashLosesOnlyBufferedTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true, SyncDelay: time.Hour})
	// Synced record: must survive.
	if err := s.AppendSync([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	// Buffered-only records: may die with the process.
	for i := 0; i < 3; i++ {
		if err := s.Append([]byte("buffered")); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	if err := s.Append([]byte("after-crash")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after crash: want ErrClosed, got %v", err)
	}

	s2 := openTest(t, dir, Options{NoSync: true})
	defer s2.Close()
	got := collect(t, s2)
	if len(got) < 1 || string(got[0]) != "durable" {
		t.Fatalf("synced record lost: %v", got)
	}
	// Whatever else survived must be a clean prefix of the appends.
	for _, r := range got[1:] {
		if string(r) != "buffered" {
			t.Fatalf("unexpected record %q after crash", r)
		}
	}
}

func TestFileStoreGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SyncDelay: time.Millisecond})
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.AppendSync([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Group commit must have batched: far fewer fsyncs than appends.
	if f := s.Fsyncs(); f >= writers*per {
		t.Fatalf("no group-commit batching: %d fsyncs for %d appends", f, writers*per)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{NoSync: true})
	defer s2.Close()
	if got := collect(t, s2); len(got) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(got), writers*per)
	}
}

func TestFileStoreRecordTooLarge(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true, maxRecordBytes: 16})
	defer s.Close()
	if err := s.Append(make([]byte, 17)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if err := s.Append(make([]byte, 16)); err != nil {
		t.Fatalf("at-limit record rejected: %v", err)
	}
}

func TestFileStoreWALBytesGauge(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true, segmentBytes: 256})
	payload := bytes.Repeat([]byte{1}, 100)
	for i := 0; i < 10; i++ {
		if err := s.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(10) * recordSize(payload)
	if got := s.WALBytes(); got != want {
		t.Fatalf("WALBytes = %d, want %d", got, want)
	}
	if err := s.SaveSnapshot(func() ([]byte, error) { return []byte("s"), nil }); err != nil {
		t.Fatal(err)
	}
	if got := s.WALBytes(); got != 0 {
		t.Fatalf("WALBytes after compaction = %d, want 0", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreUnreadableSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoSync: true})
	if err := s.Append([]byte("r1")); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(func() ([]byte, error) { return []byte("good"), nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a fake "newer" snapshot; open must fall back to the good one.
	if err := os.WriteFile(snapPath(dir, 99), []byte("garbage-not-a-frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{NoSync: true})
	defer s2.Close()
	snap, err := s2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "good" {
		t.Fatalf("snapshot fallback failed: %q", snap)
	}
}

func TestMemStoreContract(t *testing.T) {
	m := NewMemStore()
	for i := 0; i < 5; i++ {
		if err := m.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SaveSnapshot(func() ([]byte, error) { return []byte("snap"), nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendSync([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	snap, err := m.LoadSnapshot()
	if err != nil || string(snap) != "snap" {
		t.Fatalf("snapshot %q err %v", snap, err)
	}
	got := collect(t, m)
	if len(got) != 1 || string(got[0]) != "tail" {
		t.Fatalf("post-snapshot replay: %v", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}
