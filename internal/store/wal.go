package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// Options configures a FileStore. The zero value is usable.
type Options struct {
	// SyncDelay is the group-commit window: buffered appends are flushed
	// and fsynced at least this often (default 5ms). One fsync covers
	// every append since the last, so the per-record cost on the hot
	// path is a mutexed memcpy.
	SyncDelay time.Duration
	// NoSync skips fsync entirely (deterministic tests, tmpfs benches).
	// Records still flush to the OS on the group-commit cadence, so a
	// process kill loses at most SyncDelay of appends; power loss can
	// lose anything unflushed by the kernel.
	NoSync bool
	// Name labels this store's telemetry series (default the directory
	// base name).
	Name string
	// Registry, when set, receives the store's metrics
	// (ifot_store_wal_bytes, ifot_store_wal_fsyncs_total,
	// ifot_store_recovery_seconds).
	Registry *telemetry.Registry
	// Logger receives diagnostics (nil = silent).
	Logger *log.Logger
	// Events, when set, receives structured recovery events (torn-tail
	// truncation, corruption, unreadable snapshots) — the same facts the
	// Logger narrates, in machine-consumable form.
	Events *telemetry.EventLog

	// segmentBytes is the rotation threshold for WAL segment files
	// (default 4 MiB) and maxRecordBytes bounds a single record (default
	// DefaultMaxRecordBytes). The package's tests shrink them.
	segmentBytes   int64
	maxRecordBytes int
}

func (o Options) withDefaults(dir string) Options {
	if o.segmentBytes <= 0 {
		o.segmentBytes = 4 << 20
	}
	if o.maxRecordBytes <= 0 {
		o.maxRecordBytes = DefaultMaxRecordBytes
	}
	if o.SyncDelay <= 0 {
		o.SyncDelay = 5 * time.Millisecond
	}
	if o.Name == "" {
		o.Name = filepath.Base(dir)
	}
	return o
}

// segment is one validated WAL file discovered at open time.
type segment struct {
	index    uint64
	path     string
	validLen int64 // bytes of clean records (tail beyond this was truncated)
}

// FileStore is the durable Store implementation: a directory holding
// numbered WAL segments (wal-<n>.log) and snapshot files (snap-<n>.snap,
// covering every segment with index < n). It implements Store.
//
// Concurrency: Append/AppendSync are safe for concurrent use. Appends take
// only mu (a mutexed buffered write); fsync runs on a background syncer
// goroutine outside mu, so a slow disk never blocks appenders — they batch
// into the next group commit instead.
type FileStore struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	bufw     *bufio.Writer
	segIndex uint64 // active segment number
	segBytes int64  // bytes written to the active segment
	seq      uint64 // records appended since open
	werr     error  // sticky write error
	closed   bool
	crashed  bool

	// replay state fixed at open
	segments []segment
	snapPath string // latest valid snapshot file ("" = none)

	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedSeq uint64
	syncErr   error

	syncReq    chan struct{}
	quit       chan struct{}
	syncerDone chan struct{}

	walBytes     atomic.Int64
	fsyncs       atomic.Int64
	recoveryNano atomic.Int64
}

var _ Store = (*FileStore)(nil)

// Open opens (creating if needed) the durable store in dir. It scans the
// existing WAL, truncates any torn tail left by a crash, and prepares
// Replay/LoadSnapshot. Corruption before the tail yields ErrCorrupt.
func Open(dir string, opts Options) (*FileStore, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &FileStore{
		dir:        dir,
		opts:       opts.withDefaults(dir),
		syncReq:    make(chan struct{}, 1),
		quit:       make(chan struct{}),
		syncerDone: make(chan struct{}),
	}
	s.syncCond = sync.NewCond(&s.syncMu)

	if err := s.scan(); err != nil {
		return nil, err
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	s.recoveryNano.Store(time.Since(start).Nanoseconds())
	go s.syncLoop()
	s.bindRegistry()
	return s, nil
}

func (s *FileStore) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

func (s *FileStore) bindRegistry() {
	reg := s.opts.Registry
	if reg == nil {
		return
	}
	lbl := telemetry.L("store", s.opts.Name)
	reg.GaugeFunc("ifot_store_wal_bytes", "live WAL segment bytes on disk",
		func() float64 { return float64(s.walBytes.Load()) }, lbl)
	reg.CounterFunc("ifot_store_wal_fsyncs_total", "group-commit fsync batches issued",
		func() int64 { return s.fsyncs.Load() }, lbl)
	reg.GaugeFunc("ifot_store_recovery_seconds", "time spent scanning, truncating and replaying the WAL at open",
		func() float64 { return time.Duration(s.recoveryNano.Load()).Seconds() }, lbl)
}

func segPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", index))
}

func snapPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", index))
}

// scan discovers segments and snapshots, picks the newest valid snapshot,
// removes files compaction should have removed, and validates segment
// contents (truncating a torn tail on the last segment).
func (s *FileStore) scan() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", s.dir, err)
	}
	var segIdx, snapIdx []uint64
	for _, e := range entries {
		var n uint64
		switch {
		case matchIndexed(e.Name(), "wal-", ".log", &n):
			segIdx = append(segIdx, n)
		case matchIndexed(e.Name(), "snap-", ".snap", &n):
			snapIdx = append(snapIdx, n)
		}
	}
	sort.Slice(segIdx, func(i, j int) bool { return segIdx[i] < segIdx[j] })
	sort.Slice(snapIdx, func(i, j int) bool { return snapIdx[i] < snapIdx[j] })

	// Newest snapshot that decodes cleanly wins; invalid or superseded
	// ones are deleted.
	var snapMark uint64
	for i := len(snapIdx) - 1; i >= 0; i-- {
		path := snapPath(s.dir, snapIdx[i])
		if s.snapPath == "" {
			if _, err := readSnapshotFile(path, s.opts.maxRecordBytes); err == nil {
				s.snapPath = path
				snapMark = snapIdx[i]
				continue
			}
			s.logf("store %s: discarding unreadable snapshot %s", s.opts.Name, filepath.Base(path))
			s.opts.Events.Eventf(telemetry.SevWarn, "", "store_snapshot_unreadable",
				"store", s.opts.Name, "file", filepath.Base(path))
		}
		_ = os.Remove(path)
	}

	for _, idx := range segIdx {
		path := segPath(s.dir, idx)
		if idx < snapMark {
			// Covered by the snapshot; compaction was interrupted
			// before removing it.
			_ = os.Remove(path)
			continue
		}
		last := idx == segIdx[len(segIdx)-1]
		validLen, err := s.validateSegment(path, last)
		if err != nil {
			return err
		}
		s.segments = append(s.segments, segment{index: idx, path: path, validLen: validLen})
		s.walBytes.Add(validLen)
		s.segIndex = idx
	}
	if s.segIndex < snapMark {
		s.segIndex = snapMark
	}
	return nil
}

// matchIndexed parses names like prefix-%016d-suffix into n.
func matchIndexed(name, prefix, suffix string, n *uint64) bool {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	var v uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + uint64(c-'0')
	}
	*n = v
	return true
}

// validateSegment walks the records of one segment file. On the last
// segment a torn tail is truncated away (the crash case); on earlier
// segments any bad record is ErrCorrupt, because records after it would
// otherwise be silently dropped.
func (s *FileStore) validateSegment(path string, last bool) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: read %s: %w", path, err)
	}
	valid := int64(0)
	rest := data
	for {
		payload, next, err := DecodeRecord(rest, s.opts.maxRecordBytes)
		if err == io.EOF {
			return valid, nil
		}
		if err != nil {
			if !last {
				s.opts.Events.Eventf(telemetry.SevError, "", "wal_corrupt",
					"store", s.opts.Name, "segment", filepath.Base(path),
					"offset", fmt.Sprint(valid), "error", err.Error())
				return 0, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, filepath.Base(path), valid, err)
			}
			s.logf("store %s: truncating torn tail of %s at offset %d (%v, %d bytes dropped)",
				s.opts.Name, filepath.Base(path), valid, err, int64(len(data))-valid)
			s.opts.Events.Eventf(telemetry.SevWarn, "", "wal_torn_tail",
				"store", s.opts.Name, "segment", filepath.Base(path),
				"offset", fmt.Sprint(valid),
				"dropped_bytes", fmt.Sprint(int64(len(data))-valid))
			if err := os.Truncate(path, valid); err != nil {
				return 0, fmt.Errorf("store: truncate %s: %w", path, err)
			}
			return valid, nil
		}
		valid += recordSize(payload)
		rest = next
	}
}

// openActive opens the newest segment for appending (creating the first
// one when the directory has none).
func (s *FileStore) openActive() error {
	if len(s.segments) == 0 {
		s.segIndex++
		return s.createSegmentLocked()
	}
	seg := s.segments[len(s.segments)-1]
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	s.f = f
	s.bufw = bufio.NewWriterSize(f, 64<<10)
	s.segBytes = seg.validLen
	return nil
}

// createSegmentLocked starts segment s.segIndex fresh. Callers hold mu (or
// are in single-threaded open).
func (s *FileStore) createSegmentLocked() error {
	f, err := os.OpenFile(segPath(s.dir, s.segIndex), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	s.f = f
	s.bufw = bufio.NewWriterSize(f, 64<<10)
	s.segBytes = 0
	s.syncDir()
	return nil
}

// syncDir makes directory metadata (new/renamed/removed files) durable.
func (s *FileStore) syncDir() {
	if s.opts.NoSync {
		return
	}
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Append implements Log.
func (s *FileStore) Append(rec []byte) error { return s.append(rec, false) }

// AppendSync implements Log.
func (s *FileStore) AppendSync(rec []byte) error { return s.append(rec, true) }

func (s *FileStore) append(rec []byte, wait bool) error {
	if len(rec) > s.opts.maxRecordBytes {
		return ErrTooLarge
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.werr != nil {
		err := s.werr
		s.mu.Unlock()
		return err
	}
	if s.segBytes >= s.opts.segmentBytes {
		if err := s.rotateLocked(); err != nil {
			s.werr = err
			s.mu.Unlock()
			return err
		}
	}
	if err := s.writeRecordLocked(rec); err != nil {
		s.werr = err
		s.mu.Unlock()
		return err
	}
	s.seq++
	seq := s.seq
	s.mu.Unlock()

	if !wait {
		return nil
	}
	select {
	case s.syncReq <- struct{}{}:
	default: // a sync is already queued; it will cover us
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	for s.syncedSeq < seq && s.syncErr == nil {
		s.syncCond.Wait()
	}
	return s.syncErr
}

// writeRecordLocked frames rec into the active segment's buffer. The
// header is built on the stack and the payload streams straight into the
// bufio writer, so the hot path allocates nothing.
func (s *FileStore) writeRecordLocked(rec []byte) error {
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(rec, castagnoli))
	if _, err := s.bufw.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if _, err := s.bufw.Write(rec); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	n := recordSize(rec)
	s.segBytes += n
	s.walBytes.Add(n)
	return nil
}

// rotateLocked finishes the active segment (flush + fsync + close) and
// starts the next one. Everything appended so far becomes durable, so the
// synced sequence advances to the current append sequence.
func (s *FileStore) rotateLocked() error {
	if err := s.bufw.Flush(); err != nil {
		return fmt.Errorf("store: rotate flush: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: rotate sync: %w", err)
		}
		s.fsyncs.Add(1)
	}
	_ = s.f.Close()
	seq := s.seq
	s.syncMu.Lock()
	if seq > s.syncedSeq {
		s.syncedSeq = seq
	}
	s.syncCond.Broadcast()
	s.syncMu.Unlock()
	s.segIndex++
	return s.createSegmentLocked()
}

// syncLoop is the group-commit syncer: it flushes and fsyncs on demand
// (AppendSync, batch threshold) and on the SyncDelay cadence, covering
// every buffered append with one fsync.
func (s *FileStore) syncLoop() {
	tick := time.NewTicker(s.opts.SyncDelay)
	defer tick.Stop()
	for {
		select {
		case <-s.syncReq:
		case <-tick.C:
		case <-s.quit:
			s.doSync()
			close(s.syncerDone)
			return
		}
		s.doSync()
	}
}

// doSync makes everything appended so far durable. The buffer flush runs
// under mu; the fsync itself runs outside, so appenders keep buffering
// into the next batch while the disk works.
func (s *FileStore) doSync() {
	s.syncMu.Lock()
	already := s.syncedSeq
	s.syncMu.Unlock()

	s.mu.Lock()
	if s.closed && s.f == nil {
		s.mu.Unlock()
		return
	}
	target := s.seq
	if target == already {
		s.mu.Unlock()
		// Nothing new, but waiters may have raced the broadcast.
		s.syncCond.Broadcast()
		return
	}
	err := s.bufw.Flush()
	f := s.f
	s.mu.Unlock()

	if err == nil && !s.opts.NoSync {
		err = f.Sync()
		if err != nil && errors.Is(err, os.ErrClosed) {
			// The segment rotated under us; rotation already synced
			// everything up to (at least) target.
			err = nil
		}
		s.fsyncs.Add(1)
	}
	s.syncMu.Lock()
	if err != nil {
		if s.syncErr == nil {
			s.syncErr = err
		}
	} else if target > s.syncedSeq {
		s.syncedSeq = target
	}
	s.syncCond.Broadcast()
	s.syncMu.Unlock()
}

// Replay implements Log: it walks the records of every live segment in
// order. It reads the byte ranges validated at open, so it must run before
// the first Append.
func (s *FileStore) Replay(fn func(rec []byte) error) error {
	for _, seg := range s.segments {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("store: replay %s: %w", seg.path, err)
		}
		if int64(len(data)) > seg.validLen {
			data = data[:seg.validLen]
		}
		rest := data
		for len(rest) > 0 {
			payload, next, err := DecodeRecord(rest, s.opts.maxRecordBytes)
			if err != nil {
				// The range was validated at open; hitting this means
				// the file changed underneath us.
				return fmt.Errorf("%w: %s during replay: %v", ErrCorrupt, filepath.Base(seg.path), err)
			}
			if err := fn(payload); err != nil {
				return err
			}
			rest = next
		}
	}
	return nil
}

// SaveSnapshot implements Snapshotter. See the interface contract: the log
// rotates first, then capture runs (the caller serializes its state inside
// it), then the blob lands durably and segments behind the rotation are
// dropped.
func (s *FileStore) SaveSnapshot(capture func() ([]byte, error)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.rotateLocked(); err != nil {
		s.werr = err
		s.mu.Unlock()
		return err
	}
	mark := s.segIndex
	s.mu.Unlock()

	data, err := capture()
	if err != nil {
		return err
	}
	tmp := snapPath(s.dir, mark) + ".tmp"
	framed := AppendRecord(make([]byte, 0, recordHeaderSize+len(data)), data)
	if err := writeFileSync(tmp, framed, !s.opts.NoSync); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, snapPath(s.dir, mark)); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	s.syncDir()
	s.compact(mark)
	return nil
}

// compact removes segments and snapshots made obsolete by the snapshot at
// mark.
func (s *FileStore) compact(mark uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var n uint64
		switch {
		case matchIndexed(e.Name(), "wal-", ".log", &n) && n < mark:
			path := filepath.Join(s.dir, e.Name())
			if info, err := os.Stat(path); err == nil {
				s.walBytes.Add(-info.Size())
			}
			_ = os.Remove(path)
		case matchIndexed(e.Name(), "snap-", ".snap", &n) && n < mark:
			_ = os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	s.syncDir()
}

// LoadSnapshot implements Snapshotter.
func (s *FileStore) LoadSnapshot() ([]byte, error) {
	// Prefer a snapshot saved during this process's lifetime over the
	// one found at open.
	entries, err := os.ReadDir(s.dir)
	var newest string
	var newestIdx uint64
	if err == nil {
		for _, e := range entries {
			var n uint64
			if matchIndexed(e.Name(), "snap-", ".snap", &n) && n >= newestIdx {
				newest, newestIdx = filepath.Join(s.dir, e.Name()), n
			}
		}
	}
	if newest == "" {
		newest = s.snapPath
	}
	if newest == "" {
		return nil, nil
	}
	return readSnapshotFile(newest, s.opts.maxRecordBytes)
}

// readSnapshotFile reads and CRC-verifies one snapshot blob.
func readSnapshotFile(path string, maxBytes int) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, rest, err := DecodeRecord(data, maxBytes)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), ErrCorrupt)
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
}

func writeFileSync(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// Close implements Log: it drains the group-commit pipeline, makes every
// buffered append durable, and releases the files.
func (s *FileStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.quit)
	<-s.syncerDone

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed || s.f == nil {
		return nil
	}
	err := s.bufw.Flush()
	if err == nil && !s.opts.NoSync {
		err = s.f.Sync()
	}
	_ = s.f.Close()
	s.f = nil
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

// Crash is a testing aid that simulates `kill -9`: it drops the userspace
// write buffer and releases the files without flushing or syncing, leaving
// on disk exactly what a killed process would. The store is unusable
// afterwards.
func (s *FileStore) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.crashed = true
	if s.f != nil {
		_ = s.f.Close() // note: no Flush — buffered records die here
		s.f = nil
	}
	s.mu.Unlock()
	close(s.quit)
	<-s.syncerDone
	s.syncMu.Lock()
	if s.syncErr == nil {
		s.syncErr = ErrClosed
	}
	s.syncCond.Broadcast()
	s.syncMu.Unlock()
}

// WALBytes reports live WAL segment bytes on disk.
func (s *FileStore) WALBytes() int64 { return s.walBytes.Load() }

// Fsyncs reports how many group-commit fsync batches have been issued.
func (s *FileStore) Fsyncs() int64 { return s.fsyncs.Load() }

// RecoveryDuration reports the time spent scanning and truncating the WAL
// at Open, plus the state rebuild of the journal opened on the store.
func (s *FileStore) RecoveryDuration() time.Duration {
	return time.Duration(s.recoveryNano.Load())
}

// addRecoveryDuration folds a journal's state-rebuild time (snapshot
// restore + log replay, see OpenJournal) into the recovery gauge, so
// ifot_store_recovery_seconds reports the full restart-to-ready cost.
func (s *FileStore) addRecoveryDuration(d time.Duration) {
	if d > 0 {
		s.recoveryNano.Add(d.Nanoseconds())
	}
}
