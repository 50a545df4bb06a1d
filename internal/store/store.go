// Package store is the durable-state subsystem of the IFoT middleware: a
// segmented append-only write-ahead log with CRC32C-framed records,
// group-commit fsync batching, and snapshot compaction. The paper's neuron
// modules run on small, flaky edge hardware (Raspberry Pi 2) where process
// and power loss are the norm; this package is what lets the broker,
// neuron modules, and management node come back from `kill -9` with their
// state — retained messages, QoS 1 queues, model weights, deployments —
// instead of from zero.
//
// The subsystem is exposed as two small interfaces, Log and Snapshotter
// (Store combines them), with two implementations: FileStore persists to a
// directory of WAL segments plus snapshot files, and MemStore keeps
// everything in memory for tests and the deterministic simulator.
package store

import "errors"

// Errors returned by the store.
var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrTooLarge is returned when a record exceeds the size limit, both
	// on append and when a decoded length prefix is implausibly big
	// (which usually means the frame is garbage, not a real record).
	ErrTooLarge = errors.New("store: record exceeds size limit")
	// ErrCRC is returned when a record's payload does not match its
	// CRC32C frame.
	ErrCRC = errors.New("store: record CRC mismatch")
	// ErrTruncated is returned when a record frame ends before its
	// declared length — the torn tail a crash mid-write leaves behind.
	ErrTruncated = errors.New("store: truncated record")
	// ErrCorrupt is returned when corruption is found before the WAL
	// tail, where truncating would silently drop good records after it.
	ErrCorrupt = errors.New("store: corruption before WAL tail")
)

// Log is an append-only record log. Appends are atomic per record: after a
// crash, replay yields a prefix of the appended records, never a partial
// or corrupted one.
type Log interface {
	// Append writes one record. It returns once the record is in the
	// log's write buffer; durability follows within the group-commit
	// window (FileStore Options.SyncDelay). The hot path pays a mutexed
	// memcpy, never a per-record fsync.
	Append(rec []byte) error
	// AppendSync writes one record and returns only once it is durable.
	// Concurrent callers are group-committed: one fsync covers every
	// append that reached the buffer before it, so N writers waiting on
	// the same disk flush pay one flush, not N.
	AppendSync(rec []byte) error
	// Replay calls fn for each record appended after the snapshot that
	// LoadSnapshot returns, in append order. fn's slice is only valid
	// during the call. OpenJournal is its caller: it replays once, before
	// the journal it returns can append.
	Replay(fn func(rec []byte) error) error
	// Close flushes and syncs outstanding appends and releases the log.
	Close() error
}

// Snapshotter persists point-in-time state blobs and compacts the log
// behind them.
type Snapshotter interface {
	// SaveSnapshot captures and persists a snapshot. The store first
	// marks the log (FileStore rotates to a fresh segment), then invokes
	// capture — the caller must serialize its state under its own locks
	// inside capture — then writes the blob durably and drops log
	// segments behind the mark. Records appended between the mark and
	// capture's lock acquisition can appear both in the snapshot and in
	// the replayed tail, so record application must be idempotent.
	SaveSnapshot(capture func() ([]byte, error)) error
	// LoadSnapshot returns the latest snapshot blob, or nil when none
	// has been saved.
	LoadSnapshot() ([]byte, error)
}

// Store combines the log and snapshot halves of the durability API.
type Store interface {
	Log
	Snapshotter
}
