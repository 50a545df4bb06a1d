package store

import (
	"log"
	"sync"
	"sync/atomic"

	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// Journal wraps a Store for consumers that append small records from hot
// paths (often while holding their own locks) and want snapshots taken
// automatically once the live log grows past a byte threshold.
//
// Snapshots run on a background goroutine, never inline with an append:
// broker appends happen under session/retained locks, and the snapshot
// capture needs broader locks — taking it inline would invert the lock
// order. The trigger is single-flight: at most one snapshot runs at a
// time, and append-time signaling is a non-blocking channel send.
type Journal struct {
	store   Store
	capture func() ([]byte, error)
	logger  *log.Logger
	events  *telemetry.EventLog

	threshold int64
	liveBytes atomic.Int64

	snapReq chan struct{}
	quit    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// NewJournal wraps store. capture serializes the consumer's full state
// (called under the consumer's own locks, per the Snapshotter contract).
// snapshotBytes is the live-log size that triggers compaction (<=0
// disables snapshots). events, the owning daemon's event log, receives a
// snapshot_failed event each time a background snapshot errors. logger
// and events may be nil.
func NewJournal(store Store, capture func() ([]byte, error), snapshotBytes int64, logger *log.Logger, events *telemetry.EventLog) *Journal {
	j := &Journal{
		store:     store,
		capture:   capture,
		logger:    logger,
		events:    events,
		threshold: snapshotBytes,
		snapReq:   make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go j.snapLoop()
	return j
}

// Append journals one record and arms the snapshot trigger when the live
// log crosses the threshold. Errors are returned to the caller but the
// journal stays usable (the store itself may have gone sticky).
func (j *Journal) Append(rec []byte) error {
	if err := j.store.Append(rec); err != nil {
		return err
	}
	if j.threshold > 0 && j.liveBytes.Add(recordSize(rec)) >= j.threshold {
		select {
		case j.snapReq <- struct{}{}:
		default:
		}
	}
	return nil
}

func (j *Journal) snapLoop() {
	defer close(j.done)
	for {
		select {
		case <-j.quit:
			return
		case <-j.snapReq:
		}
		if err := j.store.SaveSnapshot(j.capture); err != nil {
			if j.logger != nil {
				j.logger.Printf("store journal: snapshot failed: %v", err)
			}
			j.events.Eventf(telemetry.SevError, "", "snapshot_failed", "error", err.Error())
			continue
		}
		j.liveBytes.Store(0)
	}
}

// Close stops the snapshot goroutine. It does not close the wrapped store;
// the consumer owns that (and usually wants a final snapshot or flush
// first).
func (j *Journal) Close() {
	j.once.Do(func() { close(j.quit) })
	<-j.done
}
