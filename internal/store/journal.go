package store

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// snapshotBytes is the live-log size past which a journal compacts: it
// takes a snapshot and drops the log segments behind it.
const snapshotBytes = 4 << 20

// Journal is the one journal protocol of the middleware: the broker, the
// manager's deployment table and module checkpoints each own one, and
// supply only their record type R, how a record applies, and how their
// state is captured into and restored from a snapshot blob.
//
// OpenJournal recovers the owner's state (snapshot, then the log tail)
// before it hands the journal out, so replay runs once and journals
// nothing. After that the journal JSON-encodes each appended record, takes
// a snapshot in the background once the live log passes snapshotBytes,
// and reports append failures itself: every failure is logged, the first
// of an outage emits persist_degraded and the next success
// persist_recovered. Appends never return an error — degraded durability
// beats a dead daemon on an edge node.
//
// Snapshots run on a background goroutine, never inline with an append:
// broker appends happen under session/retained locks, and the snapshot
// capture needs broader locks — taking it inline would invert the lock
// order. The trigger is single-flight: at most one snapshot runs at a
// time, and append-time signaling is a non-blocking channel send.
//
// A nil *Journal is valid and journals nothing.
type Journal[R any] struct {
	store   Store
	owner   string
	capture func() ([]byte, error)
	logger  *log.Logger
	events  *telemetry.EventLog

	liveBytes atomic.Int64
	// degraded latches on the first append failure of an outage.
	degraded atomic.Bool

	snapReq chan struct{}
	quit    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// OpenJournal recovers the state journaled in st and returns the journal
// that keeps journaling it. Recovery passes the latest snapshot blob to
// restore, then decodes each record of the log tail into apply, and adds
// the time both took to st's recovery gauge. owner names the journal in
// log lines and events ("broker", "manager", "checkpoint"); capture
// serializes the owner's full state under its own locks (see
// Snapshotter). logger and events may be nil.
func OpenJournal[R any](st Store, owner string, logger *log.Logger, events *telemetry.EventLog,
	restore func(snapshot []byte) error, apply func(rec R), capture func() ([]byte, error)) (*Journal[R], error) {
	start := time.Now()
	blob, err := st.LoadSnapshot()
	if err != nil {
		return nil, fmt.Errorf("%s journal: load snapshot: %w", owner, err)
	}
	if blob != nil {
		if err := restore(blob); err != nil {
			return nil, fmt.Errorf("%s journal: restore snapshot: %w", owner, err)
		}
	}
	replayed, tailBytes := 0, int64(0)
	err = st.Replay(func(data []byte) error {
		var rec R
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s journal: decode record: %w", owner, err)
		}
		apply(rec)
		replayed++
		tailBytes += recordSize(data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	took := time.Since(start)
	if fs, ok := st.(interface{ addRecoveryDuration(time.Duration) }); ok {
		fs.addRecoveryDuration(took)
	}
	j := &Journal[R]{
		store:   st,
		owner:   owner,
		capture: capture,
		logger:  logger,
		events:  events,
		snapReq: make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// The replayed tail counts toward the threshold: a daemon restarted
	// before each incarnation reached it would otherwise never compact.
	j.liveBytes.Store(tailBytes)
	if blob != nil || replayed > 0 {
		j.logf("%s journal: recovered a snapshot of %d bytes and %d records in %v",
			owner, len(blob), replayed, took.Round(time.Millisecond))
	}
	go j.snapLoop()
	return j, nil
}

// Append journals one record and arms the snapshot trigger when the live
// log crosses the threshold. A failure is logged and latches the journal
// degraded (see Journal); the caller carries on.
func (j *Journal[R]) Append(rec R) {
	if j == nil {
		return
	}
	buf, err := json.Marshal(rec)
	if err == nil {
		err = j.store.Append(buf)
	}
	if err != nil {
		j.logf("%s journal: append: %v", j.owner, err)
		if j.degraded.CompareAndSwap(false, true) {
			j.events.Eventf(telemetry.SevError, "", "persist_degraded",
				"journal", j.owner, "error", err.Error())
		}
		return
	}
	if j.degraded.CompareAndSwap(true, false) {
		j.events.Eventf(telemetry.SevInfo, "", "persist_recovered", "journal", j.owner)
	}
	if j.liveBytes.Add(recordSize(buf)) >= snapshotBytes {
		select {
		case j.snapReq <- struct{}{}:
		default:
		}
	}
}

func (j *Journal[R]) snapLoop() {
	defer close(j.done)
	for {
		select {
		case <-j.quit:
			return
		case <-j.snapReq:
		}
		if err := j.store.SaveSnapshot(j.capture); err != nil {
			j.logf("%s journal: snapshot failed: %v", j.owner, err)
			j.events.Eventf(telemetry.SevError, "", "snapshot_failed",
				"journal", j.owner, "error", err.Error())
			continue
		}
		j.liveBytes.Store(0)
	}
}

func (j *Journal[R]) logf(format string, args ...any) {
	if j.logger != nil {
		j.logger.Printf(format, args...)
	}
}

// Close stops the snapshot goroutine. It does not close the wrapped store;
// the consumer owns that (and usually wants a final snapshot or flush
// first).
func (j *Journal[R]) Close() {
	if j == nil {
		return
	}
	j.once.Do(func() { close(j.quit) })
	<-j.done
}
