package broker

import (
	"encoding/json"
	"sort"
	"sync/atomic"

	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Broker durability. When Options.Store is set, the broker journals every
// state mutation that must survive a restart — retained messages,
// persistent-session lifecycle and subscriptions, each persistent session's
// QoS 1 window — as one WAL record each, and Open replays snapshot + WAL to
// rebuild that state before accepting connections.
//
// Each record op has exactly one mutator, called by the live path and by
// replay alike: retainLocked (opRetain), openSessionLocked (opSess),
// dropSessionLocked (opSessRm), subscribeLocked (opSub), unsubscribeLocked
// (opUnsub), session.queueLocked (opQueue) and session.removeLocked
// (opAck). A mutator journals its own record; the journal is armed only
// after recovery, so replay journals nothing, and the recovered state is
// the journaled state by construction. A snapshot replays as the records
// that rebuild it.
//
// The journaling rules follow the broker's locking model: each record is
// appended while holding the same lock that guards the in-memory mutation
// (retainedMu for retained, session.mu for windows, b.mu for subscriptions
// and session lifecycle), so WAL order equals effective memory order. The
// store's Append is a buffered write behind its own leaf mutex — cheap
// enough to sit on those paths — and durability comes from group-commit
// (one fsync covers every append in the window), so the QoS0 fan-out hot
// path pays nothing and the QoS1 path pays a memcpy, not an fsync.
//
// Replay idempotency: records between a snapshot's log mark and its
// capture can be applied twice (once inside the snapshot, once from the
// tail). Retained/subscription records are last-writer-wins; a session
// record restarts the session, which the records after it rebuild; a queue
// record whose message the window already holds is a no-op, as is an ack
// for an unknown ID.

// persist record ops.
const (
	opRetain = "ret"    // retained message set/delete (empty payload deletes)
	opSess   = "sess"   // persistent session (re)created fresh
	opSessRm = "sessrm" // session state discarded (clean-session reconnect)
	opSub    = "sub"    // subscription added
	opUnsub  = "unsub"  // subscription removed
	opQueue  = "q"      // QoS1 message entered a persistent session's window
	opAck    = "ack"    // QoS1 message acked (or dropped by queue overflow)
)

// persistRec is the JSON wire form of one WAL record.
type persistRec struct {
	Op      string `json:"op"`
	Client  string `json:"client,omitempty"`
	Topic   string `json:"topic,omitempty"`
	Filter  string `json:"filter,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	QoS     byte   `json:"qos,omitempty"`
	ID      uint64 `json:"id,omitempty"`
}

// persistSnapshot is the JSON blob handed to Snapshotter.SaveSnapshot.
type persistSnapshot struct {
	MsgSeq   uint64         `json:"msg_seq"`
	Retained []snapRetained `json:"retained,omitempty"`
	Sessions []snapSession  `json:"sessions,omitempty"`
}

type snapRetained struct {
	Topic   string `json:"topic"`
	Payload []byte `json:"payload"`
	QoS     byte   `json:"qos"`
}

type snapSession struct {
	ClientID string          `json:"client"`
	Subs     map[string]byte `json:"subs,omitempty"`
	Msgs     []snapMsg       `json:"msgs,omitempty"` // the window, in order
}

type snapMsg struct {
	ID      uint64 `json:"id"`
	Topic   string `json:"topic"`
	Payload []byte `json:"payload"`
	QoS     byte   `json:"qos"`
}

// persister is the stable handle sessions reach the journal through: the
// broker and every session share one, so a session that recovery created
// journals once the journal is armed. It also holds the broker-wide
// message ID sequence that makes QoS1 queue records idempotent on replay.
type persister struct {
	journal *store.Journal[persistRec] // nil until recovery is done
	msgSeq  atomic.Uint64
}

func (pp *persister) nextMsgID() uint64 { return pp.msgSeq.Add(1) }

// append journals one record; it is a no-op without a store and during
// recovery. The journal logs and reports its own failures.
func (pp *persister) append(rec persistRec) {
	if pp != nil {
		pp.journal.Append(rec)
	}
}

// --- one mutator per durable fact (the session window's are in session.go) ---

// retainLocked is the one mutator of the retained fact (opRetain): an
// empty payload deletes topic's retained message, any other stores a copy.
// It keeps retainedCount equal to len(retained). Caller holds retainedMu.
func (b *Broker) retainLocked(topic string, payload []byte, qos wire.QoS) {
	_, had := b.retained[topic]
	switch {
	case len(payload) == 0 && had:
		delete(b.retained, topic)
		b.retainedCount.Add(-1)
	case len(payload) > 0:
		if !had {
			b.retainedCount.Add(1)
		}
		b.retained[topic] = retainedMsg{payload: append([]byte(nil), payload...), qos: qos}
	}
	b.persist.append(persistRec{Op: opRetain, Topic: topic, Payload: payload, QoS: byte(qos)})
}

// openSessionLocked is the one mutator of the opSess fact: it installs a
// fresh session for clientID, journaled when persistent, discarding the
// current one first. It reports whether that discard changed routes.
// Caller holds b.mu.
func (b *Broker) openSessionLocked(clientID string, persistent bool) (sess *session, rerouted bool) {
	if old, ok := b.sessions[clientID]; ok {
		rerouted = b.dropSessionLocked(old)
	}
	sess = newSession(clientID, persistent)
	sess.persist = b.persist
	b.sessions[clientID] = sess
	if persistent {
		b.persist.append(persistRec{Op: opSess, Client: clientID})
	}
	return sess, rerouted
}

// dropSessionLocked is the one mutator of the opSessRm fact: sess and its
// filters leave the session table, its drops fold into droppedBase, and a
// persistent one journals its removal. It reports whether routes changed.
// Caller holds b.mu.
func (b *Broker) dropSessionLocked(sess *session) bool {
	delete(b.sessions, sess.clientID)
	b.droppedBase.Add(sess.dropped())
	if sess.persistent {
		b.persist.append(persistRec{Op: opSessRm, Client: sess.clientID})
	}
	return len(sess.subscriptions) > 0
}

// subscribeLocked is the one mutator of the opSub fact: filter joins the
// session's filter map, journaled when the session is persistent. Caller
// holds b.mu.
func (b *Broker) subscribeLocked(sess *session, filter string, qos wire.QoS) {
	sess.subscriptions[filter] = qos
	if sess.persistent {
		b.persist.append(persistRec{Op: opSub, Client: sess.clientID, Filter: filter, QoS: byte(qos)})
	}
}

// unsubscribeLocked is the one mutator of the opUnsub fact. It reports
// whether the filter was in the session's map. Caller holds b.mu.
func (b *Broker) unsubscribeLocked(sess *session, filter string) bool {
	_, had := sess.subscriptions[filter]
	delete(sess.subscriptions, filter)
	if sess.persistent {
		b.persist.append(persistRec{Op: opUnsub, Client: sess.clientID, Filter: filter})
	}
	return had
}

// --- snapshot capture ---

// captureState serializes the broker's durable state. It runs inside
// Snapshotter.SaveSnapshot on the journal's background goroutine and takes
// the broker's locks in the canonical order (mu ⊃ retainedMu, session.mu),
// never inverting the order used by the append paths. Each domain is
// captured point-in-time under its own append lock (retainedMu for the
// retained map, session.mu per session); publishes running concurrently
// with the capture — mu no longer excludes them under epoch-published
// routing — land their WAL records after the journal's rotation mark, so
// replay over the snapshot reapplies them idempotently (last-writer-wins
// retained records, ID-deduplicated queue records).
func (b *Broker) captureState() ([]byte, error) {
	snap := persistSnapshot{MsgSeq: b.persist.msgSeq.Load()}

	b.mu.Lock()
	b.retainedMu.Lock()
	for topic, msg := range b.retained {
		snap.Retained = append(snap.Retained, snapRetained{Topic: topic, Payload: msg.payload, QoS: byte(msg.qos)})
	}
	b.retainedMu.Unlock()
	for _, sess := range b.sessions {
		if !sess.persistent {
			continue
		}
		snap.Sessions = append(snap.Sessions, sess.snapshotLocked())
	}
	b.mu.Unlock()

	// Deterministic blob: handy for tests and dedup-friendly on disk.
	sort.Slice(snap.Retained, func(i, j int) bool { return snap.Retained[i].Topic < snap.Retained[j].Topic })
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].ClientID < snap.Sessions[j].ClientID })
	return json.Marshal(snap)
}

// snapshotLocked captures one session's durable state. Takes session.mu
// for the window; the caller holds b.mu, which guards the filter map.
func (s *session) snapshotLocked() snapSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := snapSession{ClientID: s.clientID}
	if len(s.subscriptions) > 0 {
		out.Subs = make(map[string]byte, len(s.subscriptions))
		for f, q := range s.subscriptions {
			out.Subs[f] = byte(q)
		}
	}
	for _, e := range s.window {
		out.Msgs = append(out.Msgs, snapMsg{ID: e.msgID, Topic: e.pkt.Topic, Payload: e.pkt.Payload, QoS: byte(e.pkt.QoS)})
	}
	return out
}

// --- recovery ---

// openJournal rebuilds broker state from the store's snapshot and WAL
// tail, folding every record — the snapshot's as well — through
// replayLocked, and arms the journal. It runs from Open, before the broker
// is shared.
func (b *Broker) openJournal(st store.Store) error {
	b.persist = &persister{}
	b.mu.Lock()
	defer b.mu.Unlock()
	j, err := store.OpenJournal(st, "broker", b.opts.Logger, b.opts.Events,
		b.restoreLocked, b.replayLocked, b.captureState)
	if err != nil {
		return err
	}
	b.persist.journal = j
	return nil
}

// restoreLocked folds a snapshot blob into the broker. Caller holds b.mu.
func (b *Broker) restoreLocked(blob []byte) error {
	var snap persistSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return err
	}
	b.persist.msgSeq.Store(snap.MsgSeq)
	snap.replay(b.replayLocked)
	return nil
}

// replay hands apply the records that rebuild the snapshot's state, so a
// snapshot and the WAL tail share one apply path.
func (snap *persistSnapshot) replay(apply func(persistRec)) {
	for _, r := range snap.Retained {
		apply(persistRec{Op: opRetain, Topic: r.Topic, Payload: r.Payload, QoS: r.QoS})
	}
	for _, ss := range snap.Sessions {
		apply(persistRec{Op: opSess, Client: ss.ClientID})
		for f, q := range ss.Subs {
			apply(persistRec{Op: opSub, Client: ss.ClientID, Filter: f, QoS: q})
		}
		for _, m := range ss.Msgs {
			apply(persistRec{Op: opQueue, Client: ss.ClientID, ID: m.ID, Topic: m.Topic, Payload: m.Payload, QoS: m.QoS})
		}
	}
}

// replayLocked folds one record into the broker through the mutator the
// live path uses for the same fact. Caller holds b.mu.
func (b *Broker) replayLocked(rec persistRec) {
	if rec.ID > b.persist.msgSeq.Load() {
		b.persist.msgSeq.Store(rec.ID)
	}
	switch rec.Op {
	case opRetain:
		b.retainedMu.Lock()
		b.retainLocked(rec.Topic, rec.Payload, wire.QoS(rec.QoS))
		b.retainedMu.Unlock()
	case opSess:
		b.openSessionLocked(rec.Client, true)
	case opSessRm, opSub, opUnsub, opQueue, opAck:
		sess, ok := b.sessions[rec.Client]
		if !ok {
			return // no durable session: the live broker held none for it either
		}
		switch rec.Op {
		case opSessRm:
			b.dropSessionLocked(sess)
		case opSub:
			b.subscribeLocked(sess, rec.Filter, wire.QoS(rec.QoS))
		case opUnsub:
			b.unsubscribeLocked(sess, rec.Filter)
		case opQueue:
			sess.mu.Lock()
			sess.queueLocked(rec.ID, &wire.PublishPacket{Topic: rec.Topic, Payload: rec.Payload, QoS: wire.QoS(rec.QoS)})
			sess.mu.Unlock()
		case opAck:
			sess.mu.Lock()
			if i := sess.msgIndexLocked(rec.ID); i >= 0 {
				sess.removeLocked(i)
			}
			sess.mu.Unlock()
		}
	default:
		b.logf("broker persist: skipping unknown WAL op %q", rec.Op)
	}
}
