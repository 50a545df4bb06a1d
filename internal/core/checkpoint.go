package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/ml"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Model checkpointing. With Config.Store set, the module journals a
// checkpoint of every hosted learner's state every CheckpointInterval and
// replays the journal on Start, so a crashed-and-restarted neuron module
// resumes training with at most one interval of updates lost instead of
// rejoining MIX from zero. Checkpoints are keyed by subtask name: when the
// management node reassigns the same subtask to a restarted module, the
// learner picks up its previous state.
//
// With Config.CheckpointHandoff set, every changed checkpoint is ALSO
// published as a retained QoS1 blob on CheckpointTopic(name), and a task
// starting without local checkpoint state fetches that blob — so a
// failed-over learner resumes warm on a host that never saw the dead
// module's store. Fenced instances skip the handoff publish: a zombie's
// stale state must not clobber the new host's.
//
// Blobs are the ml package's name-keyed JSON interchange (see
// ml.Checkpointer); a blob written by a different learner kind (the recipe
// changed under the same name) fails restore loudly and the task starts
// fresh.

// handoffFetchTimeout bounds the start-time wait for a retained handoff
// blob.
const handoffFetchTimeout = 2 * time.Second

// ckptRec is one WAL record: the latest checkpoint of one learner.
type ckptRec struct {
	Task string          `json:"task"`
	Blob json.RawMessage `json:"blob"`
}

// ckptSnapshot is the compacted form: latest blob per subtask.
type ckptSnapshot struct {
	Tasks map[string]json.RawMessage `json:"tasks"`
}

// ckptManager tracks the learners enrolled for checkpointing and the
// latest blob per subtask (including recovered blobs for tasks not yet —
// or no longer — running here). journal is nil when the module has no
// Store (handoff-only checkpointing).
type ckptManager struct {
	journal *store.Journal[ckptRec]

	mu       sync.Mutex
	learners map[string]ml.Checkpointer
	latest   map[string]json.RawMessage

	handoffMu sync.Mutex // serializes publishHandoff
}

// initCheckpoints recovers checkpoint state from the configured store and
// arms the journal. Called once from Start, before any task can start.
// With CheckpointHandoff but no Store, the manager exists (it tracks
// enrolled learners and last-published blobs) but journals nothing.
func (m *Module) initCheckpoints() error {
	st := m.cfg.Store
	if st == nil && !m.cfg.CheckpointHandoff {
		return nil
	}
	ck := &ckptManager{
		learners: make(map[string]ml.Checkpointer),
		latest:   make(map[string]json.RawMessage),
	}
	if st != nil {
		j, err := store.OpenJournal(st, "checkpoint", m.cfg.Logger, m.events, ck.restore,
			func(r ckptRec) { ck.latest[r.Task] = r.Blob }, ck.capture)
		if err != nil {
			return fmt.Errorf("core: module %s: %w", m.cfg.ID, err)
		}
		ck.journal = j
	}
	m.ckpt = ck
	return nil
}

// restore folds a snapshot blob into the latest-blob map. Records are
// last-writer-wins per task, so replaying a record the snapshot already
// covers is harmless.
func (ck *ckptManager) restore(blob []byte) error {
	var snap ckptSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return err
	}
	for task, b := range snap.Tasks {
		ck.latest[task] = b
	}
	return nil
}

// capture serializes the latest-blob map for snapshot compaction.
func (ck *ckptManager) capture() ([]byte, error) {
	ck.mu.Lock()
	snap := ckptSnapshot{Tasks: make(map[string]json.RawMessage, len(ck.latest))}
	for task, blob := range ck.latest {
		snap.Tasks[task] = blob
	}
	ck.mu.Unlock()
	return json.Marshal(snap)
}

// registerCheckpointer enrolls a learner for periodic checkpointing and
// restores its state: from the locally recovered blob when the store has
// one, else (with CheckpointHandoff) from the retained handoff blob the
// subtask's previous host published. Runs before the task subscribes to
// traffic, so the learner never serves from a half-restored state. No-op
// without a Store or CheckpointHandoff.
func (m *Module) registerCheckpointer(inst *taskInstance, name string, ck ml.Checkpointer) {
	cm := m.ckpt
	if cm == nil {
		return
	}
	cm.mu.Lock()
	blob, recovered := cm.latest[name]
	cm.mu.Unlock()
	source := "local"
	if !recovered && m.cfg.CheckpointHandoff {
		if fetched := m.fetchHandoff(name); fetched != nil {
			blob, recovered, source = fetched, true, "handoff"
			cm.mu.Lock()
			cm.latest[name] = fetched
			cm.mu.Unlock()
		}
	}
	if recovered {
		if err := ck.RestoreState(blob); err != nil {
			m.logf("module %s: restore checkpoint %s: %v (starting fresh)", m.cfg.ID, name, err)
			m.events.Eventf(telemetry.SevWarn, m.cfg.ID, "checkpoint_mismatch",
				"task", name, "error", err.Error())
		} else {
			m.logf("module %s: restored model checkpoint for %s (%s)", m.cfg.ID, name, source)
			m.events.Eventf(telemetry.SevInfo, m.cfg.ID, "checkpoint_restored",
				"task", name, "source", source)
		}
	}
	// Enroll only after the restore settled: if the periodic checkpoint
	// loop could see the learner while the handoff fetch was still in
	// flight, it would publish the fresh (empty) state as the retained
	// blob — clobbering the very checkpoint the fetch is waiting for.
	cm.mu.Lock()
	cm.learners[name] = ck
	cm.mu.Unlock()
	inst.onStop(func() {
		// Final checkpoint so a later reassignment of this subtask (here,
		// after a restart, or on the failover target via the retained
		// handoff blob) resumes from the freshest state. A fenced instance
		// skips the handoff publish — its state lost the race.
		m.checkpointTask(name, ck, !inst.isFenced())
		cm.mu.Lock()
		if cm.learners[name] == ck {
			delete(cm.learners, name)
		}
		cm.mu.Unlock()
	})
}

// fetchHandoff retrieves the retained handoff blob for one subtask,
// waiting up to handoffFetchTimeout. The broker replays a retained
// message immediately on subscribe, so the wait only runs long when no
// blob is retained. Returns nil on miss (none published, cleared by
// undeploy, or timeout).
func (m *Module) fetchHandoff(name string) json.RawMessage {
	client := m.currentClient()
	if client == nil {
		return nil
	}
	topic := CheckpointTopic(name)
	got := make(chan []byte, 1)
	_, reg, err := client.SubscribeHandle(topic, wire.QoS1, func(msg mqttclient.Message) {
		select {
		case got <- msg.Payload:
		default:
		}
	})
	if err != nil {
		m.logf("module %s: fetch handoff %s: %v", m.cfg.ID, name, err)
		return nil
	}
	defer reg.Remove()
	select {
	case blob := <-got:
		if len(blob) == 0 {
			return nil // cleared blob: the subtask was undeployed
		}
		return json.RawMessage(blob)
	case <-m.cfg.Clock.After(handoffFetchTimeout):
		return nil
	case <-m.ctx.Done():
		return nil
	}
}

// checkpointTask serializes one learner, journals the blob if it changed
// since the last checkpoint (idle learners cost no WAL growth), and —
// with CheckpointHandoff and allowHandoff — republishes the retained
// handoff blob.
func (m *Module) checkpointTask(name string, ck ml.Checkpointer, allowHandoff bool) {
	cm := m.ckpt
	if cm == nil {
		return
	}
	blob, err := ck.CheckpointState()
	if err != nil {
		m.logf("module %s: checkpoint %s: %v", m.cfg.ID, name, err)
		return
	}
	cm.mu.Lock()
	prev, had := cm.latest[name]
	same := had && string(prev) == string(blob)
	if !same {
		cm.latest[name] = json.RawMessage(blob)
	}
	cm.mu.Unlock()
	if same {
		return
	}
	cm.journal.Append(ckptRec{Task: name, Blob: blob})
	if allowHandoff {
		m.publishHandoff(name, ck, blob)
	}
}

// publishHandoff retains blob as a subtask's handoff checkpoint, if ck is
// still the subtask's enrolled learner; a nil ck and blob clear it, after
// an undeploy stop. One lock orders the two, so a periodic checkpoint
// racing the stop lands before the clear or not at all.
func (m *Module) publishHandoff(name string, ck ml.Checkpointer, blob []byte) {
	cm := m.ckpt
	if cm == nil || !m.cfg.CheckpointHandoff {
		return
	}
	cm.handoffMu.Lock()
	defer cm.handoffMu.Unlock()
	cm.mu.Lock()
	enrolled := ck == nil || cm.learners[name] == ck
	cm.mu.Unlock()
	if client := m.currentClient(); client != nil && enrolled {
		if err := client.Publish(CheckpointTopic(name), blob, wire.QoS1, true); err != nil {
			m.logf("module %s: handoff checkpoint %s: %v", m.cfg.ID, name, err)
		}
	}
}

// checkpointAll checkpoints every enrolled learner. A self-fenced module
// journals locally but skips the retained handoff publishes: its state
// must not clobber whatever host the manager moved the tasks to.
func (m *Module) checkpointAll() {
	cm := m.ckpt
	if cm == nil {
		return
	}
	cm.mu.Lock()
	snapshot := make(map[string]ml.Checkpointer, len(cm.learners))
	for name, ck := range cm.learners {
		snapshot[name] = ck
	}
	cm.mu.Unlock()
	allowHandoff := !m.outputsFenced.Load()
	for name, ck := range snapshot {
		m.checkpointTask(name, ck, allowHandoff)
	}
}

// checkpointLoop periodically checkpoints all learners; a final pass runs
// on shutdown (Close cancels the context before stopping tasks, so the
// learners are still enrolled).
func (m *Module) checkpointLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			m.checkpointAll()
			return
		case <-m.cfg.Clock.After(m.cfg.CheckpointInterval):
			m.checkpointAll()
		}
	}
}
