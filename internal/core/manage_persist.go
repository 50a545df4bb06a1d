package core

import (
	"encoding/json"

	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/tasks"
)

// Deployment journaling. Every change to the deployment table is one
// mgrRec folded in by applyLocked — on the live path (Deploy, Undeploy,
// failover) and on replay alike, so the recovered table cannot drift from
// the one that was journaled. With ManagerConfig.Store set, the live path
// also journals each record; a restarted manager replays the journal,
// publishes the desired set of every module the recovered table names
// (modules already running a subtask acknowledge it again), and resumes
// supervising — status tracking and failover keep working for recipes
// deployed by the previous incarnation.
//
// Record application is idempotent and last-writer-wins per recipe, which
// is what the store's snapshot contract requires (records between the
// compaction mark and the capture may replay on top of the snapshot).

// Manager journal ops.
const (
	mgrOpDeploy   = "deploy"
	mgrOpUndeploy = "undeploy"
	mgrOpAssign   = "assign"
)

// mgrRec is one manager WAL record.
type mgrRec struct {
	Op         string           `json:"op"`
	Name       string           `json:"name,omitempty"`   // recipe name
	Task       string           `json:"task,omitempty"`   // subtask name (assign)
	Module     string           `json:"module,omitempty"` // assign target
	Recipe     *recipe.Recipe   `json:"recipe,omitempty"`
	SubTasks   []recipe.SubTask `json:"subTasks,omitempty"`
	Assignment tasks.Assignment `json:"assignment,omitempty"`
	// Epoch is the subtask's assignment epoch (assign records); Epochs is
	// the full per-subtask epoch table (deploy records and snapshots).
	// Absent on pre-epoch journals.
	Epoch  uint64            `json:"epoch,omitempty"`
	Epochs map[string]uint64 `json:"epochs,omitempty"`
}

// mgrSnapshot is the compacted journal: a deploy record per live
// deployment and an undeploy record per recipe in scope but no longer
// deployed, so compaction keeps the scope.
type mgrSnapshot struct {
	Deployments []mgrRec `json:"deployments"`
}

// applyLocked folds one record into the deployment table; it is the only
// code that writes mgr.deployments, mgr.scope, dep.Assignment or
// dep.Epochs. It returns the deployment the record touched (nil when
// there is none). Called with mu held.
func (mgr *Manager) applyLocked(rec mgrRec) *Deployment {
	switch rec.Op {
	case mgrOpDeploy:
		if rec.Recipe == nil {
			return nil
		}
		mgr.scope[rec.Name] = true
		// Every subtask is pending: a live deploy waits for the first
		// acks, a recovered one for the acks to the desired sets Start
		// publishes again (a running task is acknowledged as such).
		dep := &Deployment{
			Recipe:     *rec.Recipe,
			SubTasks:   rec.SubTasks,
			Assignment: make(tasks.Assignment, len(rec.Assignment)),
			Epochs:     make(map[string]uint64, len(rec.SubTasks)),
			pending:    make(map[string]struct{}, len(rec.SubTasks)),
			failed:     make(map[string]string),
			done:       make(chan struct{}),
		}
		for k, v := range rec.Assignment {
			dep.Assignment[k] = v
		}
		for _, s := range rec.SubTasks {
			// Pre-epoch journals carry no epoch table: every subtask
			// starts at the deploy epoch, so a later failover bump (→2)
			// still outranks whatever instance is in the field.
			e := rec.Epochs[s.Name()]
			if e == 0 {
				e = 1
			}
			dep.Epochs[s.Name()] = e
			dep.pending[s.Name()] = struct{}{}
		}
		mgr.deployments[rec.Name] = dep
		return dep
	case mgrOpUndeploy:
		// An undeploy names a recipe this manager deployed, whose deploy
		// record a compaction may have dropped.
		mgr.scope[rec.Name] = true
		dep := mgr.deployments[rec.Name]
		delete(mgr.deployments, rec.Name)
		return dep
	case mgrOpAssign:
		dep, ok := mgr.deployments[rec.Name]
		if !ok {
			return nil
		}
		dep.Assignment[rec.Task] = rec.Module
		// Pre-epoch assign records (Epoch 0) still represent one failover
		// move each; bumping keeps the table monotonic across upgrades.
		e := rec.Epoch
		if e == 0 {
			e = dep.Epochs[rec.Task] + 1
		}
		dep.Epochs[rec.Task] = max(dep.Epochs[rec.Task], e)
		return dep
	}
	return nil
}

// commitLocked is the live path's one write: it applies the record and
// journals it under the same lock, so WAL order equals memory order. The
// journal reports its own failures; they never take down a live manager.
// Called with mu held.
func (mgr *Manager) commitLocked(rec mgrRec) *Deployment {
	dep := mgr.applyLocked(rec)
	mgr.journal.Append(rec)
	return dep
}

// captureState serializes the deployment table and scope for snapshot
// compaction.
func (mgr *Manager) captureState() ([]byte, error) {
	mgr.mu.Lock()
	snap := mgrSnapshot{Deployments: make([]mgrRec, 0, len(mgr.scope))}
	for _, dep := range mgr.deployments {
		rec := dep.Recipe
		assignment := make(tasks.Assignment, len(dep.Assignment))
		for k, v := range dep.Assignment {
			assignment[k] = v
		}
		epochs := make(map[string]uint64, len(dep.Epochs))
		for k, v := range dep.Epochs {
			epochs[k] = v
		}
		snap.Deployments = append(snap.Deployments, mgrRec{
			Op:         mgrOpDeploy,
			Name:       rec.Name,
			Recipe:     &rec,
			SubTasks:   dep.SubTasks,
			Assignment: assignment,
			Epochs:     epochs,
		})
	}
	for name := range mgr.scope {
		if _, ok := mgr.deployments[name]; !ok {
			snap.Deployments = append(snap.Deployments, mgrRec{Op: mgrOpUndeploy, Name: name})
		}
	}
	mgr.mu.Unlock()
	return json.Marshal(snap)
}

// restoreLocked folds a snapshot blob into the deployment table. Called
// with mu held.
func (mgr *Manager) restoreLocked(blob []byte) error {
	var snap mgrSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return err
	}
	for _, rec := range snap.Deployments {
		mgr.applyLocked(rec)
	}
	return nil
}

// recoverState rebuilds the deployment table from st, folding every
// record through applyLocked, and arms the journal on st. Start calls it
// before the control subscriptions exist.
func (mgr *Manager) recoverState(st store.Store) error {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	j, err := store.OpenJournal(st, "manager", mgr.cfg.Logger, mgr.events,
		mgr.restoreLocked, func(rec mgrRec) { mgr.applyLocked(rec) }, mgr.captureState)
	if err != nil {
		return err
	}
	mgr.journal = j
	return nil
}
