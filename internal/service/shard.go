package service

import (
	"sync"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// shard is one campaign worker slot: it runs epochs of the staged
// engine back to back, each epoch a full campaign over the corpus as
// pinned at that epoch's start, under a per-shard-per-epoch derived
// seed. The manager talks to a running epoch through its Control
// (snapshot/stop at coordinator boundaries) and reads the epoch's
// counters from its private registry.
type shard struct {
	id int
	m  *Manager

	mu sync.Mutex
	// ctrl is non-nil exactly while an epoch's engine is running;
	// epoch and submittedUsed describe that epoch (epoch advances only
	// after ctrl is cleared, so a consistent triple is read under mu).
	ctrl          *campaign.Control
	epoch         int
	submittedUsed int
	state         string
	resumed       bool
	// reg is the running epoch's private registry or, between epochs,
	// the last one's; status reads the shard's counts from it.
	reg *telemetry.Registry
}

// ShardStatus is one shard's row in the status API. Drawn, Executed
// and Accepted are the current (or, between epochs, the last) epoch's
// campaign.iterations, campaign.executions and campaign.accepts — a
// resumed epoch's counts include its restored prefix, and Executed
// counts reference-VM runs, not mutants the prefilter's trace cache
// served.
type ShardStatus struct {
	ID            int    `json:"id"`
	State         string `json:"state"`
	Epoch         int    `json:"epoch"`
	SubmittedUsed int    `json:"submitted_used"`
	Resumed       bool   `json:"resumed"`
	Drawn         int64  `json:"drawn"`
	Executed      int64  `json:"executed"`
	Accepted      int64  `json:"accepted"`
}

func (sh *shard) setState(s string) {
	sh.mu.Lock()
	sh.state = s
	sh.mu.Unlock()
}

// beginEpoch installs a running epoch's handles. Returns false —
// without installing — when the manager is draining, so no engine
// starts after Stop began collecting shards.
func (sh *shard) beginEpoch(epoch, used int, ctrl *campaign.Control, reg *telemetry.Registry, resumed bool) bool {
	sh.m.drainMu.Lock()
	defer sh.m.drainMu.Unlock()
	if sh.m.stopping.Load() {
		return false
	}
	sh.mu.Lock()
	sh.ctrl, sh.reg = ctrl, reg
	sh.epoch, sh.submittedUsed = epoch, used
	sh.state, sh.resumed = "running", resumed
	sh.mu.Unlock()
	return true
}

// endEpoch clears the running handle (the epoch's engine returned).
// The registry stays for status; liveReg stops returning it.
func (sh *shard) endEpoch() {
	sh.mu.Lock()
	sh.ctrl = nil
	sh.mu.Unlock()
}

// status snapshots the shard for the API.
func (sh *shard) status() ShardStatus {
	sh.mu.Lock()
	st := ShardStatus{
		ID:            sh.id,
		State:         sh.state,
		Epoch:         sh.epoch,
		SubmittedUsed: sh.submittedUsed,
		Resumed:       sh.resumed,
	}
	reg := sh.reg
	sh.mu.Unlock()
	if reg != nil {
		st.Drawn = reg.Counter("campaign.iterations").Load()
		st.Executed = reg.Counter("campaign.executions").Load()
		st.Accepted = reg.Counter("campaign.accepts").Load()
	}
	return st
}

// handles returns the consistent (ctrl, epoch, submittedUsed) triple,
// or a nil ctrl when no epoch is running.
func (sh *shard) handles() (*campaign.Control, int, int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ctrl, sh.epoch, sh.submittedUsed
}

// liveReg returns the running epoch's private registry, or nil between
// epochs: a finished epoch's counts reach the session through its fold
// and must not be merged a second time.
func (sh *shard) liveReg() *telemetry.Registry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.ctrl == nil {
		return nil
	}
	return sh.reg
}

// advance moves to the next epoch after a fold.
func (sh *shard) advance() {
	sh.mu.Lock()
	sh.epoch++
	sh.state = "idle"
	sh.mu.Unlock()
}
