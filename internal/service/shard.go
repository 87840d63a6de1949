package service

import (
	"sync"

	"repro/internal/telemetry"
)

// shard is one campaign worker slot: it runs epochs of the staged
// engine back to back, each epoch a full campaign over the corpus as
// pinned at that epoch's start, under a per-shard-per-epoch derived
// seed. The manager reads a running epoch's counters from its private
// registry and stops it through the campaign's Stop channel.
type shard struct {
	id int
	m  *Manager

	mu sync.Mutex
	// running is set while an epoch's engine runs; epoch and
	// submittedUsed describe that epoch, or between epochs the next one.
	running       bool
	epoch         int
	submittedUsed int
	state         string
	// reg is the running epoch's private registry or, between epochs,
	// the last one's; status reads the shard's counts from it.
	reg *telemetry.Registry
}

// ShardStatus is one shard's row in the status API. Drawn, Executed
// and Accepted are the current (or, between epochs, the last) epoch's
// campaign.iterations, campaign.executions and campaign.accepts;
// Executed counts reference-VM runs, not mutants the prefilter's trace
// cache served.
type ShardStatus struct {
	ID            int    `json:"id"`
	State         string `json:"state"`
	Epoch         int    `json:"epoch"`
	SubmittedUsed int    `json:"submitted_used"`
	Drawn         int64  `json:"drawn"`
	Executed      int64  `json:"executed"`
	Accepted      int64  `json:"accepted"`
}

func (sh *shard) setState(s string) {
	sh.mu.Lock()
	sh.state = s
	sh.mu.Unlock()
}

// beginEpoch marks an epoch running on reg.
func (sh *shard) beginEpoch(epoch, used int, reg *telemetry.Registry) {
	sh.mu.Lock()
	sh.running, sh.reg = true, reg
	sh.epoch, sh.submittedUsed = epoch, used
	sh.state = "running"
	sh.mu.Unlock()
}

// endEpoch marks the epoch's engine returned. The registry stays for
// status; liveReg stops returning it.
func (sh *shard) endEpoch() {
	sh.mu.Lock()
	sh.running = false
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

// liveReg returns the running epoch's private registry, or nil between
// epochs: a finished epoch's counts reach the session through its fold
// and must not be merged a second time.
func (sh *shard) liveReg() *telemetry.Registry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.running {
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
