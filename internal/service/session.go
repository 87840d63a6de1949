// Package service is the campaign-as-a-service layer: a long-running
// daemon (cmd/classfuzzd) hosting N sharded fuzzing campaigns over the
// staged engine, a coordinator folding shard results into one session
// view, a versioned checkpoint/resume protocol that survives kill -9
// with byte-identical results, and an HTTP corpus/work API with
// backpressure and graceful drain. See DESIGN.md ("Service layer").
package service

import (
	"sync"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jvm"
	"repro/internal/telemetry"
)

// Metric names the service layer reports into the session registry.
// cmd/report's Service section and the dashboard render these.
const (
	// MetricCheckpointsWritten counts shard checkpoints persisted to
	// disk (periodic timer, API trigger, or drain-on-shutdown).
	MetricCheckpointsWritten = "service.checkpoints.written"
	// MetricCheckpointsRestored counts shard campaigns resumed from a
	// checkpoint at daemon startup.
	MetricCheckpointsRestored = "service.checkpoints.restored"
	// MetricQueueDepth gauges the seed-intake queue's current depth.
	MetricQueueDepth = "service.queue.depth"
	// MetricQueueHighWater gauges the deepest the intake queue has been.
	MetricQueueHighWater = "service.queue.hwm"
	// MetricSeedsAccepted counts submitted classfiles adopted into the
	// corpus; MetricSeedsRejected counts malformed submissions and
	// MetricSeedsThrottled counts 429s from a full queue.
	MetricSeedsAccepted  = "service.seeds.accepted"
	MetricSeedsRejected  = "service.seeds.rejected"
	MetricSeedsThrottled = "service.seeds.throttled"
	// MetricShardMerges counts shard epoch results folded into the
	// session; MetricEpochsCompleted is its alias-by-intent (merges
	// happen exactly once per completed epoch).
	MetricShardMerges     = "service.shard.merges"
	MetricEpochsCompleted = "service.epochs.completed"
	// MetricDiscrepancies gauges the discrepancy log's length.
	MetricDiscrepancies = "service.discrepancies"
	// MetricLockWait and MetricLockHold are histograms (ns) over the
	// fold and intake critical sections of the manager lock: how long
	// each waited to acquire it and how long it then held it. Status
	// and discrepancy reads queue behind both.
	MetricLockWait = "service.lock.wait_ns"
	MetricLockHold = "service.lock.hold_ns"
)

// Session aggregates campaign results produced by independent runs —
// the daemon's shard epochs, or the experiment driver's six campaigns
// — into one view: the folded results map, a shared method-granular
// verify memo, a telemetry roll-up, and the word-OR of every folded
// campaign's coverage trace. Fold is safe for concurrent use; the exported fields
// are for direct reading once the producing goroutines have finished.
type Session struct {
	mu sync.Mutex

	// Campaigns maps a fold key (e.g. "shard0/epoch2" or
	// "classfuzz[stbr]") to that campaign's result.
	Campaigns map[string]*campaign.Result
	// VerifyMemo is the method-granular verification memo shared by
	// every session Runner: renamed-but-identical lineage methods hit
	// it even though every mutant is new bytes. It lives for the
	// session only; nothing persists it.
	VerifyMemo *jvm.VerifyMemo
	// Telemetry is the session-wide metrics roll-up. Campaigns run
	// against private registries which Fold merges in as they finish,
	// so campaign.* counters here are totals across all folds; the
	// verify memo and every session Runner report here directly.
	Telemetry *telemetry.Registry

	cov    *coverage.Trace
	merges int
}

// NewSession builds an empty session. A nil reg gets a fresh registry;
// passing one lets a live /metrics.json endpoint watch the session as
// it fills (observe-only either way).
func NewSession(reg *telemetry.Registry) *Session {
	if reg == nil {
		reg = telemetry.New()
	}
	s := &Session{
		Campaigns:  map[string]*campaign.Result{},
		VerifyMemo: jvm.NewVerifyMemo(),
		Telemetry:  reg,
		cov:        coverage.NewTrace(),
	}
	s.VerifyMemo.UseTelemetry(reg)
	return s
}

// Fold absorbs one finished campaign: the result is recorded under
// key, the campaign's private telemetry registry (may be nil) merges
// into the roll-up, and the campaign's merged coverage trace — when
// the algorithm produces one — ORs into the session trace. All shards
// share the process-global probe registry, so trace words are
// index-compatible across folds.
func (s *Session) Fold(key string, res *campaign.Result, reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Campaigns[key] = res
	if reg != nil {
		s.Telemetry.Merge(reg)
	}
	if res.Coverage != nil {
		s.cov = coverage.Merge(s.cov, res.Coverage)
	}
	s.merges++
}

// Runner builds a standard five-VM differential runner wired to the
// session's shared verify memo and metrics roll-up.
func (s *Session) Runner() *difftest.Runner {
	r := difftest.NewStandardRunner()
	r.VerifyMemo = s.VerifyMemo
	jvm.ShareVerifyMemo(r.VMs, s.VerifyMemo)
	r.UseTelemetry(s.Telemetry)
	return r
}

// Coverage returns the statistics of the merged session trace.
func (s *Session) Coverage() coverage.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cov.Stats()
}

// Merges returns how many campaign results have been folded in.
func (s *Session) Merges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.merges
}
