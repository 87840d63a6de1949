// Package service is the campaign-as-a-service layer: a long-running
// daemon (cmd/classfuzzd) hosting N sharded fuzzing campaigns over the
// staged engine, a coordinator folding shard results into one session
// view, epoch-granular persistence that survives kill -9 with
// byte-identical results (a cut-short epoch runs again from iteration
// 0), and an HTTP corpus/work API with backpressure and graceful drain.
// See DESIGN.md ("Service layer").
package service

import (
	"sync"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/telemetry"
)

// Metric names the service layer reports into the session registry.
// cmd/report's Service section and the dashboard render these.
const (
	// MetricCheckpointsWritten counts state.json rewrites asked for
	// through POST /api/checkpoint.
	MetricCheckpointsWritten = "service.checkpoints.written"
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
	// MetricEpochsCompleted counts shard epoch results folded into the
	// session; Status.Merges reports it.
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
// — into one view: the folded results map, a telemetry roll-up, and the
// word-OR of every folded campaign's coverage trace. Fold is safe for concurrent use; the exported fields
// are for direct reading once the producing goroutines have finished.
type Session struct {
	mu sync.Mutex

	// Campaigns maps a fold key (e.g. "shard0/epoch2" or
	// "classfuzz[stbr]") to that campaign's result. The daemon keeps
	// only each shard's latest epoch here, so the map does not grow
	// with the epochs a long-running daemon folds.
	Campaigns map[string]*campaign.Result
	// Telemetry is the session-wide metrics roll-up. Campaigns run
	// against private registries which Fold merges in as they finish,
	// so campaign.* counters here are totals across all folds; every
	// session Runner, its verify memo included, reports here directly.
	Telemetry *telemetry.Registry

	cov *coverage.Trace
}

// NewSession builds an empty session. A nil reg gets a fresh registry;
// passing one lets a live /metrics.json endpoint watch the session as
// it fills (observe-only either way).
func NewSession(reg *telemetry.Registry) *Session {
	if reg == nil {
		reg = telemetry.New()
	}
	return &Session{
		Campaigns: map[string]*campaign.Result{},
		Telemetry: reg,
		cov:       coverage.NewTrace(),
	}
}

// Fold absorbs one finished campaign: the result is recorded under
// key, the campaign's private telemetry registry (may be nil) merges
// into the roll-up, and the campaign's merged coverage trace — when
// the algorithm produces one — ORs into the session trace. All shards
// share the process-global probe registry, so trace words are
// index-compatible across folds.
func (s *Session) Fold(key string, res *campaign.Result, reg *telemetry.Registry) {
	s.foldReplacing(key, "", res, reg)
}

// foldReplacing is Fold that also drops the result folded under prev:
// a shard's epoch replaces its previous one.
func (s *Session) foldReplacing(key, prev string, res *campaign.Result, reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.Campaigns, prev)
	s.Campaigns[key] = res
	if reg != nil {
		s.Telemetry.Merge(reg)
	}
	if res.Coverage != nil {
		s.cov = coverage.Merge(s.cov, res.Coverage)
	}
}

// Runner builds a standard five-VM differential runner reporting into
// the session's metrics roll-up. The runner owns its verify memo, so no
// verdict outlives the runner.
func (s *Session) Runner() *difftest.Runner {
	r := difftest.NewStandardRunner()
	r.UseTelemetry(s.Telemetry)
	return r
}

// Coverage returns the statistics of the merged session trace.
func (s *Session) Coverage() coverage.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cov.Stats()
}
