package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/prng"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

// campaignStream derives per-shard-per-epoch campaign seeds from the
// daemon seed (prng.Mix stream id — any fixed constant distinct from
// the engine's internal streams works).
const campaignStream = 0x5ec1a55f

// Config parameterises a daemon.
type Config struct {
	// DataDir is the persistent root (created if missing): corpus,
	// state, shard checkpoints. Required.
	DataDir string
	// Addr is the HTTP listen address (e.g. "127.0.0.1:8317"; use
	// ":0" for an ephemeral port — Manager.Addr reports the bound
	// one). Empty disables the HTTP API.
	Addr string
	// Shards is the number of concurrent campaign workers (default 1).
	Shards int
	// Workers sizes each shard's engine worker pool (default 1;
	// results are identical at any value).
	Workers int
	// Algorithm (default classfuzz) and Criterion shape every epoch.
	Algorithm campaign.Algorithm
	Criterion coverage.Criterion
	// SeedStrategy selects the seed-scheduling policy for every epoch:
	// "uniform" (default — the flat draw), "clustered" or "yield".
	// Unknown values fail Start.
	SeedStrategy string
	// SeedCount/Seed generate the base corpus; Seed also roots every
	// shard epoch's derived campaign seed.
	SeedCount int
	Seed      int64
	// Iterations is the budget per epoch (default 400).
	Iterations int
	// Epochs bounds epochs per shard; 0 means run until stopped.
	Epochs int
	// QueueCap bounds the seed-intake queue (default 64); a full
	// queue answers 429.
	QueueCap int
	// CheckpointEvery enables periodic checkpoints (0 disables; the
	// API trigger and drain-on-shutdown always work).
	CheckpointEvery time.Duration
	// Logf receives daemon progress lines (nil for silent).
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.Shards < 1 {
		d.Shards = 1
	}
	if d.Workers < 1 {
		d.Workers = 1
	}
	if d.Algorithm == "" {
		d.Algorithm = campaign.Classfuzz
	}
	if d.SeedStrategy == "" {
		d.SeedStrategy = string(seedsel.Uniform)
	}
	if d.SeedCount < 1 {
		d.SeedCount = 60
	}
	if d.Iterations < 1 {
		d.Iterations = 400
	}
	if d.QueueCap < 1 {
		d.QueueCap = 64
	}
	return d
}

// submittedSeed is one adopted corpus submission.
type submittedSeed struct {
	name  string
	class *jimple.Class
}

// Manager is the daemon: N shards, the folding session, the corpus
// intake, the checkpoint protocol and the HTTP API.
type Manager struct {
	cfg       Config
	session   *Session
	tel       *telemetry.Registry
	baseSeeds []*jimple.Class
	strategy  seedsel.Strategy

	mu        sync.Mutex
	submitted []submittedSeed
	// seedIndex is the intake classification index (nil under the
	// uniform strategy): the corpus's cluster structure, pinned to the
	// generated base seeds so cluster identities stay stable as
	// submissions join. clusterAgg accumulates per-cluster scheduling
	// outcomes across folded epochs, indexed like seedIndex's clusters.
	seedIndex  *seedsel.Scheduler
	clusterAgg []clusterTallies
	// discs is the discrepancy log; an entry's ID is its index.
	discs []Discrepancy
	// journal is discrepancies.jsonl, open from Start to Stop. Its
	// first journaled entries of discs are durable, in journalSize
	// bytes; persistLocked appends the rest.
	journal     *os.File
	journaled   int
	journalSize int64
	// shardEpochs[i] is shard i's fold frontier (next epoch to run).
	shardEpochs []int
	discWake    chan struct{}
	queueHWM    int64
	// lockWait and lockHold time the fold and intake critical sections
	// of mu (MetricLockWait, MetricLockHold).
	lockWait, lockHold *telemetry.Histogram

	// drainMu serialises "may an epoch still start?" against Stop:
	// Stop flips stopping under it, shards install their Control under
	// it, so after Stop returns from that critical section every shard
	// either has a visible Control (drained via Stop+checkpoint) or
	// will refuse to start its next epoch.
	drainMu  sync.Mutex
	stopping atomic.Bool

	queue chan []byte
	// intakeGate, when non-nil, blocks the intake worker until the
	// gate closes (test hook for exercising queue backpressure).
	intakeGate chan struct{}

	shards   []*shard
	wg       sync.WaitGroup // shard loops
	bgWG     sync.WaitGroup // intake + checkpoint timer + http serve
	stopCh   chan struct{}
	stopOnce sync.Once

	ln      net.Listener
	httpSrv *http.Server

	unlock  func() // releases the data-directory flock
	started bool
}

// New builds an unstarted Manager.
func New(cfg Config) *Manager {
	c := cfg.withDefaults()
	m := &Manager{
		cfg:      c,
		session:  NewSession(nil),
		discWake: make(chan struct{}),
		queue:    make(chan []byte, c.QueueCap),
		stopCh:   make(chan struct{}),
	}
	m.tel = m.session.Telemetry
	m.lockWait = m.tel.Histogram(MetricLockWait)
	m.lockHold = m.tel.Histogram(MetricLockHold)
	return m
}

// lockTimed acquires mu for a fold or intake critical section and
// returns its release; both observe into the lock histograms.
func (m *Manager) lockTimed() (unlock func()) {
	t0 := time.Now()
	m.mu.Lock()
	held := time.Now()
	m.lockWait.Observe(held.Sub(t0).Nanoseconds())
	return func() {
		m.lockHold.Observe(time.Since(held).Nanoseconds())
		m.mu.Unlock()
	}
}

// Session exposes the folding session (read it after Wait/Stop, or
// accept racy-but-consistent views while running).
func (m *Manager) Session() *Session { return m.session }

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Start loads (or initialises) the data directory, resumes any shard
// checkpoints, and launches the shards, the intake worker, the
// checkpoint timer and the HTTP server.
func (m *Manager) Start() error {
	if m.started {
		return fmt.Errorf("service: manager already started")
	}
	m.started = true
	if m.cfg.DataDir == "" {
		return fmt.Errorf("service: DataDir is required")
	}
	for _, dir := range []string{m.cfg.DataDir, m.corpusDir(), m.checkpointDir()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	unlock, err := lockDataDir(m.cfg.DataDir)
	if err != nil {
		return err
	}
	m.unlock = unlock
	startOK := false
	defer func() {
		if !startOK {
			if m.journal != nil {
				m.journal.Close()
				m.journal = nil
			}
			unlock()
			m.unlock = nil
		}
	}()
	m.shardEpochs = make([]int, m.cfg.Shards)

	strategy, err := seedsel.ParseStrategy(m.cfg.SeedStrategy)
	if err != nil {
		return err
	}
	m.strategy = strategy

	resuming, err := m.loadState()
	if err != nil {
		return err
	}
	m.baseSeeds = seedgen.Generate(seedgen.DefaultOptions(m.cfg.SeedCount, m.cfg.Seed))
	if m.strategy != seedsel.Uniform {
		// The intake index: cluster structure over the generated base
		// corpus, with every reloaded submission classified back into
		// it in arrival order (identical to how it was classified when
		// first accepted — classification is deterministic).
		idx, err := seedsel.New(m.baseSeeds, seedsel.Options{Strategy: m.strategy, RefSpec: jvm.HotSpot9()})
		if err != nil {
			return err
		}
		for _, s := range m.submitted {
			idx.AddSeed(s.class)
		}
		m.seedIndex = idx
		m.clusterAgg = make([]clusterTallies, idx.Clusters())
	}
	checkpoints := make([]*ShardCheckpoint, m.cfg.Shards)
	if resuming {
		for i := 0; i < m.cfg.Shards; i++ {
			checkpoints[i] = m.loadShardCheckpoint(i)
		}
	}

	// Persist the initial state before anything runs, so a fresh data
	// directory is stamped with the configuration it will forever
	// require.
	m.mu.Lock()
	err = m.persistLocked()
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}

	if m.cfg.Addr != "" {
		ln, err := net.Listen("tcp", m.cfg.Addr)
		if err != nil {
			return err
		}
		m.ln = ln
		m.httpSrv = &http.Server{Handler: m.handler()}
		m.bgWG.Add(1)
		go func() {
			defer m.bgWG.Done()
			m.httpSrv.Serve(ln)
		}()
		m.logf("serving on http://%s/ (dashboard, /api, /metrics.json)", m.Addr())
	}

	m.bgWG.Add(1)
	go m.intake()
	if m.cfg.CheckpointEvery > 0 {
		m.bgWG.Add(1)
		go m.checkpointTimer()
	}

	m.shards = make([]*shard, m.cfg.Shards)
	for i := 0; i < m.cfg.Shards; i++ {
		sh := &shard{id: i, m: m, epoch: m.shardEpochs[i], state: "starting"}
		m.shards[i] = sh
		m.wg.Add(1)
		go m.runShard(sh, checkpoints[i])
	}
	startOK = true
	return nil
}

// Addr reports the bound HTTP address ("" when the API is disabled).
func (m *Manager) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// Wait blocks until every shard finishes its epoch budget (never, when
// Epochs is 0 — use Stop). It does not shut the HTTP API down.
func (m *Manager) Wait() { m.wg.Wait() }

// Stop drains the daemon: intake answers 503, the HTTP listener shuts
// down, every running shard epoch is stopped at a coordinator boundary
// and checkpointed, queued-but-unprocessed seeds are adopted into the
// corpus, and state.json persists. A subsequent Start on the
// same data directory resumes with byte-identical results.
func (m *Manager) Stop(ctx context.Context) error {
	var firstErr error
	m.stopOnce.Do(func() {
		m.drainMu.Lock()
		m.stopping.Store(true)
		m.drainMu.Unlock()

		if m.httpSrv != nil {
			if err := m.httpSrv.Shutdown(ctx); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		close(m.stopCh)

		// Stop + checkpoint every running epoch, in parallel (each
		// Stop blocks until its engine reaches a boundary).
		var wg sync.WaitGroup
		for _, sh := range m.shards {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				m.checkpointShard(sh, true)
			}(sh)
		}
		wg.Wait()
		m.wg.Wait()
		m.bgWG.Wait()

		// Adopt any seeds still queued (the intake worker is gone);
		// they persist now and enter epochs after the restart.
		for {
			select {
			case data := <-m.queue:
				m.acceptSeed(data)
			default:
				goto drained
			}
		}
	drained:
		m.mu.Lock()
		if err := m.persistLocked(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("service: %w", err)
		}
		if m.journal != nil {
			if err := m.journal.Sync(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("service: journal sync: %w", err)
			}
			if err := m.journal.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			m.journal = nil
		}
		m.mu.Unlock()
		if m.unlock != nil {
			m.unlock()
			m.unlock = nil
		}
	})
	return firstErr
}

// --- corpus -----------------------------------------------------------------

// loadState reads state.json (returns false when the directory is
// fresh), validates it against the configuration, lifts the corpus and
// loads the discrepancy journal up to the state's frontier.
func (m *Manager) loadState() (bool, error) {
	var st State
	err := readJSON(m.statePath(), &st)
	resuming := err == nil
	switch {
	case os.IsNotExist(err):
		// A fresh directory: no corpus, every frontier at 0.
	case err != nil:
		return false, err
	default:
		if err := m.validateState(&st); err != nil {
			return false, err
		}
	}
	copy(m.shardEpochs, st.ShardEpochs)
	for _, name := range st.Submitted {
		data, err := os.ReadFile(filepath.Join(m.corpusDir(), name))
		if err != nil {
			return false, fmt.Errorf("service: corpus file %s named by state.json: %w", name, err)
		}
		c, err := liftSeed(data)
		if err != nil {
			return false, fmt.Errorf("service: corpus file %s: %w", name, err)
		}
		m.submitted = append(m.submitted, submittedSeed{name: name, class: c})
	}
	return resuming, m.loadJournal(st.NextDiscrepancy)
}

// liftSeed validates submission bytes all the way to the class model
// the engine mutates. It refuses a class over jvm.MaxVerifyFootprint
// before lifting it (body size alone does not bound the verifier's
// allocation), so neither intake nor a restart's corpus reload hands
// the engine a seed whose every run would allocate out of proportion
// to its size.
func liftSeed(data []byte) (*jimple.Class, error) {
	f, err := classfile.Parse(data)
	if err != nil {
		return nil, err
	}
	if err := jvm.CheckFootprint(f); err != nil {
		return nil, err
	}
	return jimple.Lift(f)
}

// acceptSeed persists one queued submission and makes it visible to
// future epochs. Persist-before-visibility: the corpus file and the
// state.json naming it hit disk inside the same critical section that
// appends to the in-memory corpus, so no epoch can start on a seed a
// restart would not reload.
func (m *Manager) acceptSeed(data []byte) {
	c, err := liftSeed(data)
	if err != nil {
		m.tel.Counter(MetricSeedsRejected).Inc()
		m.logf("intake: dropped malformed submission: %v", err)
		return
	}
	unlock := m.lockTimed()
	defer unlock()
	name := submittedName(len(m.submitted))
	if err := os.WriteFile(filepath.Join(m.corpusDir(), name), data, 0o644); err != nil {
		m.logf("intake: persisting %s: %v", name, err)
		return
	}
	m.submitted = append(m.submitted, submittedSeed{name: name, class: c})
	if err := m.persistLocked(); err != nil {
		m.logf("intake: %v", err)
	}
	if m.seedIndex != nil {
		sc := m.seedIndex.AddSeed(c)
		m.logf("intake: %s classified into cluster %d (fp %016x)", name, sc.Cluster, sc.Fingerprint)
	}
	m.tel.Counter(MetricSeedsAccepted).Inc()
	m.logf("intake: adopted %s (%d submitted seeds)", name, len(m.submitted))
}

// classifySeed reports where intake would place c (ok=false under the
// uniform strategy, which has no index). Classification runs on the
// index's private VM, so it serialises under m.mu alongside adoption.
func (m *Manager) classifySeed(c *jimple.Class) (seedsel.SeedClass, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seedIndex == nil {
		return seedsel.SeedClass{}, false
	}
	return m.seedIndex.Classify(c), true
}

// intake is the single consumer of the submission queue.
func (m *Manager) intake() {
	defer m.bgWG.Done()
	for {
		select {
		case <-m.stopCh:
			return
		case data := <-m.queue:
			if m.intakeGate != nil {
				select {
				case <-m.intakeGate:
				case <-m.stopCh:
					// Put it back for Stop's drain to adopt.
					m.queue <- data
					return
				}
			}
			m.acceptSeed(data)
			m.tel.Gauge(MetricQueueDepth).Set(int64(len(m.queue)))
		}
	}
}

// corpusFor assembles the epoch corpus: generated base seeds plus the
// first `used` submitted seeds in arrival order.
func (m *Manager) corpusFor(used int) []*jimple.Class {
	m.mu.Lock()
	defer m.mu.Unlock()
	if used > len(m.submitted) {
		used = len(m.submitted)
	}
	seeds := make([]*jimple.Class, 0, len(m.baseSeeds)+used)
	seeds = append(seeds, m.baseSeeds...)
	for _, s := range m.submitted[:used] {
		seeds = append(seeds, s.class)
	}
	return seeds
}

func (m *Manager) submittedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.submitted)
}

// --- shard epochs -----------------------------------------------------------

// shardKey names a fold.
func shardKey(shard, epoch int) string { return fmt.Sprintf("shard%d/epoch%d", shard, epoch) }

// epochSeed derives the campaign seed for (shard, epoch) from the
// daemon seed: distinct streams per slot, reproducible forever.
func (m *Manager) epochSeed(shard, epoch int) int64 {
	return prng.Mix(m.cfg.Seed, campaignStream, uint64(shard)<<32|uint64(uint32(epoch)))
}

// epochSource builds one epoch's SeedSource over the corpus prefix:
// the flat-uniform adapter, or a fresh scheduler (stateful sources
// serve exactly one engine run — a Resume replays the committed prefix
// into it). The scheduler's cluster identities match the intake
// index's: representatives are restricted to the generated base
// corpus, so submitted seeds join existing clusters.
func (m *Manager) epochSource(used int, reg *telemetry.Registry) (campaign.SeedSource, *seedsel.Scheduler, error) {
	corpus := m.corpusFor(used)
	if m.strategy == seedsel.Uniform {
		return campaign.FlatSeeds(corpus), nil, nil
	}
	sched, err := seedsel.New(corpus, seedsel.Options{
		Strategy:  m.strategy,
		RefSpec:   jvm.HotSpot9(),
		Base:      len(m.baseSeeds),
		Telemetry: reg,
	})
	if err != nil {
		return nil, nil, err
	}
	return sched, sched, nil
}

// campaignConfig shapes one epoch's engine run.
func (m *Manager) campaignConfig(sh *shard, epoch int, src campaign.SeedSource, ctrl *campaign.Control, reg *telemetry.Registry) campaign.Config {
	return campaign.Config{
		Algorithm:       m.cfg.Algorithm,
		Criterion:       m.cfg.Criterion,
		Source:          src,
		Iterations:      m.cfg.Iterations,
		Rand:            m.epochSeed(sh.id, epoch),
		RefSpec:         jvm.HotSpot9(),
		StaticPrefilter: true,
		Workers:         m.cfg.Workers,
		Control:         ctrl,
		Telemetry:       reg,
	}
}

// runShard is a shard's epoch loop. cp, when non-nil, resumes the
// first epoch from its checkpoint.
func (m *Manager) runShard(sh *shard, cp *ShardCheckpoint) {
	defer m.wg.Done()
	for {
		_, epoch, _ := sh.handles()
		if m.cfg.Epochs > 0 && epoch >= m.cfg.Epochs {
			sh.setState("done")
			return
		}
		ctrl := campaign.NewControl()
		reg := telemetry.New()
		var eng *campaign.Engine
		var sched *seedsel.Scheduler
		var used int
		resumed := false
		if cp != nil {
			used = cp.SubmittedUsed
			src, sc, err := m.epochSource(used, reg)
			if err == nil {
				eng, err = campaign.Resume(m.campaignConfig(sh, epoch, src, ctrl, reg), cp.Campaign)
			}
			if err != nil {
				m.logf("shard %d: checkpoint rejected (%v); restarting epoch %d fresh", sh.id, err, epoch)
				eng = nil
				// The rejected attempt may have moved the seed
				// scheduler's and the seed pass's metrics.
				reg = telemetry.New()
			} else {
				sched = sc
				m.tel.Counter(MetricCheckpointsRestored).Inc()
				resumed = true
				m.logf("shard %d: resumed epoch %d at iteration %d/%d", sh.id, epoch, cp.Campaign.Committed, m.cfg.Iterations)
			}
			cp = nil
		}
		if eng == nil {
			used = m.submittedCount()
			src, sc, err := m.epochSource(used, reg)
			if err == nil {
				eng, err = campaign.NewEngine(m.campaignConfig(sh, epoch, src, ctrl, reg))
			}
			if err != nil {
				m.logf("shard %d: engine: %v", sh.id, err)
				sh.setState("failed")
				return
			}
			sched = sc
		}
		if !sh.beginEpoch(epoch, used, ctrl, reg, resumed) {
			sh.setState("stopped")
			return
		}
		res, err := eng.Run()
		sh.endEpoch()
		if err != nil {
			m.logf("shard %d epoch %d: %v", sh.id, epoch, err)
			sh.setState("failed")
			return
		}
		if res.Stopped {
			// The drain path that asked for the stop wrote the
			// checkpoint; the partial epoch folds after the restart.
			sh.setState("stopped")
			return
		}
		m.foldEpoch(sh, epoch, res, reg, sched)
		sh.advance()
	}
}

// foldEpoch absorbs one completed epoch: session fold, differential
// testing of the accepted suite on a session Runner, discrepancy
// log append (each discrepancy credited to the seed cluster its
// lineage's root seed belongs to), per-cluster scheduling tallies,
// state-frontier advance and persist.
func (m *Manager) foldEpoch(sh *shard, epoch int, res *campaign.Result, reg *telemetry.Registry, sched *seedsel.Scheduler) {
	m.session.Fold(shardKey(sh.id, epoch), res, reg)
	m.tel.Counter(MetricEpochsCompleted).Inc()

	runner := m.session.Runner()
	names := runner.Names()
	var found []Discrepancy
	for _, g := range res.Test {
		v := runner.Run(g.Data)
		if !v.Discrepant() {
			continue
		}
		d := Discrepancy{
			Shard:       sh.id,
			Epoch:       epoch,
			Iteration:   g.Iter,
			Class:       g.Name,
			Fingerprint: analysis.ContentFingerprint(g.Data),
			Vector:      v.Key(),
			Cluster:     -1,
		}
		for i, o := range v.Outcomes {
			d.Outcomes = append(d.Outcomes, fmt.Sprintf("%s: %s", names[i], o))
		}
		found = append(found, d)
	}

	unlock := m.lockTimed()
	if sched != nil {
		for i, cs := range sched.ClusterStats() {
			if i >= len(m.clusterAgg) {
				break // epoch built under a different corpus shape; skip extras
			}
			agg := &m.clusterAgg[i]
			agg.draws += cs.Draws
			agg.yield += cs.Yield
			agg.demotions += cs.Demotions
			agg.demoted = cs.Demoted
		}
		for i := range found {
			if root := campaign.RootSeed(res.Draws, found[i].Iteration); root >= 0 {
				if ci := sched.ClusterOf(root); ci >= 0 {
					found[i].Cluster = ci
					if ci < len(m.clusterAgg) {
						m.clusterAgg[ci].discrepancies++
					}
				}
			}
		}
	}
	m.commitLocked(found)
	m.shardEpochs[sh.id] = epoch + 1
	if err := m.persistLocked(); err != nil {
		m.logf("fold: %v", err)
	}
	unlock()
	// The epoch is folded; its checkpoint (if any) is now stale.
	os.Remove(m.checkpointPath(sh.id))
	m.logf("shard %d: epoch %d folded (%d tests, %d discrepancies, session coverage %s)",
		sh.id, epoch, len(res.Test), len(found), m.session.Coverage())
}

// commitLocked appends found to the discrepancy log, numbering it on
// from the log's length, and wakes long-polling readers. Caller holds
// m.mu.
func (m *Manager) commitLocked(found []Discrepancy) {
	for i := range found {
		found[i].ID = len(m.discs) + i
	}
	m.discs = append(m.discs, found...)
	m.tel.Gauge(MetricDiscrepancies).Set(int64(len(m.discs)))
	if len(found) > 0 {
		close(m.discWake)
		m.discWake = make(chan struct{})
	}
}

// --- checkpointing ----------------------------------------------------------

// checkpointShard snapshots a shard's running epoch (stopping it when
// stop is set) and persists the checkpoint. Reports whether a
// checkpoint was written.
func (m *Manager) checkpointShard(sh *shard, stop bool) bool {
	ctrl, epoch, used := sh.handles()
	if ctrl == nil {
		return false
	}
	var snap *campaign.Snapshot
	if stop {
		snap = ctrl.Stop()
	} else {
		snap = ctrl.Snapshot()
	}
	if snap == nil {
		return false
	}
	cp := &ShardCheckpoint{
		Version:       ShardCheckpointVersion,
		Shard:         sh.id,
		Epoch:         epoch,
		SubmittedUsed: used,
		Campaign:      snap,
	}
	if err := writeJSONAtomic(m.checkpointPath(sh.id), cp); err != nil {
		m.logf("shard %d: checkpoint write: %v", sh.id, err)
		return false
	}
	m.tel.Counter(MetricCheckpointsWritten).Inc()
	return true
}

// CheckpointNow snapshots every running shard epoch without stopping
// anything. Returns how many shard checkpoints were written.
func (m *Manager) CheckpointNow() int {
	n := 0
	for _, sh := range m.shards {
		if m.checkpointShard(sh, false) {
			n++
		}
	}
	return n
}

func (m *Manager) checkpointTimer() {
	defer m.bgWG.Done()
	t := time.NewTicker(m.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
			m.CheckpointNow()
		}
	}
}

// --- status -----------------------------------------------------------------

// Status is the /api/status document.
type Status struct {
	Algorithm     string         `json:"algorithm"`
	Criterion     string         `json:"criterion"`
	SeedStrategy  string         `json:"seed_strategy"`
	Shards        []ShardStatus  `json:"shards"`
	BaseSeeds     int            `json:"base_seeds"`
	Submitted     int            `json:"submitted"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCap      int            `json:"queue_cap"`
	Discrepancies int            `json:"discrepancies"`
	Merges        int            `json:"merges"`
	Coverage      coverage.Stats `json:"coverage"`
	Stopping      bool           `json:"stopping"`
	// SeedClusters is the per-cluster seed table (clustered/yield
	// strategies only): corpus membership from the intake index,
	// scheduling outcomes accumulated across folded epochs.
	SeedClusters []ClusterStatus `json:"seed_clusters,omitempty"`
}

// ClusterStatus is one seed cluster's row in the status API.
type ClusterStatus struct {
	Cluster       int   `json:"cluster"`
	Seeds         int   `json:"seeds"`
	Draws         int64 `json:"draws"`
	Yield         int64 `json:"yield"`
	Demotions     int64 `json:"demotions"`
	Discrepancies int64 `json:"discrepancies"`
	Demoted       bool  `json:"demoted"`
}

// clusterTallies accumulates one cluster's scheduling outcomes across
// folded epochs (m.mu-guarded, parallel to the intake index clusters).
type clusterTallies struct {
	draws, yield, demotions, discrepancies int64
	demoted                                bool
}

// Status snapshots the daemon for the API and dashboard.
func (m *Manager) Status() Status {
	st := Status{
		Algorithm:    string(m.cfg.Algorithm),
		Criterion:    m.cfg.Criterion.String(),
		SeedStrategy: string(m.strategy),
		BaseSeeds:    len(m.baseSeeds),
		QueueDepth:   len(m.queue),
		QueueCap:     m.cfg.QueueCap,
		Merges:       int(m.tel.Counter(MetricEpochsCompleted).Load()),
		Coverage:     m.session.Coverage(),
		Stopping:     m.stopping.Load(),
	}
	for _, sh := range m.shards {
		st.Shards = append(st.Shards, sh.status())
	}
	m.mu.Lock()
	st.Submitted = len(m.submitted)
	st.Discrepancies = len(m.discs)
	if m.seedIndex != nil {
		for i, cs := range m.seedIndex.ClusterStats() {
			row := ClusterStatus{Cluster: i, Seeds: cs.Seeds}
			if i < len(m.clusterAgg) {
				agg := m.clusterAgg[i]
				row.Draws, row.Yield = agg.draws, agg.yield
				row.Demotions, row.Discrepancies = agg.demotions, agg.discrepancies
				row.Demoted = agg.demoted
			}
			st.SeedClusters = append(st.SeedClusters, row)
		}
	}
	m.mu.Unlock()
	return st
}

// Discrepancies returns a copy of the log entries with ID >= since.
func (m *Manager) Discrepancies(since int) []Discrepancy {
	page, _, _ := m.discrepancyPage(since)
	return page
}

// discrepancyPage returns a copy of the log entries with ID >= since,
// the since value that continues it, and the channel the next append
// closes, all under one hold of m.mu: a fold landing between reading
// the cursor and the page would hand out entries past the cursor,
// which a client following it then fetches twice.
func (m *Manager) discrepancyPage(since int) ([]Discrepancy, int, chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	page := append([]Discrepancy{}, m.discs[min(since, len(m.discs)):]...)
	return page, len(m.discs), m.discWake
}

// liveSnapshot merges the session roll-up with every running epoch's
// private registry, so /metrics.json shows in-flight campaign counters
// before their epochs fold.
func (m *Manager) liveSnapshot() telemetry.Snapshot {
	regs := []*telemetry.Registry{m.tel}
	for _, sh := range m.shards {
		if r := sh.liveReg(); r != nil {
			regs = append(regs, r)
		}
	}
	return telemetry.LiveSnapshot(regs...)()
}

// MetricsJSON renders the live snapshot (for dumps and tests).
func (m *Manager) MetricsJSON() ([]byte, error) {
	return json.MarshalIndent(m.liveSnapshot(), "", "  ")
}
