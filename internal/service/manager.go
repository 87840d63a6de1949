package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/difftest"
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
	// DataDir is the persistent root (created if missing): state,
	// corpus and discrepancy journal. Required.
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

// submission is one validated intake request: its bytes, which intake
// persists, the class they lifted to, which epochs mutate, and, under a
// scheduling strategy, the class's run on the reference VM, which the
// intake index classifies it by.
type submission struct {
	data  []byte
	class *jimple.Class
	run   seedsel.SeedRun
}

// Manager is the daemon: N shards, the folding session, the corpus
// intake, the persisted state and the HTTP API.
type Manager struct {
	cfg       Config
	session   *Session
	tel       *telemetry.Registry
	baseSeeds []*jimple.Class
	strategy  seedsel.Strategy

	mu sync.Mutex
	// submitted holds the adopted submissions in arrival order; the
	// i-th is persisted as submittedName(i).
	submitted []*jimple.Class
	// seedIndex is the daemon's one seed classification (nil under the
	// uniform strategy): clusters founded by the base seeds, with each
	// submission added as it is adopted. Every epoch runs on a Fork of
	// it. Per cluster, clusterDiscs counts the discrepancies credited
	// to it and clusterDemoted is its last folded demotion flag.
	seedIndex      *seedsel.Scheduler
	clusterDiscs   []int64
	clusterDemoted []bool
	// flat is the uniform strategy's source over the current corpus:
	// the first epoch builds it and intake drops it on adopting a seed,
	// so the epochs on one corpus version share its seed pass.
	flat campaign.SeedSource
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

	// stopping flips when Stop begins: intake answers 503 from then on.
	stopping atomic.Bool

	queue chan submission
	// intakeGate, when non-nil, blocks the intake worker until the
	// gate closes (test hook for exercising queue backpressure).
	intakeGate chan struct{}
	// foldHook, when non-nil, sees every folded epoch's result (test
	// hook: the session keeps only each shard's latest).
	foldHook func(key string, res *campaign.Result)

	shards []*shard
	wg     sync.WaitGroup // shard loops
	bgWG   sync.WaitGroup // intake + http serve
	// stopCh closes when Stop begins; it is every epoch's
	// campaign.Config.Stop, so running epochs end before their next
	// draw.
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
		queue:    make(chan submission, c.QueueCap),
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
	t0 := time.Now() //detlint:ok lock histograms are reporting-only
	m.mu.Lock()
	held := time.Now() //detlint:ok lock histograms are reporting-only
	m.lockWait.Observe(held.Sub(t0).Nanoseconds())
	return func() {
		m.lockHold.Observe(time.Since(held).Nanoseconds()) //detlint:ok lock histograms are reporting-only
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

// Start loads (or initialises) the data directory and launches the
// shards, each at its state.json frontier epoch, the intake worker and
// the HTTP server.
func (m *Manager) Start() error {
	if m.started {
		return fmt.Errorf("service: manager already started")
	}
	m.started = true
	if m.cfg.DataDir == "" {
		return fmt.Errorf("service: DataDir is required")
	}
	for _, dir := range []string{m.cfg.DataDir, m.corpusDir()} {
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

	if err := m.loadState(); err != nil {
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
		for i, run := range seedsel.RunSeeds(m.submitted, jvm.HotSpot9()) {
			idx.AddSeed(m.submitted[i], run)
		}
		m.seedIndex = idx
		m.clusterDiscs = make([]int64, idx.Clusters())
		m.clusterDemoted = make([]bool, idx.Clusters())
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

	m.shards = make([]*shard, m.cfg.Shards)
	for i := 0; i < m.cfg.Shards; i++ {
		sh := &shard{id: i, m: m, epoch: m.shardEpochs[i], state: "starting"}
		m.shards[i] = sh
		m.wg.Add(1)
		go m.runShard(sh)
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
// down, every running shard epoch stops at a draw boundary without
// folding, queued-but-unprocessed seeds are adopted into the
// corpus, and state.json persists. A subsequent Start on the same data
// directory runs the stopped epochs again from iteration 0, so the
// folds across both lifetimes are byte-identical to an uninterrupted
// daemon's.
func (m *Manager) Stop(ctx context.Context) error {
	var firstErr error
	m.stopOnce.Do(func() {
		m.stopping.Store(true)
		if m.httpSrv != nil {
			if err := m.httpSrv.Shutdown(ctx); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		close(m.stopCh)
		m.wg.Wait()
		m.bgWG.Wait()

		// Adopt any seeds still queued (the intake worker is gone);
		// they persist now and enter epochs after the restart.
		for {
			select {
			case sub := <-m.queue:
				m.acceptSeed(sub)
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

// loadState reads state.json (absent in a fresh directory), validates
// it against the configuration, lifts the corpus and loads the
// discrepancy journal up to the state's frontier.
func (m *Manager) loadState() error {
	var st State
	err := readJSON(m.statePath(), &st)
	switch {
	case os.IsNotExist(err):
		// A fresh directory: no corpus, every frontier at 0.
	case err != nil:
		return err
	default:
		if err := m.validateState(&st); err != nil {
			return err
		}
	}
	copy(m.shardEpochs, st.ShardEpochs)
	for _, name := range st.Submitted {
		data, err := os.ReadFile(filepath.Join(m.corpusDir(), name))
		if err != nil {
			return fmt.Errorf("service: corpus file %s named by state.json: %w", name, err)
		}
		c, err := liftSeed(data)
		if err != nil {
			return fmt.Errorf("service: corpus file %s: %w", name, err)
		}
		m.submitted = append(m.submitted, c)
	}
	return m.loadJournal(st.NextDiscrepancy)
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

// acceptSeed persists one queued submission, which handleSeeds has
// already lifted, and makes it visible to future epochs.
// Persist-before-visibility: the corpus file and the state.json naming
// it hit disk inside the same critical section that appends to the
// in-memory corpus, so no epoch can start on a seed a restart would not
// reload.
func (m *Manager) acceptSeed(sub submission) {
	unlock := m.lockTimed()
	defer unlock()
	name := submittedName(len(m.submitted))
	if err := os.WriteFile(filepath.Join(m.corpusDir(), name), sub.data, 0o644); err != nil {
		m.logf("intake: persisting %s: %v", name, err)
		return
	}
	m.submitted = append(m.submitted, sub.class)
	m.flat = nil
	if err := m.persistLocked(); err != nil {
		m.logf("intake: %v", err)
	}
	if m.seedIndex != nil {
		sc := m.seedIndex.AddSeed(sub.class, sub.run)
		m.logf("intake: %s classified into cluster %d (fp %016x)", name, sc.Cluster, sc.Fingerprint)
	}
	m.tel.Counter(MetricSeedsAccepted).Inc()
	m.logf("intake: adopted %s (%d submitted seeds)", name, len(m.submitted))
}

// intake is the single consumer of the submission queue.
func (m *Manager) intake() {
	defer m.bgWG.Done()
	for {
		select {
		case <-m.stopCh:
			return
		case sub := <-m.queue:
			if m.intakeGate != nil {
				select {
				case <-m.intakeGate:
				case <-m.stopCh:
					// Put it back for Stop's drain to adopt.
					m.queue <- sub
					return
				}
			}
			m.acceptSeed(sub)
			m.tel.Gauge(MetricQueueDepth).Set(int64(len(m.queue)))
		}
	}
}

// --- shard epochs -----------------------------------------------------------

// shardKey names a fold.
func shardKey(shard, epoch int) string { return fmt.Sprintf("shard%d/epoch%d", shard, epoch) }

// epochSeed derives the campaign seed for (shard, epoch) from the
// daemon seed: distinct streams per slot, reproducible forever.
func (m *Manager) epochSeed(shard, epoch int) int64 {
	return prng.Mix(m.cfg.Seed, campaignStream, uint64(shard)<<32|uint64(uint32(epoch)))
}

// epochSource returns one epoch's SeedSource over the base seeds and
// every submission adopted so far, and how many that is: a Fork of the
// intake index (a scheduler serves exactly one engine run), or the
// flat-uniform adapter every epoch on this corpus version shares.
// Either carries its seeds' baselines: the epoch runs no seed pass.
func (m *Manager) epochSource(reg *telemetry.Registry) (campaign.SeedSource, *seedsel.Scheduler, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	used := len(m.submitted)
	if m.seedIndex != nil {
		sched := m.seedIndex.Fork(len(m.baseSeeds)+used, reg)
		return sched, sched, used
	}
	if m.flat == nil {
		m.flat = campaign.FlatSeeds(append(slices.Clip(m.baseSeeds), m.submitted...))
	}
	return m.flat, nil, used
}

// campaignConfig shapes one epoch's engine run. Its Stop is the
// manager's stopCh, so a drain ends the epoch at a draw boundary.
func (m *Manager) campaignConfig(sh *shard, epoch int, src campaign.SeedSource, reg *telemetry.Registry) campaign.Config {
	return campaign.Config{
		Algorithm:       m.cfg.Algorithm,
		Criterion:       m.cfg.Criterion,
		Source:          src,
		Iterations:      m.cfg.Iterations,
		Rand:            m.epochSeed(sh.id, epoch),
		RefSpec:         jvm.HotSpot9(),
		StaticPrefilter: true,
		Workers:         m.cfg.Workers,
		Stop:            m.stopCh,
		Telemetry:       reg,
	}
}

// runShard is a shard's epoch loop, from the shard's state.json
// frontier. Each epoch is a fresh campaign over the corpus as of its
// start; one a drain stops is not folded, and the restart runs it again
// from iteration 0.
func (m *Manager) runShard(sh *shard) {
	defer m.wg.Done()
	for epoch := sh.epoch; m.cfg.Epochs <= 0 || epoch < m.cfg.Epochs; epoch++ {
		if m.stopping.Load() {
			sh.setState("stopped")
			return
		}
		reg := telemetry.New()
		src, sched, used := m.epochSource(reg)
		sh.beginEpoch(epoch, used, reg)
		res, err := campaign.Run(m.campaignConfig(sh, epoch, src, reg))
		sh.endEpoch()
		if err != nil {
			m.logf("shard %d epoch %d: %v", sh.id, epoch, err)
			sh.setState("failed")
			return
		}
		if res.Stopped {
			m.logf("shard %d: epoch %d stopped at iteration %d/%d; it runs again after a restart", sh.id, epoch, res.Drawn, m.cfg.Iterations)
			sh.setState("stopped")
			return
		}
		m.foldEpoch(sh, epoch, res, reg, sched)
		sh.advance()
	}
	sh.setState("done")
}

// foldEpoch absorbs one completed epoch: session fold, differential
// testing of the accepted suite (one sequential Evaluate on a session
// Runner), discrepancy log append (each discrepancy credited to the
// seed cluster its lineage's root seed belongs to), the clusters'
// demotion flags, state-frontier advance and persist. The session fold
// merges the epoch's per-cluster draw, yield and demotion counters.
func (m *Manager) foldEpoch(sh *shard, epoch int, res *campaign.Result, reg *telemetry.Registry, sched *seedsel.Scheduler) {
	key := shardKey(sh.id, epoch)
	m.session.foldReplacing(key, shardKey(sh.id, epoch-1), res, reg)
	if m.foldHook != nil {
		m.foldHook(key, res)
	}
	m.tel.Counter(MetricEpochsCompleted).Inc()

	classes := make([][]byte, len(res.Test))
	for i, g := range res.Test {
		classes[i] = g.Data
	}
	sum := m.session.Runner().Evaluate(classes, difftest.Options{})
	var found []Discrepancy
	for i, g := range res.Test {
		v := sum.Vectors[i]
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
		for k, o := range v.Outcomes {
			d.Outcomes = append(d.Outcomes, fmt.Sprintf("%s: %s", sum.VMNames[k], o))
		}
		found = append(found, d)
	}

	unlock := m.lockTimed()
	if sched != nil {
		for i, cs := range sched.ClusterStats() {
			m.clusterDemoted[i] = cs.Demoted
		}
		for i := range found {
			if ci := sched.ClusterOf(campaign.RootSeed(res.Draws, found[i].Iteration)); ci >= 0 {
				found[i].Cluster = ci
				m.clusterDiscs[ci]++
			}
		}
	}
	m.commitLocked(found)
	m.shardEpochs[sh.id] = epoch + 1
	if err := m.persistLocked(); err != nil {
		m.logf("fold: %v", err)
	}
	unlock()
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

// Checkpoint rewrites state.json under the lock and returns the shard
// frontiers it recorded. Running epochs are not saved: an epoch is
// durable once it folds, and one cut short runs again after a restart.
func (m *Manager) Checkpoint() ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal == nil {
		// Not started, or stopped: the data directory is not ours.
		return nil, fmt.Errorf("service: checkpoint: daemon not running")
	}
	if err := m.persistLocked(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	m.tel.Counter(MetricCheckpointsWritten).Inc()
	return append([]int(nil), m.shardEpochs...), nil
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
	// scheduling outcomes summed over folded epochs.
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
		// A snapshot, not Registry.Counter: reading registers no name.
		snap := m.tel.Snapshot()
		for i, cs := range m.seedIndex.ClusterStats() {
			st.SeedClusters = append(st.SeedClusters, ClusterStatus{
				Cluster:       i,
				Seeds:         cs.Seeds,
				Draws:         snap.Counter(seedsel.ClusterMetric(i, "draws")),
				Yield:         snap.Counter(seedsel.ClusterMetric(i, "yield")),
				Demotions:     snap.Counter(seedsel.ClusterMetric(i, "demotions")),
				Discrepancies: m.clusterDiscs[i],
				Demoted:       m.clusterDemoted[i],
			})
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
