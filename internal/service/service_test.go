package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
)

var update = flag.Bool("update", false, "rewrite the kill-resume golden")

// testConfig is a small bounded daemon: 2 shards × 2 epochs.
func testConfig(t testing.TB, workers int) Config {
	t.Helper()
	return Config{
		DataDir:    t.TempDir(),
		Shards:     2,
		Workers:    workers,
		Algorithm:  campaign.Classfuzz,
		Criterion:  coverage.STBR,
		SeedCount:  12,
		Seed:       5,
		Iterations: 60,
		Epochs:     2,
		QueueCap:   4,
	}
}

// runToCompletion starts a manager, waits for the epoch budget and
// stops it, returning every fold it made.
func runToCompletion(t *testing.T, cfg Config) (map[string]foldSummary, *Manager) {
	t.Helper()
	m := New(cfg)
	folds := recordFolds(m)
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	m.Wait()
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}
	return folds.get(), m
}

// foldSummary reduces a folded epoch to comparable facts: the accepted
// test names and bytes, the draw log length, the generated count,
// whether the epoch ran its whole budget, and a digest of the whole
// result.
type foldSummary struct {
	TestNames []string
	TestBytes [][]byte
	Draws     int
	GenCount  int
	Drawn     int
	Stopped   bool
	Digest    string
}

func summarize(res *campaign.Result) foldSummary {
	fs := foldSummary{Draws: len(res.Draws), GenCount: len(res.Gen), Drawn: res.Drawn, Stopped: res.Stopped}
	for _, g := range res.Test {
		fs.TestNames = append(fs.TestNames, g.Name)
		fs.TestBytes = append(fs.TestBytes, g.Data)
	}
	fs.Digest = resultDigest(res)
	return fs
}

// resultDigest hashes every field of res the determinism contract
// covers: each generated class (name, bytes, mutator, coverage stats,
// acceptance), the draw log, the mutator and prefilter statistics and
// the merged coverage. Elapsed and Workers are left out.
func resultDigest(res *campaign.Result) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, g := range res.Gen {
		enc.Encode(g)
	}
	var cov coverage.Stats
	if res.Coverage != nil {
		cov = res.Coverage.Stats()
	}
	enc.Encode([]any{len(res.Test), res.GenUniqueStats, res.Prefilter, res.MutatorStats, res.Draws, cov, res.Drawn, res.Stopped})
	for _, g := range res.Test {
		fmt.Fprintf(h, "%s\n", g.Name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// foldLog records every epoch a manager folds, keyed like the session;
// the session itself keeps only each shard's latest. first closes at
// the first fold.
type foldLog struct {
	mu    sync.Mutex
	folds map[string]foldSummary
	first chan struct{}
}

// recordFolds hooks a foldLog into m; call it before Start.
func recordFolds(m *Manager) *foldLog {
	l := &foldLog{folds: map[string]foldSummary{}, first: make(chan struct{})}
	m.foldHook = func(key string, res *campaign.Result) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if len(l.folds) == 0 {
			close(l.first)
		}
		l.folds[key] = summarize(res)
	}
	return l
}

func (l *foldLog) get() map[string]foldSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]foldSummary, len(l.folds))
	for k, v := range l.folds {
		out[k] = v
	}
	return out
}

// discSet reduces the discrepancy log to its deterministic identity
// (IDs are arrival-ordered and may differ between runs).
func discSet(ds []Discrepancy) []string {
	keys := make([]string, 0, len(ds))
	for _, d := range ds {
		keys = append(keys, fmt.Sprintf("s%d/e%d/i%d/%s/%016x/%s/c%d", d.Shard, d.Epoch, d.Iteration, d.Class, d.Fingerprint, d.Vector, d.Cluster))
	}
	sort.Strings(keys)
	return keys
}

// unionSummaries merges per-run fold summaries. An epoch folds in
// exactly one daemon lifetime (the frontier advances with the fold),
// so overlapping keys are a protocol violation.
func unionSummaries(t *testing.T, runs ...map[string]foldSummary) map[string]foldSummary {
	t.Helper()
	out := map[string]foldSummary{}
	for _, run := range runs {
		for key, fs := range run {
			if _, dup := out[key]; dup {
				t.Fatalf("epoch %s folded in two daemon lifetimes", key)
			}
			out[key] = fs
		}
	}
	return out
}

// TestDaemonKillResumeDeterminism is the service-level acceptance
// test: a daemon stopped mid-flight (the drain stops running epochs
// without folding them) and restarted on the same data directory must
// produce, across both lifetimes, the exact folds an uninterrupted
// daemon produces — per-epoch accepted suites byte-identical,
// discrepancy sets equal — at worker counts 1 and 4, under every seed
// strategy. Every epoch the first lifetime did not fold, the second
// runs whole from iteration 0. The clustered and yield daemons start
// on a data directory holding one submitted seed, so their epochs draw
// from a corpus that outgrew the generated one. Each strategy's epoch
// digests, discrepancy set, /api/status cluster table and intake
// classification must match testdata/killresume_golden.json.
// Regenerate with: go test ./internal/service -run KillResume -update
func TestDaemonKillResumeDeterminism(t *testing.T) {
	golden := map[string]strategyGolden{}
	if !*update {
		if err := readJSON(killResumeGolden, &golden); err != nil {
			t.Fatalf("read golden (run with -update to create): %v", err)
		}
	}
	var mu sync.Mutex
	t.Cleanup(func() {
		if *update && !t.Failed() {
			if err := writeJSONAtomic(killResumeGolden, golden); err != nil {
				t.Error(err)
			}
		}
	})
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			for _, strategy := range []string{"uniform", "clustered", "yield"} {
				t.Run(strategy, func(t *testing.T) {
					t.Parallel()
					newConfig := func() Config {
						cfg := testConfig(t, workers)
						cfg.SeedStrategy = strategy
						if strategy != "uniform" {
							seedDataDir(t, cfg, submittedSeedBytes(t))
						}
						return cfg
					}
					want, wm := runToCompletion(t, newConfig())

					// Interrupted run: start, drain as the first epoch folds, then
					// restart the same data directory and run to completion. Every
					// fold of the first lifetime waits for the drain, so no shard
					// starts its second epoch before it and the restart always has
					// an epoch to run.
					cfg := newConfig()
					m1 := New(cfg)
					life1 := recordFolds(m1)
					record := m1.foldHook
					m1.foldHook = func(key string, res *campaign.Result) {
						record(key, res)
						<-m1.stopCh
					}
					if err := m1.Start(); err != nil {
						t.Fatalf("start: %v", err)
					}
					<-life1.first
					if err := m1.Stop(context.Background()); err != nil {
						t.Fatalf("drain: %v", err)
					}
					if _, err := os.Stat(filepath.Join(cfg.DataDir, "checkpoints")); !os.IsNotExist(err) {
						t.Fatalf("the drain left a checkpoints/ directory (stat: %v)", err)
					}

					m2 := New(cfg)
					life2 := recordFolds(m2)
					if err := m2.Start(); err != nil {
						t.Fatalf("restart: %v", err)
					}
					m2.Wait()
					if err := m2.Stop(context.Background()); err != nil {
						t.Fatalf("final stop: %v", err)
					}

					got := unionSummaries(t, life1.get(), life2.get())
					if !reflect.DeepEqual(got, want) {
						t.Fatal("interrupted+restarted folds diverge from the uninterrupted run")
					}
					// The discrepancy log persists in discrepancies.jsonl, so the
					// final daemon's view covers both lifetimes.
					if !reflect.DeepEqual(discSet(m2.Discrepancies(0)), discSet(wm.Discrepancies(0))) {
						t.Fatal("restarted daemon discrepancy set diverges from uninterrupted run")
					}
					// Every epoch life 1 did not fold, life 2 ran whole.
					if len(life2.get()) == 0 {
						t.Fatal("the drain cut no epoch short")
					}
					for key, fs := range life2.get() {
						if fs.Drawn != cfg.Iterations || fs.Stopped {
							t.Errorf("%s folded after the restart with Drawn %d of %d, Stopped %v", key, fs.Drawn, cfg.Iterations, fs.Stopped)
						}
					}

					g := strategyGolden{
						Epochs:        map[string]string{},
						Discrepancies: discSet(wm.Discrepancies(0)),
						SeedClusters:  wm.Status().SeedClusters,
					}
					for key, fs := range want {
						g.Epochs[key] = fs.Digest
					}
					if strategy != "uniform" {
						g.Intake = intakeClassification(t, newConfig())
					}
					mu.Lock()
					defer mu.Unlock()
					if *update {
						golden[strategy] = g
						return
					}
					if w := golden[strategy]; !reflect.DeepEqual(g, w) {
						gb, _ := json.MarshalIndent(g, "", " ")
						wb, _ := json.MarshalIndent(w, "", " ")
						t.Fatalf("%s daemon diverges from the golden:\n got %s\nwant %s", strategy, gb, wb)
					}
				})
			}
		})
	}
}

// killResumeGolden pins TestDaemonKillResumeDeterminism's daemons.
const killResumeGolden = "testdata/killresume_golden.json"

// strategyGolden is one seed strategy's pinned daemon output: each
// folded epoch's result digest, the discrepancy set, the final
// /api/status cluster table and the 202 answer to a submission.
type strategyGolden struct {
	Epochs        map[string]string `json:"epochs"`
	Discrepancies []string          `json:"discrepancies"`
	SeedClusters  []ClusterStatus   `json:"seed_clusters,omitempty"`
	Intake        map[string]any    `json:"intake,omitempty"`
}

// submittedSeedBytes is the classfile the strategy tests submit.
func submittedSeedBytes(t testing.TB) []byte {
	t.Helper()
	files, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 99))
	if err != nil {
		t.Fatal(err)
	}
	return files[0]
}

// seedDataDir leaves cfg.DataDir as a daemon that adopted data as its
// only submission, and folded nothing, would leave it.
func seedDataDir(t *testing.T, cfg Config, data []byte) {
	t.Helper()
	corpus := filepath.Join(cfg.DataDir, "corpus")
	if err := os.MkdirAll(corpus, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corpus, submittedName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := &State{
		Version:      StateVersion,
		Algorithm:    string(cfg.Algorithm),
		Criterion:    int(cfg.Criterion),
		Seed:         cfg.Seed,
		SeedCount:    cfg.SeedCount,
		Iterations:   cfg.Iterations,
		Shards:       cfg.Shards,
		SeedStrategy: cfg.SeedStrategy,
		Submitted:    []string{submittedName(0)},
		ShardEpochs:  make([]int, cfg.Shards),
	}
	if err := writeJSONAtomic(filepath.Join(cfg.DataDir, "state.json"), st); err != nil {
		t.Fatal(err)
	}
}

// intakeClassification posts submittedSeedBytes to an unstarted
// manager under cfg's strategy and returns the 202 body.
func intakeClassification(t *testing.T, cfg Config) map[string]any {
	t.Helper()
	m := intakeManager(t, cfg)
	rec := httptest.NewRecorder()
	m.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/seeds", bytes.NewReader(submittedSeedBytes(t))))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submission: got %d (%s), want 202", rec.Code, rec.Body)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSeedSubmissionAPI drives the corpus API end to end: a valid
// classfile is adopted and persisted, malformed bytes get 400, a held
// intake queue overflows into 429, and released seeds drain.
func TestSeedSubmissionAPI(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Addr = "127.0.0.1:0"
	cfg.Epochs = 0 // stay alive until stopped
	cfg.Iterations = 2000
	cfg.QueueCap = 2
	m := New(cfg)
	gate := make(chan struct{})
	m.intakeGate = gate
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer m.Stop(context.Background())
	base := "http://" + m.Addr()

	// A liftable classfile to submit.
	seedBytes, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 99))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) int {
		resp, err := http.Post(base+"/api/seeds", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post([]byte("\xca\xfe\xba\xbenope")); code != http.StatusBadRequest {
		t.Fatalf("malformed submission: got %d, want 400", code)
	}
	// With the intake worker gated, cap+1 submissions fill the queue
	// (the worker may hold one extra in hand) and the next must 429.
	overflowed := false
	for i := 0; i < cfg.QueueCap+2; i++ {
		if post(seedBytes[0]) == http.StatusTooManyRequests {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatalf("queue of cap %d never answered 429 while intake was held", cfg.QueueCap)
	}
	close(gate) // release the intake worker

	deadline := time.After(5 * time.Second)
	for m.Status().Submitted == 0 {
		select {
		case <-deadline:
			t.Fatal("released queue never drained into the corpus")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if _, err := os.Stat(filepath.Join(m.corpusDir(), "sub00000.class")); err != nil {
		t.Fatalf("adopted seed not persisted: %v", err)
	}

	// Status reflects the adoption; discrepancy listing answers.
	resp, err := http.Get(base + "/api/status")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %v (%v)", err, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The API checkpoint rewrites state.json and answers the shard
	// frontiers it holds; no checkpoints/ directory appears.
	cresp, err := http.Post(base+"/api/checkpoint", "", nil)
	if err != nil || cresp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %v (%v)", err, cresp)
	}
	var ckpt struct {
		ShardEpochs []int `json:"shard_epochs"`
	}
	err = json.NewDecoder(cresp.Body).Decode(&ckpt)
	cresp.Body.Close()
	if err != nil || len(ckpt.ShardEpochs) != cfg.Shards {
		t.Fatalf("checkpoint answered %+v (%v), want %d shard frontiers", ckpt, err, cfg.Shards)
	}
	if n := m.Session().Telemetry.Snapshot().Counter(MetricCheckpointsWritten); n != 1 {
		t.Fatalf("%s = %d after one checkpoint request", MetricCheckpointsWritten, n)
	}
	var st State
	if err := readJSON(m.statePath(), &st); err != nil || len(st.Submitted) == 0 {
		t.Fatalf("state.json after the checkpoint lists %d submissions (%v), want the adopted ones", len(st.Submitted), err)
	}

	// Graceful drain: intake 503s, the listener closes, restart lifts
	// the adopted seed.
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still answering after Stop")
	}
	if _, err := os.Stat(filepath.Join(cfg.DataDir, "checkpoints")); !os.IsNotExist(err) {
		t.Fatalf("the daemon made a checkpoints/ directory (stat: %v)", err)
	}

	m2 := New(cfg)
	if err := m2.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer m2.Stop(context.Background())
	if got := m2.Status().Submitted; got < 1 {
		t.Fatalf("restart lifted %d submitted seeds, want >= 1", got)
	}
	// Each shard runs the epoch at its state.json frontier.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		m2.mu.Lock()
		frontiers := append([]int(nil), m2.shardEpochs...)
		m2.mu.Unlock()
		st := m2.Status()
		running := 0
		for i, sh := range st.Shards {
			if sh.State == "running" && sh.Epoch == frontiers[i] {
				running++
			}
		}
		if running == cfg.Shards {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted shards %+v never all ran their frontier epochs %v", st.Shards, frontiers)
		}
	}
}

// TestSeedStrategyService drives a clustered daemon end to end: the
// intake API classifies a submitted seed (fingerprint, trace key,
// cluster), /api/status carries the strategy and the per-cluster seed
// table, and the data directory refuses a restart under a different
// strategy.
func TestSeedStrategyService(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Addr = "127.0.0.1:0"
	cfg.SeedStrategy = "clustered"
	cfg.Epochs = 0 // stay alive until stopped
	cfg.Iterations = 2000
	m := New(cfg)
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer m.Stop(context.Background())
	base := "http://" + m.Addr()

	seedBytes, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 99))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/api/seeds", "application/octet-stream", bytes.NewReader(seedBytes[0]))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission: got %d (%s), want 202", resp.StatusCode, body)
	}
	var sub struct {
		Status      string `json:"status"`
		Fingerprint string `json:"fingerprint"`
		TraceKey    string `json:"trace_key"`
		Cluster     *int   `json:"cluster"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("submission body %q: %v", body, err)
	}
	if sub.Fingerprint == "" || sub.TraceKey == "" || sub.Cluster == nil {
		t.Fatalf("submission response lacks classification: %s", body)
	}
	if *sub.Cluster < 0 {
		t.Fatalf("submitted seed assigned cluster %d", *sub.Cluster)
	}

	sresp, err := http.Get(base + "/api/status")
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("status: %v (%v)", err, sresp)
	}
	var st Status
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	sresp.Body.Close()
	if st.SeedStrategy != "clustered" {
		t.Fatalf("status strategy %q, want clustered", st.SeedStrategy)
	}
	if len(st.SeedClusters) == 0 {
		t.Fatal("status carries no seed-cluster table under the clustered strategy")
	}
	seedsTotal := 0
	for _, row := range st.SeedClusters {
		seedsTotal += row.Seeds
	}
	if seedsTotal < cfg.SeedCount {
		t.Fatalf("cluster table covers %d seeds, corpus has at least %d", seedsTotal, cfg.SeedCount)
	}
	if *sub.Cluster >= len(st.SeedClusters) {
		t.Fatalf("submission cluster %d outside table of %d", *sub.Cluster, len(st.SeedClusters))
	}

	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}
	flipped := cfg
	flipped.SeedStrategy = "yield"
	m2 := New(flipped)
	if err := m2.Start(); err == nil {
		m2.Stop(context.Background())
		t.Fatal("restart under a different seed strategy was accepted")
	}
}

// TestSubmittedSeedsEnterEpochs pins the corpus-pinning rule: an
// epoch started after an adoption includes the submitted seed, and the
// resulting campaigns remain valid folds.
func TestSubmittedSeedsEnterEpochs(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Shards = 1
	cfg.Epochs = 2
	cfg.Iterations = 40

	// Pre-seed the data dir with one submission by writing through a
	// live manager's queue before the first epoch can finish.
	m := New(cfg)
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	files, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	c, err := liftSeed(files[0])
	if err != nil {
		t.Fatal(err)
	}
	m.queue <- submission{data: files[0], class: c}
	m.Wait()
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}

	for key, res := range m.Session().Campaigns {
		if n := len(res.Draws); n != cfg.Iterations {
			t.Fatalf("%s: %d draws, want %d", key, n, cfg.Iterations)
		}
	}
	if subs := m.Status().Submitted; subs != 1 {
		t.Fatalf("adopted %d seeds, want 1", subs)
	}

	// A restart on the same data dir lifts the submission, and the
	// next epoch's corpus is base + submitted, in arrival order.
	m2 := New(cfg)
	if err := m2.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer m2.Stop(context.Background())
	src, used := m2.epochSource(nil)
	if seeds := src.Corpus(); used != 1 || len(seeds) != cfg.SeedCount+1 || seeds[cfg.SeedCount].Name != c.Name {
		t.Fatalf("epoch corpus of %d seeds with %d submitted, want %d ending in %s", len(seeds), used, cfg.SeedCount+1, c.Name)
	}
}

// TestUniformEpochsShareSeedPass: under every strategy the daemon keeps
// one seed pass for its lifetime. Adoption appends a seed to it, so
// the grown corpus's source hands out the very traces the first
// epochs' source did for the base seeds, and the newcomer's trace is
// its own seed run. Each seed runs once: under uniform none runs in
// Start, in the HTTP handler or at adoption, only in the first epoch
// that covers it; under a scheduling strategy the handler's run is the
// one the pass keeps, and counts once adoption keeps it. A restart runs
// base plus submitted seeds once.
func TestUniformEpochsShareSeedPass(t *testing.T) {
	files, err := seedgen.GenerateFiles(seedgen.DefaultOptions(2, 42))
	if err != nil {
		t.Fatal(err)
	}
	var subs []*jimple.Class
	for _, data := range files {
		c, err := liftSeed(data)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, c)
	}
	want := seedsel.Traces(seedsel.RunSeeds(subs, jvm.HotSpot9()))
	for _, strategy := range []seedsel.Strategy{seedsel.Uniform, seedsel.Clustered, seedsel.Yield} {
		t.Run(string(strategy), func(t *testing.T) {
			cfg := testConfig(t, 1)
			cfg.Iterations = 40
			cfg.SeedStrategy = string(strategy)
			base, k := cfg.SeedCount, len(subs)
			// /metrics.json shows where the seed pass went.
			checkRuns := func(m *Manager, want int, when string) {
				t.Helper()
				snap := m.liveSnapshot()
				if n := snap.Counter("seedsel.seeds_run"); n != int64(want) {
					t.Fatalf("%s: %d seed runs, want %d", when, n, want)
				}
				if want > 0 && snap.Hist("seedsel.baselines_ns").Count == 0 {
					t.Fatalf("%s: %d seed runs, none timed", when, want)
				}
			}
			// A scheduling strategy runs each seed as Start or the
			// handler classifies it; uniform runs none there.
			atAdoption, atRestart := base, 0
			if strategy != seedsel.Uniform {
				atAdoption, atRestart = base+k, base+k
			}

			m := New(cfg)
			gate := make(chan struct{})
			m.intakeGate = gate
			if err := m.Start(); err != nil {
				t.Fatalf("start: %v", err)
			}
			defer m.Stop(context.Background())
			m.Wait()
			first, _ := m.epochSource(nil)
			if n := len(first.ClusterStats()); (n == 0) != (strategy == seedsel.Uniform) {
				t.Fatalf("epoch source with %d clusters under %s", n, strategy)
			}
			own := first.Baselines(jvm.HotSpot9())
			checkRuns(m, base, "after the first epochs")
			h := m.handler()
			for _, data := range files {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/seeds", bytes.NewReader(data)))
				if rec.Code != http.StatusAccepted {
					t.Fatalf("seed submission: %d %s", rec.Code, rec.Body)
				}
			}
			checkRuns(m, base, "after intake, before adoption")
			close(gate)
			deadline := time.After(5 * time.Second)
			for m.Status().Submitted < k {
				select {
				case <-deadline:
					t.Fatal("the submissions were never adopted")
				case <-time.After(5 * time.Millisecond):
				}
			}
			checkRuns(m, atAdoption, "after adoption")
			grown, used := m.epochSource(nil)
			traces := grown.Baselines(jvm.HotSpot9())
			if used != k || len(traces) != base+k {
				t.Fatalf("after adoption: %d submitted, %d baselines", used, len(traces))
			}
			for i := range own {
				if traces[i] != own[i] {
					t.Fatalf("base seed %d: the grown corpus's source ran it again", i)
				}
			}
			for j, tr := range traces[base:] {
				if tr == nil || tr.Key() != want[j].Key() || !tr.EqualSets(want[j]) {
					t.Fatalf("submission %d: its baseline is not its seed run", j)
				}
			}
			checkRuns(m, base+k, "after the grown corpus's baselines")
			if err := m.Stop(context.Background()); err != nil {
				t.Fatalf("stop: %v", err)
			}

			m2 := New(cfg)
			if err := m2.Start(); err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer m2.Stop(context.Background())
			m2.Wait()
			checkRuns(m2, atRestart, "after the restart")
			src, _ := m2.epochSource(nil)
			src.Baselines(jvm.HotSpot9())
			checkRuns(m2, base+k, "after the restart's baselines")
		})
	}
}

// TestStateValidation: a data directory refuses a mismatched config.
func TestStateValidation(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Shards = 1
	cfg.Epochs = 1
	cfg.Iterations = 20
	runToCompletion(t, cfg)

	bad := cfg
	bad.Seed = 6
	m := New(bad)
	if err := m.Start(); err == nil {
		m.Stop(context.Background())
		t.Fatal("mismatched seed accepted against existing data dir")
	}

	bad = cfg
	bad.Iterations = 21
	m = New(bad)
	if err := m.Start(); err == nil {
		m.Stop(context.Background())
		t.Fatal("mismatched iteration budget accepted against existing data dir")
	}

	// Each case edits one field of the good state.json, and Start must
	// refuse it with the named error.
	statePath := filepath.Join(cfg.DataDir, "state.json")
	good, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	seedBytes, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 99))
	if err != nil {
		t.Fatal(err)
	}
	corpus := filepath.Join(cfg.DataDir, "corpus")
	if err := os.MkdirAll(corpus, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corpus, "sub00001.class"), seedBytes[0], 0o644); err != nil {
		t.Fatal(err)
	}
	refuse := func(what string, edit func(st map[string]any), want string) {
		t.Helper()
		var st map[string]any
		if err := json.Unmarshal(good, &st); err != nil {
			t.Fatal(err)
		}
		edit(st)
		if err := writeJSONAtomic(statePath, st); err != nil {
			t.Fatal(err)
		}
		m := New(cfg)
		err := m.Start()
		if err == nil {
			m.Stop(context.Background())
			t.Errorf("%s accepted", what)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s refused with %q, want %q", what, err, want)
		}
	}
	// A version-1 state.json, which carried the discrepancy log inline,
	// is refused: there is no migration path.
	refuse("version-1 state.json", func(st map[string]any) {
		st["version"] = 1
		st["discrepancies"] = []any{}
	}, "state version 1")
	// A negative frontier would resume the shard at an epoch no run
	// ever reached: a silently different campaign.
	refuse("a negative shard frontier", func(st map[string]any) {
		st["shard_epochs"] = []any{-3}
	}, "negative epoch frontier -3")
	// Corpus names are not paths: one that leaves corpus/ is refused
	// before anything is read.
	refuse("a corpus name outside corpus/", func(st map[string]any) {
		st["submitted"] = []any{"../state.json"}
	}, `"../state.json" at position 0`)
	// A real class file at the wrong position is refused too: the next
	// intake, named by position, would overwrite it.
	refuse("an out-of-position corpus name", func(st map[string]any) {
		st["submitted"] = []any{"sub00001.class"}
	}, `"sub00001.class" at position 0`)
}

// Two daemons must never share a data directory: each rewrites
// state.json from its own in-memory view and would silently clobber
// the other's corpus and frontiers. The flock guards it, and kernel
// release-on-exit means a crashed daemon never wedges the directory.
func TestDataDirLock(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Epochs = 0 // run until stopped
	m1 := New(cfg)
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	m2 := New(cfg)
	if err := m2.Start(); err == nil {
		m2.Stop(context.Background())
		m1.Stop(context.Background())
		t.Fatal("second daemon acquired an already-locked data dir")
	} else if !strings.Contains(err.Error(), "locked") {
		t.Fatalf("want lock error, got: %v", err)
	}
	if err := m1.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Stop released the lock; the directory is usable again.
	m3 := New(cfg)
	if err := m3.Start(); err != nil {
		t.Fatalf("restart after Stop: %v", err)
	}
	if err := m3.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLeftoverMemoFileIgnored: the daemon keeps its memos in memory
// only and saves no running epoch, so a memo.json or a
// checkpoints/shard-0.json in the data directory — torn by a kill, or
// written by an older build — is neither read nor rewritten. The
// daemon starts on them and runs to the folds and discrepancy log of a
// clean directory, which itself never gains either file.
func TestLeftoverMemoFileIgnored(t *testing.T) {
	clean := testConfig(t, 1)
	want, wm := runToCompletion(t, clean)
	for _, name := range []string{"memo.json", "checkpoints"} {
		if _, err := os.Stat(filepath.Join(clean.DataDir, name)); !os.IsNotExist(err) {
			t.Fatalf("clean data dir gained %s (stat: %v)", name, err)
		}
	}

	cfg := testConfig(t, 1)
	leftovers := map[string][]byte{
		"memo.json":                []byte(`{"version":1,"classes":[{"da`),
		"checkpoints/shard-0.json": []byte(`{"version":1,"shard":0,"epoch":0,"submitted_used":0,"campaign":{"version":2,"drawn":`),
	}
	for name, data := range leftovers {
		path := filepath.Join(cfg.DataDir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, gm := runToCompletion(t, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("folds diverge from a clean data dir")
	}
	if !reflect.DeepEqual(discSet(gm.Discrepancies(0)), discSet(wm.Discrepancies(0))) {
		t.Fatal("discrepancy log diverges from a clean data dir")
	}
	for name, data := range leftovers {
		if after, err := os.ReadFile(filepath.Join(cfg.DataDir, name)); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("leftover %s was touched (err %v)", name, err)
		}
	}
}

// TestSessionRunnersOwnTheirMemos pins that the session retains no
// verify verdicts: each session Runner holds a memo of its own, and a
// runner built after another has evaluated classes starts empty. The
// memo's counters still reach the session roll-up.
func TestSessionRunnersOwnTheirMemos(t *testing.T) {
	s := NewSession(nil)
	first, second := s.Runner(), s.Runner()
	if first.VerifyMemo == nil || first.VerifyMemo == second.VerifyMemo {
		t.Fatal("two session runners share a verify memo")
	}
	files, err := seedgen.GenerateFiles(seedgen.DefaultOptions(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	first.Evaluate(files, difftest.Options{})
	if first.VerifyMemo.Len() == 0 {
		t.Fatal("evaluation left the runner's memo empty")
	}
	if n := s.Runner().VerifyMemo.Len(); n != 0 {
		t.Fatalf("a fresh session runner starts with %d memoised verdicts", n)
	}
	if second.VerifyMemo.Len() != 0 {
		t.Fatal("another runner's evaluation filled this runner's memo")
	}
	if s.Telemetry.Snapshot().Counter(jvm.MetricVerifyMemoMisses) == 0 {
		t.Fatal("the runner's memo misses did not reach the session roll-up")
	}
}

// TestShardStatusCounts pins the status API's per-shard counts to the
// epoch's own campaign counters: drawn is campaign.iterations, executed
// is campaign.executions — reference-VM runs, so mutants the prefilter's
// trace cache served are not in it — and accepted is campaign.accepts.
// Between epochs status keeps reporting the last one, while
// /metrics.json counts a folded epoch once. An epoch a drain cut short
// counts again from zero after the restart.
func TestShardStatusCounts(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Shards = 1
	cfg.Epochs = 1
	cfg.Iterations = 3000

	check := func(m *Manager) {
		t.Helper()
		st := m.Status()
		if len(st.Shards) != 1 {
			t.Fatalf("status lists %d shards, want 1", len(st.Shards))
		}
		sh := st.Shards[0]
		res := m.Session().Campaigns[shardKey(0, 0)]
		if res == nil {
			t.Fatal("epoch 0 never folded")
		}
		tel := m.Session().Telemetry.Snapshot()
		live := m.liveSnapshot()
		if sh.Drawn != int64(cfg.Iterations) || live.Counter("campaign.iterations") != int64(cfg.Iterations) {
			t.Errorf("drawn %d, /metrics.json iterations %d, want %d", sh.Drawn, live.Counter("campaign.iterations"), cfg.Iterations)
		}
		if exec := tel.Counter("campaign.executions"); sh.Executed != exec {
			t.Errorf("executed %d, epoch's campaign.executions %d", sh.Executed, exec)
		}
		skipped := int64(res.Prefilter.Skipped)
		if sh.Executed+skipped != int64(len(res.Gen)) {
			t.Errorf("executed %d + cache-served %d != generated %d", sh.Executed, skipped, len(res.Gen))
		}
		if sh.Accepted != int64(len(res.Test)) {
			t.Errorf("accepted %d, epoch accepted %d tests", sh.Accepted, len(res.Test))
		}
		if st.Merges != 1 {
			t.Errorf("status merges %d, want 1", st.Merges)
		}
	}

	_, fresh := runToCompletion(t, cfg)
	check(fresh)
	if skipped := fresh.Session().Campaigns[shardKey(0, 0)].Prefilter.Skipped; skipped == 0 {
		t.Fatal("epoch too small: the prefilter's trace cache served no mutant")
	}

	// Drain mid-epoch, then run the epoch again in a second lifetime.
	cfg.DataDir = t.TempDir()
	m1 := New(cfg)
	if err := m1.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if m1.Status().Shards[0].Drawn >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never drew 100 iterations")
		}
	}
	if err := m1.Stop(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(m1.Session().Campaigns) != 0 {
		t.Fatal("epoch folded before the drain; nothing was cut short")
	}
	if sh := m1.Status().Shards[0]; sh.State != "stopped" || sh.Drawn >= int64(cfg.Iterations) {
		t.Fatalf("drained shard is %q after drawing %d of %d", sh.State, sh.Drawn, cfg.Iterations)
	}
	_, m2 := runToCompletion(t, cfg)
	check(m2)
}

// TestSessionKeepsLatestFoldPerShard: the daemon's session holds one
// result per shard, its latest epoch's, under that epoch's key, however
// many epochs have folded; telemetry still counts every fold.
func TestSessionKeepsLatestFoldPerShard(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Epochs = 4
	cfg.Iterations = 20
	folds, m := runToCompletion(t, cfg)
	if len(folds) != cfg.Shards*cfg.Epochs {
		t.Fatalf("%d epochs folded, want %d", len(folds), cfg.Shards*cfg.Epochs)
	}
	got := m.Session().Campaigns
	if len(got) != cfg.Shards {
		t.Fatalf("the session holds %d results after %d folds, want %d", len(got), len(folds), cfg.Shards)
	}
	for shard := 0; shard < cfg.Shards; shard++ {
		res := got[shardKey(shard, cfg.Epochs-1)]
		if res == nil {
			t.Fatalf("the session lacks shard %d's last epoch", shard)
		}
		if !reflect.DeepEqual(summarize(res), folds[shardKey(shard, cfg.Epochs-1)]) {
			t.Errorf("shard %d: the kept result is not its last fold", shard)
		}
	}
	if n := m.Session().Telemetry.Snapshot().Counter(MetricEpochsCompleted); n != int64(cfg.Shards*cfg.Epochs) {
		t.Errorf("%s = %d, want %d", MetricEpochsCompleted, n, cfg.Shards*cfg.Epochs)
	}
}
