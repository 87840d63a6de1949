package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/seedgen"
)

// testConfig is a small bounded daemon: 2 shards × 2 epochs.
func testConfig(t *testing.T, workers int) Config {
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
// stops it, returning the folded session.
func runToCompletion(t *testing.T, cfg Config) (*Session, *Manager) {
	t.Helper()
	m := New(cfg)
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	m.Wait()
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}
	return m.Session(), m
}

// sessionSummary reduces a session to comparable facts: per fold key,
// the accepted test names and bytes plus the draw log length.
type foldSummary struct {
	TestNames []string
	TestBytes [][]byte
	Draws     int
	GenCount  int
}

func summarize(s *Session) map[string]foldSummary {
	out := map[string]foldSummary{}
	for key, res := range s.Campaigns {
		var fs foldSummary
		for _, g := range res.Test {
			fs.TestNames = append(fs.TestNames, g.Name)
			fs.TestBytes = append(fs.TestBytes, g.Data)
		}
		fs.Draws = len(res.Draws)
		fs.GenCount = len(res.Gen)
		out[key] = fs
	}
	return out
}

// discSet reduces the discrepancy log to its deterministic identity
// (IDs are arrival-ordered and may differ between runs).
func discSet(ds []Discrepancy) []string {
	keys := make([]string, 0, len(ds))
	for _, d := range ds {
		keys = append(keys, fmt.Sprintf("s%d/e%d/%s/%s", d.Shard, d.Epoch, d.Class, d.Vector))
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
// test: a daemon stopped mid-flight (graceful drain writes shard
// checkpoints) and restarted on the same data directory must produce,
// across both lifetimes, the exact folds an uninterrupted daemon
// produces — per-epoch accepted suites byte-identical, discrepancy
// sets equal — at worker counts 1 and 4.
func TestDaemonKillResumeDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			want, wm := runToCompletion(t, testConfig(t, workers))

			// Interrupted run: start, let some work happen, drain with
			// checkpoints, then restart the same data directory and run
			// to completion.
			cfg := testConfig(t, workers)
			m1 := New(cfg)
			if err := m1.Start(); err != nil {
				t.Fatalf("start: %v", err)
			}
			time.Sleep(30 * time.Millisecond)
			if err := m1.Stop(context.Background()); err != nil {
				t.Fatalf("drain: %v", err)
			}
			// A drain that races its epoch's fold checkpoints an epoch
			// that folds anyway: the fold deletes that checkpoint, or the
			// restart drops it as stale. Every other checkpoint must
			// resume. Count them from the files themselves, before the
			// restart touches them.
			current := int64(0)
			m1.mu.Lock()
			for i := range m1.shards {
				var cp ShardCheckpoint
				if readJSON(m1.checkpointPath(i), &cp) == nil && cp.Epoch >= m1.shardEpochs[i] {
					current++
				}
			}
			m1.mu.Unlock()

			m2 := New(cfg)
			if err := m2.Start(); err != nil {
				t.Fatalf("restart: %v", err)
			}
			m2.Wait()
			if err := m2.Stop(context.Background()); err != nil {
				t.Fatalf("final stop: %v", err)
			}

			got := unionSummaries(t, summarize(m1.Session()), summarize(m2.Session()))
			if !reflect.DeepEqual(got, summarize(want)) {
				t.Fatal("interrupted+resumed folds diverge from the uninterrupted run")
			}
			// The discrepancy log persists in discrepancies.jsonl, so the
			// final daemon's view covers both lifetimes.
			if !reflect.DeepEqual(discSet(m2.Discrepancies(0)), discSet(wm.Discrepancies(0))) {
				t.Fatal("resumed daemon discrepancy set diverges from uninterrupted run")
			}
			w := m1.Session().Telemetry.Snapshot().Counter(MetricCheckpointsWritten)
			if r := m2.Session().Telemetry.Snapshot().Counter(MetricCheckpointsRestored); r != current {
				t.Fatalf("drain wrote %d checkpoints, %d for unfolded epochs, but restart restored %d", w, current, r)
			}
		})
	}
}

// TestDaemonStaleCheckpointIgnored: checkpoints whose epoch already
// folded (CheckpointNow raced the fold, or a kill landed between the
// fold's state write and the checkpoint cleanup) must be ignored on
// restart, not re-folded — the union across lifetimes still equals
// the uninterrupted run.
func TestDaemonStaleCheckpointIgnored(t *testing.T) {
	want, _ := runToCompletion(t, testConfig(t, 2))

	cfg := testConfig(t, 2)
	m1 := New(cfg)
	if err := m1.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	m1.CheckpointNow() // mid-flight snapshots that will go stale
	m1.Wait()          // every epoch folds; the snapshots are now relics
	if err := m1.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}

	m2 := New(cfg)
	if err := m2.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	m2.Wait()
	if err := m2.Stop(context.Background()); err != nil {
		t.Fatalf("final stop: %v", err)
	}
	if n := len(m2.Session().Campaigns); n != 0 {
		t.Fatalf("restart re-folded %d epochs of a completed daemon", n)
	}
	got := unionSummaries(t, summarize(m1.Session()), summarize(m2.Session()))
	if !reflect.DeepEqual(got, summarize(want)) {
		t.Fatal("completed run's folds diverge from the uninterrupted run")
	}
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
	for m.submittedCount() == 0 {
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

	// The API-triggered checkpoint writes shard snapshots once it lands
	// mid-epoch. Epochs cycle quickly at this scale, so a request can
	// catch every shard between epochs (nothing running to snapshot) —
	// retry until one lands.
	ckptDeadline := time.After(10 * time.Second)
	for {
		cresp, err := http.Post(base+"/api/checkpoint", "", nil)
		if err != nil || cresp.StatusCode != http.StatusOK {
			t.Fatalf("checkpoint: %v (%v)", err, cresp)
		}
		io.Copy(io.Discard, cresp.Body)
		cresp.Body.Close()
		if m.Session().Telemetry.Snapshot().Counter(MetricCheckpointsWritten) > 0 {
			break
		}
		select {
		case <-ckptDeadline:
			t.Fatal("API checkpoint never wrote a shard snapshot")
		case <-time.After(20 * time.Millisecond):
		}
	}

	// Graceful drain: intake 503s, the listener closes, restart lifts
	// the adopted seed.
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still answering after Stop")
	}
	// Drain checkpoints every mid-epoch shard; a shard caught between
	// epochs leaves nothing to restore, so pin restore against what the
	// drain actually left on disk.
	surviving := 0
	for i := 0; i < cfg.Shards; i++ {
		if _, err := os.Stat(m.checkpointPath(i)); err == nil {
			surviving++
		}
	}

	m2 := New(cfg)
	if err := m2.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer m2.Stop(context.Background())
	if got := m2.submittedCount(); got < 1 {
		t.Fatalf("restart lifted %d submitted seeds, want >= 1", got)
	}
	// Resume happens asynchronously in the shard loops; wait for the
	// restored counter rather than racing it.
	if surviving > 0 {
		restoreDeadline := time.After(10 * time.Second)
		for m2.Session().Telemetry.Snapshot().Counter(MetricCheckpointsRestored) == 0 {
			select {
			case <-restoreDeadline:
				t.Fatal("restart restored no checkpoints despite drain-time snapshots")
			case <-time.After(10 * time.Millisecond):
			}
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
	m.queue <- files[0]
	m.Wait()
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}

	for key, res := range m.Session().Campaigns {
		if n := len(res.Draws); n != cfg.Iterations {
			t.Fatalf("%s: %d draws, want %d", key, n, cfg.Iterations)
		}
	}
	if subs := m.submittedCount(); subs != 1 {
		t.Fatalf("adopted %d seeds, want 1", subs)
	}

	// A restart on the same data dir lifts the submission, and an
	// epoch pinning one submitted seed builds its corpus as
	// base + submitted, in arrival order.
	m2 := New(cfg)
	if err := m2.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer m2.Stop(context.Background())
	var seeds []*jimple.Class = m2.corpusFor(1)
	if want := cfg.SeedCount + 1; len(seeds) != want {
		t.Fatalf("corpusFor(1) = %d seeds, want %d", len(seeds), want)
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
// only, so a memo.json in the data directory — torn by a kill, or
// written by an older build whose simulator this one no longer matches
// — is neither read nor rewritten. The daemon starts on it and runs to
// the folds and discrepancy log of a clean directory, which itself
// never gains a memo.json.
func TestLeftoverMemoFileIgnored(t *testing.T) {
	clean := testConfig(t, 1)
	want, wm := runToCompletion(t, clean)
	if _, err := os.Stat(filepath.Join(clean.DataDir, "memo.json")); !os.IsNotExist(err) {
		t.Fatalf("clean data dir gained a memo.json (stat: %v)", err)
	}

	cfg := testConfig(t, 1)
	torn := []byte(`{"version":1,"classes":[{"da`)
	memoPath := filepath.Join(cfg.DataDir, "memo.json")
	if err := os.WriteFile(memoPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, gm := runToCompletion(t, cfg)
	if !reflect.DeepEqual(summarize(got), summarize(want)) {
		t.Fatal("folds diverge from a clean data dir")
	}
	if !reflect.DeepEqual(discSet(gm.Discrepancies(0)), discSet(wm.Discrepancies(0))) {
		t.Fatal("discrepancy log diverges from a clean data dir")
	}
	if after, err := os.ReadFile(memoPath); err != nil || !bytes.Equal(after, torn) {
		t.Fatalf("leftover memo.json was touched (err %v)", err)
	}
}
