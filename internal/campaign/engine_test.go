package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Algorithm: Classfuzz, Iterations: 10}); err == nil {
		t.Error("expected error for empty seed corpus")
	}
	seeds := seedgen.Generate(seedgen.DefaultOptions(3, 1))
	if _, err := Run(Config{Algorithm: Classfuzz, Source: FlatSeeds(seeds)}); err == nil {
		t.Error("expected error for zero iteration budget")
	}
	if _, err := Run(Config{Algorithm: "nosuch", Source: FlatSeeds(seeds), Iterations: 5}); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

// skipLog records the iterations whose Executed event reports that the
// prefilter's trace cache stood in for the reference-VM run.
type skipLog []int

func (h *skipLog) Event(ev Event) {
	if e, ok := ev.(Executed); ok && e.Skipped {
		*h = append(*h, e.Iter)
	}
}

// TestObserverCountersConsistent checks the engine's campaign.*
// counters against the result and the event stream they describe:
// every count must be derivable from the Result.
func TestObserverCountersConsistent(t *testing.T) {
	var skips skipLog
	reg := telemetry.New()
	cfg := detConfig(Classfuzz)
	cfg.Workers = 4
	cfg.Observer = &skips
	cfg.Telemetry = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counter
	n := int64(cfg.Iterations)
	if c("campaign.iterations") != n || c("campaign.committed") != n {
		t.Errorf("counted %d draws / %d commits, want %d", c("campaign.iterations"), c("campaign.committed"), n)
	}
	if c("campaign.generated")+c("campaign.mutator_failures") != n {
		t.Errorf("generated %d + failed %d != iterations %d", c("campaign.generated"), c("campaign.mutator_failures"), n)
	}
	if c("campaign.generated") != int64(len(res.Gen)) {
		t.Errorf("counted %d generated, result has %d", c("campaign.generated"), len(res.Gen))
	}
	if c("campaign.accepts") != int64(len(res.Test)) {
		t.Errorf("counted %d accepts, result tests %d", c("campaign.accepts"), len(res.Test))
	}
	pf := res.Prefilter
	if pf == nil {
		t.Fatal("prefilter stats missing")
	}
	if len(skips) != pf.Skipped || c("campaign.prefilter.skipped") != int64(pf.Skipped) {
		t.Errorf("skipped executions: %d events, counter %d, stats %d", len(skips), c("campaign.prefilter.skipped"), pf.Skipped)
	}
	// Every generated mutant is either executed or served from the cache.
	if c("campaign.executions")+int64(pf.Skipped) != int64(len(res.Gen)) {
		t.Errorf("executions %d + cache hits %d != generated %d", c("campaign.executions"), pf.Skipped, len(res.Gen))
	}
	if pf.Doomed != pf.Skipped+pf.Executed {
		t.Errorf("doomed %d != skipped %d + executed %d", pf.Doomed, pf.Skipped, pf.Executed)
	}
}

// recordingObserver turns the event stream into strings so two runs can
// be compared verbatim.
type recordingObserver struct{ events []string }

func (r *recordingObserver) Event(ev Event) {
	switch e := ev.(type) {
	case IterationStarted:
		r.events = append(r.events, fmt.Sprintf("start %d %d %d", e.Iter, e.PoolIndex, e.MutatorID))
	case Mutated:
		r.events = append(r.events, fmt.Sprintf("mutated %d %d %v", e.Iter, e.MutatorID, e.Applied))
	case Executed:
		r.events = append(r.events, fmt.Sprintf("executed %d %v", e.Iter, e.Skipped))
	case Accepted:
		r.events = append(r.events, fmt.Sprintf("accepted %d %s %d/%d", e.Iter, e.Name, e.Stats.Stmts, e.Stats.Branches))
	case SelectorUpdated:
		r.events = append(r.events, fmt.Sprintf("selector %d %d %v", e.Iter, e.MutatorID, e.Success))
	}
}

// TestObserverEventOrderDeterministic: the full event stream — not just
// the totals — is identical at any worker count, because every event
// fires from the sequential draw/commit stages.
func TestObserverEventOrderDeterministic(t *testing.T) {
	run := func(workers int) []string {
		o := &recordingObserver{}
		cfg := detConfig(Uniquefuzz)
		cfg.Workers = workers
		cfg.Observer = o
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return o.events
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Error("observer event stream differs between workers=1 and workers=4")
	}
}

// TestGenBytesDroppedByDefault is the memory fix's contract: without
// KeepGenBytes, only accepted mutants retain classfile bytes; with it
// every generated mutant does.
func TestGenBytesDroppedByDefault(t *testing.T) {
	cfg := detConfig(Classfuzz)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, g := range res.Gen {
		if g.Accepted {
			if len(g.Data) == 0 {
				t.Errorf("accepted %s lost its bytes", g.Name)
			}
		} else {
			rejected++
			if g.Data != nil {
				t.Errorf("unaccepted %s kept %d bytes without KeepGenBytes", g.Name, len(g.Data))
			}
		}
	}
	if rejected == 0 {
		t.Fatal("campaign rejected nothing; the retention check is vacuous")
	}

	cfg.KeepGenBytes = true
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Gen {
		if len(g.Data) == 0 {
			t.Errorf("KeepGenBytes: %s has no bytes", g.Name)
		}
	}
}

// TestReplayRoundTrip: Replay re-derives a single iteration's mutant
// and verifies it byte-for-byte against the campaign's own output —
// including mutants whose parent is itself a recycled mutant. Rebuild
// lowers each mutant with a one-shot jimple.Lower, so it is also the
// oracle for the workers' body reuse: bytes a worker wrote by replaying
// a recorded body must equal a fresh lowering's, for each algorithm
// that keeps a model pool, on one worker and on several.
func TestReplayRoundTrip(t *testing.T) {
	var cfg Config
	var res *Result
	for _, alg := range []Algorithm{Uniquefuzz, Randfuzz, Classfuzz} {
		for _, w := range []int{1, 4} {
			cfg = detConfig(alg)
			cfg.Workers = w
			cfg.KeepGenBytes = true
			cfg.Telemetry = telemetry.New()
			var err error
			if res, err = Run(cfg); err != nil {
				t.Fatal(err)
			}
			if cfg.Telemetry.Snapshot().Counter("campaign.lower.body_reused") == 0 {
				t.Errorf("%s workers=%d: no body was replayed, so nothing checks reuse", alg, w)
			}
			rebuildAll(t, cfg, res)
		}
	}

	// The end-to-end replay entry point (what cmd/classfuzz -replay runs).
	last := -1
	for _, d := range res.Draws {
		if d.Generated {
			last = d.Iter
		}
	}
	if last < 0 {
		t.Fatal("campaign generated nothing")
	}
	info, err := Replay(cfg, last)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Verified {
		t.Error("replayed iteration not verified against the campaign")
	}

	if _, err := Replay(Config{Algorithm: Bytefuzz, Source: cfg.Source, Iterations: 5, RefSpec: cfg.RefSpec}, 1); err == nil {
		t.Error("expected bytefuzz replay to be rejected")
	}
}

// rebuildAll rebuilds every generated iteration of res straight from
// its draw log and checks the bytes against the campaign's.
func rebuildAll(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	byIter := map[int]*GenClass{}
	for _, g := range res.Gen {
		byIter[g.Iter] = g
	}
	recycledChecked := false
	for _, d := range res.Draws {
		if !d.Generated {
			continue
		}
		info, err := Rebuild(cfg, res.Draws, d.Iter)
		if err != nil {
			t.Fatalf("rebuild iteration %d: %v", d.Iter, err)
		}
		g := byIter[d.Iter]
		if g == nil {
			t.Fatalf("iteration %d marked generated but absent from Gen", d.Iter)
		}
		if !bytes.Equal(info.Data, g.Data) {
			t.Errorf("%s workers=%d iteration %d: rebuilt bytes differ from campaign bytes", cfg.Algorithm, cfg.Workers, d.Iter)
		}
		if d.Parent >= 0 {
			recycledChecked = true
		}
	}
	if !recycledChecked {
		t.Log("no recycled-parent iterations in this campaign; lineage recursion untested here")
	}
}

// TestLookaheadIsSemantic: the pipeline window is part of the campaign's
// semantics, so every result records the constant window it ran under.
func TestLookaheadIsSemantic(t *testing.T) {
	cfg := detConfig(Classfuzz)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lookahead != DefaultLookahead {
		t.Errorf("default lookahead %d, want %d", res.Lookahead, DefaultLookahead)
	}
}

// TestBytefuzzPerIterationStreams: bytefuzz campaigns are reproducible
// and observer-visible like the staged algorithms.
func TestBytefuzzDeterministic(t *testing.T) {
	mk := func() []string {
		cfg := detConfig(Bytefuzz)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, g := range res.Test {
			names = append(names, g.Name)
		}
		return names
	}
	if !reflect.DeepEqual(mk(), mk()) {
		t.Error("bytefuzz not deterministic at fixed seed")
	}
}

// TestWorkerPoolActuallyRuns guards against the pool silently degrading
// to sequential execution: a campaign with more workers than iterations
// must still complete and commit everything.
func TestWorkerPoolOverprovisioned(t *testing.T) {
	cfg := detConfig(Greedyfuzz)
	cfg.Iterations = 8
	cfg.Workers = 32
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Draws) != 8 {
		t.Errorf("drew %d iterations, want 8", len(res.Draws))
	}
}

// TestSeedPoolSharedAcrossEngines: two concurrent campaigns over the
// same seed slice must not interfere (the engine clones before
// mutating). Run with -race to make this meaningful.
func TestConcurrentCampaignsShareSeeds(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(10, 9))
	mk := func() Config {
		return Config{
			Algorithm: Classfuzz, Criterion: coverage.STBR, Source: FlatSeeds(seeds),
			Iterations: 60, Rand: 23, RefSpec: jvm.HotSpot9(), Workers: 2,
		}
	}
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := Run(mk())
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// suiteSummary is a Result's suite-level projection: the accepted
// suite (names and bytes), the draw log, the generated classes'
// metadata and the selector statistics.
type suiteSummary struct {
	TestNames    []string
	TestBytes    [][]byte
	GenCount     int
	GenUnique    int
	Draws        []DrawRecord
	MutatorStats []MutatorStat
	GenMeta      []GenClass
}

func suiteSummarize(r *Result) suiteSummary {
	s := suiteSummary{
		TestNames:    []string{},
		TestBytes:    [][]byte{},
		GenCount:     len(r.Gen),
		GenUnique:    r.GenUniqueStats,
		Draws:        r.Draws,
		MutatorStats: r.MutatorStats,
	}
	for _, g := range r.Test {
		s.TestNames = append(s.TestNames, g.Name)
		s.TestBytes = append(s.TestBytes, g.Data)
	}
	for _, g := range r.Gen {
		s.GenMeta = append(s.GenMeta, GenClass{Iter: g.Iter, Name: g.Name, MutatorID: g.MutatorID, Stats: g.Stats, Accepted: g.Accepted})
	}
	return s
}

// stopAfter closes stop once iteration iter has been drawn, so the
// engine stops at the boundary before iter+1 — a deterministic stop
// point for tests; a negative iter closes it before the run starts.
type stopAfter struct {
	iter int
	stop chan struct{}
}

func newStopAfter(iter int) *stopAfter {
	s := &stopAfter{iter: iter, stop: make(chan struct{})}
	if iter < 0 {
		close(s.stop)
	}
	return s
}

func (s *stopAfter) Event(ev Event) {
	if e, ok := ev.(IterationStarted); ok && e.Iter == s.iter {
		close(s.stop)
	}
}

// runStopped runs cfg with a Stop that closes once iteration iter has
// been drawn.
func runStopped(t *testing.T, cfg Config, iter int) *Result {
	t.Helper()
	s := newStopAfter(iter)
	cfg.Observer, cfg.Stop = s, s.stop
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkPrefix requires res, a run of full's configuration that drew
// res.Drawn iterations, to be a prefix of the uninterrupted run full:
// its draw log, generated classes and accepted suite are those of
// full's first res.Drawn iterations.
func checkPrefix(t *testing.T, label string, full, res *Result) {
	t.Helper()
	drawn := res.Drawn
	want := *full
	want.Draws = full.Draws[:drawn]
	want.Gen, want.Test = nil, nil
	for _, g := range full.Gen {
		if g.Iter < drawn {
			want.Gen = append(want.Gen, g)
		}
	}
	for _, g := range full.Test {
		if g.Iter < drawn {
			want.Test = append(want.Test, g)
		}
	}
	got := suiteSummarize(res)
	got.GenUnique, got.MutatorStats = 0, nil
	exp := suiteSummarize(&want)
	exp.GenUnique, exp.MutatorStats = 0, nil
	if !reflect.DeepEqual(got, exp) {
		t.Errorf("%s: the stopped run is no prefix of the uninterrupted one", label)
	}
}

// TestStopAtBoundary pins Config.Stop: a campaign whose Stop closes
// between two draws returns Stopped with Drawn < Iterations, every
// drawn iteration commits, and its draw log, generated classes and
// accepted suite are a prefix of the uninterrupted run's — at one and
// four workers, for the flat draw and both schedulers. The observer
// closes Stop at a chosen draw, so the stop point is exact; TestStopAsync
// closes it from outside. Running the configuration again from
// iteration 0, as a restarted daemon epoch does, reproduces the
// uninterrupted run.
func TestStopAtBoundary(t *testing.T) {
	sources := map[string]func() Config{
		"uniform":   func() Config { return detConfig(Classfuzz) },
		"clustered": func() Config { return schedConfig(t, seedsel.Clustered) },
		"yield":     func() Config { return schedConfig(t, seedsel.Yield) },
	}
	for name, mk := range sources {
		full, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if full.Stopped || full.Drawn != full.Iterations {
			t.Fatalf("%s: uninterrupted run reports Stopped=%v Drawn=%d", name, full.Stopped, full.Drawn)
		}
		for _, workers := range []int{1, 4} {
			for _, iter := range []int{-1, 0, 15, 60} {
				cfg := mk()
				cfg.Workers = workers
				res := runStopped(t, cfg, iter)
				drawn := iter + 1
				if !res.Stopped || res.Drawn != drawn || len(res.Draws) != drawn {
					t.Errorf("%s workers=%d stop after %d: Stopped=%v Drawn=%d with %d draws, want a stop at %d",
						name, workers, iter, res.Stopped, res.Drawn, len(res.Draws), drawn)
					continue
				}
				checkPrefix(t, fmt.Sprintf("%s workers=%d stop after %d", name, workers, iter), full, res)
			}
			cfg := mk()
			cfg.Workers = workers
			again, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(suiteSummarize(again), suiteSummarize(full)) {
				t.Errorf("%s workers=%d: the run from iteration 0 diverges from the uninterrupted run", name, workers)
			}
		}
	}
}

// goroutinesAtMost polls runtime.NumGoroutine for up to a second until
// it reads at most n, and returns the last reading: a goroutine that
// has signalled its WaitGroup takes a moment to exit.
func goroutinesAtMost(n int) int {
	deadline := time.Now().Add(time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutinePeak is an Observer recording the largest goroutine count
// seen at any event. Events fire one at a time under the sequencer, so
// the field needs no lock.
type goroutinePeak struct{ peak int }

func (g *goroutinePeak) Event(Event) { g.peak = max(g.peak, runtime.NumGoroutine()) }

// TestStopAsync closes Config.Stop from another goroutine after a
// random delay, at one, two and eight workers. Run must return, and its
// result must be a prefix of the uninterrupted run, stopped at whichever
// draw the close reached (or complete, if the close came late). The
// campaign runs on exactly Workers goroutines besides its caller:
// sampled at every event, the goroutine count never exceeds the count
// before Run plus Workers, and after Run returns it is back there.
func TestStopAsync(t *testing.T) {
	mk := func() Config {
		cfg := schedConfig(t, seedsel.Clustered) // baselines recorded: Run starts no seed pass
		cfg.Iterations = 2000
		return cfg
	}
	full, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("delay seed %d; uninterrupted run %v", seed, full.Elapsed)
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 3; trial++ {
			cfg := mk()
			goroutinesAtMost(base) // the scheduler's seed pass has exited
			stop := make(chan struct{})
			peak := &goroutinePeak{}
			cfg.Workers, cfg.Stop, cfg.Observer = workers, stop, peak
			type outcome struct {
				res       *Result
				err       error
				pre, post int
			}
			out := make(chan outcome, 1)
			go func() {
				var o outcome
				o.pre = runtime.NumGoroutine()
				o.res, o.err = Run(cfg)
				o.post = goroutinesAtMost(o.pre)
				out <- o
			}()
			delay := time.Duration(rng.Int63n(int64(full.Elapsed) + 1))
			time.Sleep(delay)
			close(stop)
			o := <-out
			label := fmt.Sprintf("workers=%d stop after %v", workers, delay)
			if o.err != nil {
				t.Fatalf("%s: %v", label, o.err)
			}
			res := o.res
			t.Logf("%s: drew %d of %d; goroutines %d before, peak %d, %d after", label, res.Drawn, res.Iterations, o.pre, peak.peak, o.post)
			if res.Stopped != (res.Drawn < res.Iterations) || len(res.Draws) != res.Drawn {
				t.Errorf("%s: Stopped=%v with Drawn=%d of %d and %d draws", label, res.Stopped, res.Drawn, res.Iterations, len(res.Draws))
				continue
			}
			checkPrefix(t, label, full, res)
			if peak.peak > o.pre+workers {
				t.Errorf("%s: %d goroutines during the run, more than %d before it plus %d workers", label, peak.peak, o.pre, workers)
			}
			if o.post > o.pre {
				t.Errorf("%s: %d goroutines after the run, %d before it", label, o.post, o.pre)
			}
		}
	}
}

// TestStageSpansWithinWallClock: at one worker the stage spans never
// overlap — the first window is drawn before the worker starts, and the
// worker then draws and commits between its own tasks — so the
// campaign.stage.*_ns sums add up to at most Result.Elapsed. At paper
// breadth they also add up to at least 0.8 of it, so no stage goes
// untimed: on 2 vCPUs ten idle runs read 0.93–0.95 and 24 beside a
// parallel go test 0.89–0.97 (0.89 at GOMAXPROCS 1, 0.96–0.97 under
// -race). The 60-seed campaign takes about 10 ms, so the worker's
// start-up and a GC cycle outside the spans weigh more: beside a
// parallel go test it read as low as 0.69, and it has no lower bound.
func TestStageSpansWithinWallClock(t *testing.T) {
	for _, c := range []struct {
		seeds, iters int
		min          float64
	}{{60, 400, 0}, {1216, 20000, 0.8}} {
		if testing.Short() && c.seeds > 60 {
			continue
		}
		reg := telemetry.New()
		res, err := Run(Config{
			Algorithm:       Classfuzz,
			Criterion:       coverage.STBR,
			Source:          FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(c.seeds, 1))),
			Iterations:      c.iters,
			Rand:            1,
			RefSpec:         jvm.HotSpot9(),
			StaticPrefilter: true,
			Workers:         1,
			Telemetry:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for name, h := range reg.Snapshot().Histograms {
			if strings.HasPrefix(name, "campaign.stage.") {
				sum += h.Sum
			}
		}
		ratio := float64(sum) / float64(res.Elapsed)
		t.Logf("%d seeds x %d iterations: stage sum %v of %v elapsed (%.3f)",
			c.seeds, c.iters, time.Duration(sum), res.Elapsed, ratio)
		if ratio > 1 || ratio < c.min {
			t.Errorf("%d seeds x %d iterations: stage spans sum to %v, %.3f of the %v the campaign took; want %.1f to 1",
				c.seeds, c.iters, time.Duration(sum), ratio, res.Elapsed, c.min)
		}
	}
}

// TestResultCoverageMerged checks Result.Coverage is the word-OR of
// seed and accepted traces (the coordinator's shard-merge input): the
// seed pass's traces and each accepted class run again on the
// reference VM must fold to exactly the campaign's merged trace.
func TestResultCoverageMerged(t *testing.T) {
	cfg := detConfig(Classfuzz)
	cfg.StaticPrefilter = false // every accepted trace comes from its own run
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Coverage == nil {
		t.Fatal("no merged coverage on a coverage-directed campaign")
	}
	if res.Coverage.Stats().Stmts == 0 {
		t.Fatal("merged coverage is empty")
	}
	want := coverage.NewTrace()
	for _, tr := range seedsel.Traces(seedsel.RunSeeds(cfg.Source.Corpus(), cfg.RefSpec)) {
		if tr != nil {
			want = coverage.Merge(want, tr)
		}
	}
	vm := jvm.New(cfg.RefSpec)
	rec := coverage.NewRecorder(jvm.ProbeRegistry())
	vm.SetRecorder(rec)
	for _, g := range res.Test {
		rec.Reset()
		vm.Run(g.Data)
		want = coverage.Merge(want, rec.Trace())
	}
	if !res.Coverage.EqualSets(want) {
		t.Fatalf("merged coverage %+v is not the fold of the seed and accepted traces %+v", res.Coverage.Stats(), want.Stats())
	}
}

// TestStandardMainShared pins the shared standard main: a mutant that
// lacks a main holds the one package-level method rather than a copy,
// and a campaign on four workers leaves it deep-equal to a fresh one.
func TestStandardMainShared(t *testing.T) {
	fresh := jimple.StandardMain("Completed!")
	cfg := detConfig(Classfuzz)
	cfg.Workers = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	shared := 0
	for _, g := range res.Gen {
		info, err := Rebuild(cfg, res.Draws, g.Iter)
		if err != nil {
			t.Fatalf("rebuild %d: %v", g.Iter, err)
		}
		if slices.Contains(info.Class.Methods, standardMain) {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no mutant holds the shared standard main; the test checks nothing")
	}
	if !reflect.DeepEqual(standardMain, fresh) {
		t.Fatal("a campaign wrote to the shared standard main")
	}
}
