package campaign

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coverage"
	"repro/internal/jvm"
	"repro/internal/seedgen"
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

// TestObserverCountersConsistent checks the Counters observer against
// the result it watched: every tally must be derivable from the Result.
func TestObserverCountersConsistent(t *testing.T) {
	c := &Counters{}
	cfg := detConfig(Classfuzz)
	cfg.Workers = 4
	cfg.Observer = c
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Iterations != cfg.Iterations || c.Committed != cfg.Iterations {
		t.Errorf("observer saw %d draws / %d commits, want %d", c.Iterations, c.Committed, cfg.Iterations)
	}
	if c.Applied+c.Failed != cfg.Iterations {
		t.Errorf("applied %d + failed %d != iterations %d", c.Applied, c.Failed, cfg.Iterations)
	}
	if c.Applied != len(res.Gen) {
		t.Errorf("observer applied %d, result generated %d", c.Applied, len(res.Gen))
	}
	if c.Accepts != len(res.Test) {
		t.Errorf("observer accepts %d, result tests %d", c.Accepts, len(res.Test))
	}
	pf := res.Prefilter
	if pf == nil {
		t.Fatal("prefilter stats missing")
	}
	if c.PrefilterHits != pf.Skipped {
		t.Errorf("observer prefilter hits %d, stats skipped %d", c.PrefilterHits, pf.Skipped)
	}
	// Every generated mutant is either executed or served from the cache.
	if c.Executions+c.PrefilterHits != len(res.Gen) {
		t.Errorf("executions %d + cache hits %d != generated %d", c.Executions, c.PrefilterHits, len(res.Gen))
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
	case PrefilterHit:
		r.events = append(r.events, fmt.Sprintf("hit %d", e.Iter))
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
// KeepClasses/KeepGenBytes, only accepted mutants retain classfile
// bytes; with KeepGenBytes every generated mutant does.
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
			if g.Class != nil {
				t.Errorf("unaccepted %s kept its model without KeepClasses", g.Name)
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
		if !g.Accepted && g.Class != nil {
			t.Errorf("KeepGenBytes must not retain models, %s has one", g.Name)
		}
	}
}

// TestReplayRoundTrip: Replay re-derives a single iteration's mutant
// and verifies it byte-for-byte against the campaign's own output —
// including mutants whose parent is itself a recycled mutant.
func TestReplayRoundTrip(t *testing.T) {
	cfg := detConfig(Classfuzz)
	cfg.Workers = 4
	cfg.KeepGenBytes = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild every generated iteration straight from the draw log.
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
			t.Errorf("iteration %d: rebuilt bytes differ from campaign bytes", d.Iter)
		}
		if d.Parent >= 0 {
			recycledChecked = true
		}
	}
	if !recycledChecked {
		t.Log("no recycled-parent iterations in this campaign; lineage recursion untested here")
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

// TestLookaheadIsSemantic: the pipeline window is part of the campaign's
// semantics — it is recorded in the result, honoured exactly, and
// results stay worker-count-independent at non-default windows too.
func TestLookaheadIsSemantic(t *testing.T) {
	mk := func(lookahead, workers int) summary {
		cfg := detConfig(Classfuzz)
		cfg.Lookahead = lookahead
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Lookahead != lookahead {
			t.Errorf("result records lookahead %d, want %d", res.Lookahead, lookahead)
		}
		return summarize(res)
	}
	if !reflect.DeepEqual(mk(4, 1), mk(4, 6)) {
		t.Error("lookahead=4 results depend on worker count")
	}
	if !reflect.DeepEqual(mk(1, 1), mk(1, 3)) {
		t.Error("lookahead=1 results depend on worker count")
	}
	// Default config must resolve to DefaultLookahead.
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
	cfg.Lookahead = 64
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
