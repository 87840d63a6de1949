package campaign

import (
	"reflect"
	"testing"

	"repro/internal/jvm"
	"repro/internal/telemetry"
)

// memoCells are the three verify-memo modes the equivalence tests
// cover: no memo (Config.VerifyMemo nil, unmemoised verification), a
// fresh injected memo, and an injected memo pre-warmed by a full prior
// campaign (a lineage's cross-epoch shape).
func memoCells(t *testing.T, alg Algorithm) map[string]func() *jvm.VerifyMemo {
	t.Helper()
	warm := jvm.NewVerifyMemo()
	cfg := detConfig(alg)
	cfg.VerifyMemo = warm
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	return map[string]func() *jvm.VerifyMemo{
		"memo-off":  func() *jvm.VerifyMemo { return nil },
		"memo-cold": jvm.NewVerifyMemo,
		"memo-warm": func() *jvm.VerifyMemo { return warm },
	}
}

// TestVerifyMemoObserveEquivalence is the engine-level contract of the
// method-verification memo: campaigns run with no memo, with a fresh
// injected memo and with a pre-warmed one must produce bit-identical
// summaries — accepted suites, draw logs, mutator statistics and
// prefilter counters — at every worker count the determinism matrix
// sweeps. The memo may only move wall clock, never results. With no
// memo injected the engine must not memoise at all: the campaign
// registry never sees a method-memo lookup.
func TestVerifyMemoObserveEquivalence(t *testing.T) {
	for _, alg := range detAlgorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			// Baseline: no memo, workers=1.
			res, err := Run(detConfig(alg))
			if err != nil {
				t.Fatal(err)
			}
			want := summarize(res)

			cells := memoCells(t, alg)
			for _, w := range workerCounts() {
				for name, memo := range cells {
					cfg := detConfig(alg)
					cfg.Workers = w
					cfg.VerifyMemo = memo()
					reg := telemetry.New()
					cfg.Telemetry = reg
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, w, err)
					}
					if got := summarize(res); !reflect.DeepEqual(got, want) {
						t.Errorf("%s workers=%d diverges from memo-off workers=1", name, w)
					}
					snap := reg.Snapshot()
					lookups := snap.Counter(jvm.MetricVerifyMemoHits) + snap.Counter(jvm.MetricVerifyMemoMisses)
					if name == "memo-off" && lookups != 0 {
						t.Errorf("memo-off workers=%d: %d method-memo lookups, want 0", w, lookups)
					}
				}
			}
		})
	}
}

// TestReplayWithAndWithoutMemo pins the replay contract across memo
// modes: a mutant replayed under a fresh or pre-warmed memo is
// byte-identical to one replayed with no memo, because the memo cannot
// perturb draws, mutations or acceptance.
func TestReplayWithAndWithoutMemo(t *testing.T) {
	off := detConfig(Classfuzz)
	resOff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	iters := []int{0, off.Iterations / 2, off.Iterations - 1}
	want := make(map[int]*ReplayInfo, len(iters))
	for _, iter := range iters {
		if want[iter], err = Replay(off, iter); err != nil {
			t.Fatal(err)
		}
	}
	for name, memo := range memoCells(t, Classfuzz) {
		cfg := detConfig(Classfuzz)
		cfg.VerifyMemo = memo()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Test) == 0 || len(res.Test) != len(resOff.Test) {
			t.Fatalf("%s: accepted suites differ in size: %d vs %d", name, len(res.Test), len(resOff.Test))
		}
		for _, iter := range iters {
			got, err := Replay(cfg, iter)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[iter]) {
				t.Fatalf("%s: replay of iteration %d diverges from memo-off", name, iter)
			}
		}
	}
}
