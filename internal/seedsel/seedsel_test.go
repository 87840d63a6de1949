package seedsel

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/telemetry"
)

func TestParseStrategy(t *testing.T) {
	for _, ok := range []string{"uniform", "clustered", "yield"} {
		if s, err := ParseStrategy(ok); err != nil || string(s) != ok {
			t.Errorf("ParseStrategy(%q) = %q, %v", ok, s, err)
		}
	}
	if s, err := ParseStrategy(""); err != nil || s != Uniform {
		t.Errorf("ParseStrategy(\"\") = %q, %v, want uniform", s, err)
	}
	for _, bad := range []string{"Uniform", "random", "flat", "yield "} {
		if _, err := ParseStrategy(bad); err == nil {
			t.Errorf("ParseStrategy(%q) accepted", bad)
		}
	}
}

func TestNewRejectsUniformAndEmpty(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(4, 1))
	if _, err := New(seeds, Options{Strategy: Uniform, RefSpec: jvm.HotSpot9()}); err == nil {
		t.Error("New accepted the uniform strategy (FlatSeeds owns it)")
	}
	if _, err := New(nil, Options{Strategy: Clustered, RefSpec: jvm.HotSpot9()}); err == nil {
		t.Error("New accepted an empty corpus")
	}
}

// TestConstructionDeterministic: same corpus and options, identical
// cluster structure and cluster table.
func TestConstructionDeterministic(t *testing.T) {
	mk := func() *Scheduler {
		seeds := seedgen.Generate(seedgen.DefaultOptions(16, 7))
		s, err := New(seeds, Options{Strategy: Yield, RefSpec: jvm.HotSpot9()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	if a.Clusters() != b.Clusters() {
		t.Fatalf("cluster counts differ: %d vs %d", a.Clusters(), b.Clusters())
	}
	if !reflect.DeepEqual(a.ClusterStats(), b.ClusterStats()) {
		t.Fatalf("cluster tables differ:\n%+v\n%+v", a.ClusterStats(), b.ClusterStats())
	}
	if a.Clusters() < 1 {
		t.Fatal("no clusters")
	}
}

// TestNewIdenticalAcrossGOMAXPROCS: the seed runs are spread over
// GOMAXPROCS goroutines, but each lands in its own slot and clustering
// runs after all of them, so a scheduler built on one core equals one
// built on four: the cluster table, the classification
// of every seed, and the recorded baselines. A seed pass of its own at
// each GOMAXPROCS records those baselines too.
func TestNewIdenticalAcrossGOMAXPROCS(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(60, 2))
	build := func(procs int) (*Scheduler, []SeedRun) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := New(seeds, Options{Strategy: Yield, RefSpec: jvm.HotSpot9()})
		if err != nil {
			t.Fatal(err)
		}
		return s, RunSeeds(seeds, jvm.HotSpot9())
	}
	one, runsOne := build(1)
	four, runsFour := build(4)
	if !reflect.DeepEqual(one.ClusterStats(), four.ClusterStats()) {
		t.Fatalf("cluster stats differ:\n%+v\n%+v", one.ClusterStats(), four.ClusterStats())
	}
	for i := range seeds {
		if a, b := one.Classify(one.runs[i]), four.Classify(four.runs[i]); a != b {
			t.Fatalf("seed %d: Classify %+v at GOMAXPROCS 1, %+v at 4", i, a, b)
		}
	}
	ba, bb := one.Baselines(jvm.HotSpot9()), four.Baselines(jvm.HotSpot9())
	if len(ba) != len(seeds) || len(bb) != len(seeds) {
		t.Fatalf("baselines %d and %d for %d seeds", len(ba), len(bb), len(seeds))
	}
	for i := range ba {
		if (ba[i] == nil) != (bb[i] == nil) || (ba[i] != nil && !ba[i].EqualSets(bb[i])) {
			t.Fatalf("seed %d: baseline differs between GOMAXPROCS 1 and 4", i)
		}
		for _, r := range []SeedRun{runsOne[i], runsFour[i]} {
			if r.Fingerprint != one.runs[i].Fingerprint || (r.Trace == nil) != (ba[i] == nil) ||
				(r.Trace != nil && (r.Trace.Key() != ba[i].Key() || !r.Trace.EqualSets(ba[i]))) {
				t.Fatalf("seed %d: a seed pass differs from the baseline", i)
			}
		}
	}
}

// TestBaselinesFollowRefSpec: a request for another spec gets that
// spec's seed pass, never the recorded traces, and AddSeed extends the
// recorded ones with the corpus.
func TestBaselinesFollowRefSpec(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(10, 3))
	s, err := New(seeds[:8], Options{Strategy: Clustered, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatal(err)
	}
	foreign := s.Baselines(jvm.GIJ())
	want := Traces(RunSeeds(seeds[:8], jvm.GIJ()))
	differs := false
	for i, tr := range foreign {
		if tr == s.runs[i].Trace && tr != nil {
			t.Fatalf("seed %d: Baselines(GIJ) handed out the HotSpot 9 trace", i)
		}
		if (tr == nil) != (want[i] == nil) || (tr != nil && (tr.Key() != want[i].Key() || !tr.EqualSets(want[i]))) {
			t.Fatalf("seed %d: Baselines(GIJ) is not GIJ's seed pass", i)
		}
		differs = differs || (tr != nil && !tr.EqualSets(s.runs[i].Trace))
	}
	if len(foreign) != 8 || !differs {
		t.Fatalf("Baselines(GIJ) = %d traces, none differing from HotSpot 9's: the test cannot tell them apart", len(foreign))
	}
	for i, run := range RunSeeds(seeds[8:], jvm.HotSpot9()) {
		s.AddSeed(seeds[8+i], run)
	}
	got := s.Baselines(jvm.HotSpot9())
	if len(got) != len(s.Corpus()) {
		t.Fatalf("%d baselines for a %d-seed corpus", len(got), len(s.Corpus()))
	}
	for i, tr := range got {
		if tr == nil || tr != s.runs[i].Trace {
			t.Fatalf("seed %d: baseline is not the recorded trace", i)
		}
	}
}

// TestPickBounds: every pick lands inside the pool, for both
// strategies, across a long driven sequence including pool growth.
func TestPickBounds(t *testing.T) {
	for _, strategy := range []Strategy{Clustered, Yield} {
		seeds := seedgen.Generate(seedgen.DefaultOptions(10, 3))
		s, err := New(seeds, Options{Strategy: strategy, RefSpec: jvm.HotSpot9()})
		if err != nil {
			t.Fatal(err)
		}
		n := len(seeds)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 500; i++ {
			idx := s.Pick(rng, n)
			if idx < 0 || idx >= n {
				t.Fatalf("%s: pick %d outside pool %d", strategy, idx, n)
			}
			accepted := i%17 == 0
			s.Observe(idx, true, accepted)
			if accepted {
				s.Grew(n, idx)
				n++
			}
		}
		if got := len(s.assign); got != n {
			t.Fatalf("%s: assign tracks %d, pool %d", strategy, got, n)
		}
	}
}

// TestEpsilonFloorKeepsAllReachable: with every cluster demoted (no
// draw ever yields, and each cluster sees far more than
// DefaultDemoteAfter draws), the floor still reaches every pool index
// eventually.
func TestEpsilonFloorKeepsAllReachable(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(12, 9))
	s, err := New(seeds, Options{Strategy: Yield, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	seen := make(map[int]bool)
	for i := 0; i < 4000; i++ {
		idx := s.Pick(rng, len(seeds))
		seen[idx] = true
		s.Observe(idx, true, false) // nothing ever yields
	}
	for i := range seeds {
		if !seen[i] {
			t.Errorf("pool index %d never drawn despite the exploration floor", i)
		}
	}
}

// TestDemotionAndRepromotion: a stagnant cluster demotes after
// DefaultDemoteAfter observed failures and re-promotes on the next
// accept.
func TestDemotionAndRepromotion(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(8, 11))
	s, err := New(seeds, Options{Strategy: Yield, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultDemoteAfter; i++ {
		s.Observe(0, true, false)
	}
	ci := s.ClusterOf(0)
	st := s.ClusterStats()[ci]
	if !st.Demoted || st.Demotions != 1 {
		t.Fatalf("cluster %d after %d stagnant draws: %+v, want demoted once", ci, DefaultDemoteAfter, st)
	}
	s.Observe(0, true, true)
	st = s.ClusterStats()[ci]
	if st.Demoted {
		t.Fatalf("cluster %d still demoted after an accept: %+v", ci, st)
	}
	if st.Yield != 1 || st.Draws != DefaultDemoteAfter+1 {
		t.Fatalf("cluster %d counters: %+v, want draws=%d yield=1", ci, st, DefaultDemoteAfter+1)
	}
}

// TestAddSeedClassifyAgree: Classify predicts exactly what AddSeed
// does, and AddSeed extends the corpus without founding new clusters.
func TestAddSeedClassifyAgree(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(10, 13))
	s, err := New(seeds[:8], Options{Strategy: Clustered, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Clusters()
	runs := RunSeeds(seeds[8:], jvm.HotSpot9())
	for i, c := range seeds[8:] {
		want := s.Classify(runs[i])
		got := s.AddSeed(c, runs[i])
		if got != want {
			t.Fatalf("Classify %+v, AddSeed %+v", want, got)
		}
		if got.Cluster < 0 || got.Cluster >= before {
			t.Fatalf("AddSeed founded cluster %d (had %d)", got.Cluster, before)
		}
	}
	if s.Clusters() != before {
		t.Fatalf("cluster count changed: %d -> %d", before, s.Clusters())
	}
	if len(s.Corpus()) != 10 {
		t.Fatalf("corpus %d, want 10", len(s.Corpus()))
	}
	if s.ClusterOf(9) != s.Classify(runs[1]).Cluster {
		t.Error("ClusterOf disagrees with the recorded assignment")
	}
}

func TestClusterOfBounds(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(5, 2))
	s, err := New(seeds, Options{Strategy: Clustered, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ClusterOf(-1); got != -1 {
		t.Errorf("ClusterOf(-1) = %d", got)
	}
	if got := s.ClusterOf(len(seeds)); got != -1 {
		t.Errorf("ClusterOf(len) = %d", got)
	}
}

// TestTelemetryCounters: the campaign.seeds.* counters mirror the
// scheduler's own tallies.
func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.New()
	seeds := seedgen.Generate(seedgen.DefaultOptions(10, 3))
	s, err := New(seeds, Options{Strategy: Yield, RefSpec: jvm.HotSpot9(), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultDemoteAfter; i++ {
		s.Observe(0, true, false) // the last one demotes
	}
	s.Observe(0, true, true) // re-promotes
	snap := reg.Snapshot()
	if got := snap.Counter("campaign.seeds.draws"); got != DefaultDemoteAfter+1 {
		t.Errorf("campaign.seeds.draws = %d, want %d", got, DefaultDemoteAfter+1)
	}
	if got := snap.Counter("campaign.seeds.yield"); got != 1 {
		t.Errorf("campaign.seeds.yield = %d, want 1", got)
	}
	if got := snap.Counter("campaign.seeds.demotions"); got != 1 {
		t.Errorf("campaign.seeds.demotions = %d, want 1", got)
	}
}

// schedView is a scheduler's whole state, with traces by key.
type schedView struct {
	Seeds    int
	Runs     []SeedRun
	Assign   []int
	Clusters []clusterView
}

type clusterView struct {
	FP                      uint64
	Trace                   string
	Members                 []int
	SeedCount               int
	Draws, Yield, Demotions int64
	Since                   int
	Demoted                 bool
}

func view(s *Scheduler) schedView {
	v := schedView{Seeds: len(s.seeds), Runs: s.runs, Assign: s.assign}
	for _, c := range s.clusters {
		v.Clusters = append(v.Clusters, clusterView{
			FP: c.fp, Trace: fmt.Sprint(c.trace.Key()), Members: c.members, SeedCount: c.seedCount,
			Draws: c.draws, Yield: c.yield, Demotions: c.demotions, Since: c.since, Demoted: c.demoted,
		})
	}
	return v
}

// drive runs a fixed Pick/Observe/Grew sequence through s and returns
// its picks.
func drive(s *Scheduler, n int) []int {
	rng := rand.New(rand.NewSource(5))
	var picks []int
	for i := 0; i < 300; i++ {
		idx := s.Pick(rng, n)
		picks = append(picks, idx)
		accepted := i%7 == 0
		s.Observe(idx, true, accepted)
		if accepted {
			s.Grew(n, idx)
			n++
		}
	}
	return picks
}

// TestForkEqualsGrownIndex: a fork of n seeds from an index grown by
// AddSeed is the index as it stood at n seeds, with fresh draw state,
// and it draws exactly as that index would; driving a fork leaves the
// index and later forks untouched. A fork binds New's counter names.
func TestForkEqualsGrownIndex(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(14, 21))
	runs := RunSeeds(seeds[10:], jvm.HotSpot9())
	for _, strategy := range []Strategy{Clustered, Yield} {
		grow := func(k int) *Scheduler {
			s, err := New(seeds[:10], Options{Strategy: strategy, RefSpec: jvm.HotSpot9()})
			if err != nil {
				t.Fatal(err)
			}
			for i := range k {
				s.AddSeed(seeds[10+i], runs[i])
			}
			return s
		}
		idx := grow(4)
		before := view(idx)
		for k := 0; k <= 4; k++ {
			want := grow(k)
			reg := telemetry.New()
			f := idx.Fork(10+k, reg)
			if !reflect.DeepEqual(view(f), view(want)) {
				t.Fatalf("%s: fork of %d seeds differs from the index grown to it:\n%+v\n%+v", strategy, 10+k, view(f), view(want))
			}
			if got, wantPicks := drive(f, 10+k), drive(want, 10+k); !reflect.DeepEqual(got, wantPicks) {
				t.Fatalf("%s: fork of %d seeds draws differently from the grown index", strategy, 10+k)
			}
			if !reflect.DeepEqual(view(f), view(want)) {
				t.Fatalf("%s: driven fork of %d seeds diverges from the driven index", strategy, 10+k)
			}
			snap := reg.Snapshot()
			var sum int64
			for i := range f.Clusters() {
				sum += snap.Counter(ClusterMetric(i, "draws"))
			}
			if sum != 300 || snap.Counter("campaign.seeds.draws") != 300 {
				t.Fatalf("%s: fork counted %d cluster draws, %d in total, want 300", strategy, sum, snap.Counter("campaign.seeds.draws"))
			}
		}
		if !reflect.DeepEqual(view(idx), before) {
			t.Fatalf("%s: driving forks changed the index", strategy)
		}
	}
}
