package seedsel

import (
	"bytes"
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
	for _, bad := range []string{"", "Uniform", "random", "flat", "yield "} {
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
// cluster structure and serialized state.
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
	sa, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("serialized state differs:\n%s\n%s", sa, sb)
	}
	if a.Clusters() < 1 {
		t.Fatal("no clusters")
	}
}

// TestNewIdenticalAcrossGOMAXPROCS: the seed runs are spread over
// GOMAXPROCS goroutines, but each lands in its own slot and clustering
// runs after all of them, so a scheduler built on one core equals one
// built on four: serialized state, cluster table, the classification
// of every seed, and the recorded baselines.
func TestNewIdenticalAcrossGOMAXPROCS(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(60, 2))
	build := func(procs int) *Scheduler {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := New(seeds, Options{Strategy: Yield, RefSpec: jvm.HotSpot9()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	one, four := build(1), build(4)
	sa, err := one.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := four.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("serialized state differs:\n%s\n%s", sa, sb)
	}
	if !reflect.DeepEqual(one.ClusterStats(), four.ClusterStats()) {
		t.Fatalf("cluster stats differ:\n%+v\n%+v", one.ClusterStats(), four.ClusterStats())
	}
	for i, c := range seeds {
		if a, b := one.Classify(c), four.Classify(c); a != b {
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
	}
}

// TestBaselinesFollowRefSpec: baselines are handed out only for the
// spec they were recorded on, and AddSeed extends them with the corpus.
func TestBaselinesFollowRefSpec(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(10, 3))
	s, err := New(seeds[:8], Options{Strategy: Clustered, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Baselines(jvm.HotSpot8()); got != nil {
		t.Fatalf("Baselines(HotSpot8) of a HotSpot9 scheduler = %d traces, want nil", len(got))
	}
	s.AddSeed(seeds[8])
	s.AddSeed(seeds[9])
	got := s.Baselines(jvm.HotSpot9())
	if len(got) != len(s.Corpus()) {
		t.Fatalf("%d baselines for a %d-seed corpus", len(got), len(s.Corpus()))
	}
	for i, tr := range got {
		if tr == nil || tr.Key() != s.infos[i].key {
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

// TestEpsilonFloorKeepsAllReachable: with demotion active and one
// cluster never yielding, the floor still reaches every pool index
// eventually.
func TestEpsilonFloorKeepsAllReachable(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(12, 9))
	s, err := New(seeds, Options{Strategy: Yield, RefSpec: jvm.HotSpot9(), DemoteAfter: 5})
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
// DemoteAfter observed failures and re-promotes on the next accept.
func TestDemotionAndRepromotion(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(8, 11))
	s, err := New(seeds, Options{Strategy: Yield, RefSpec: jvm.HotSpot9(), DemoteAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Observe(0, true, false)
	}
	ci := s.ClusterOf(0)
	st := s.ClusterStats()[ci]
	if !st.Demoted || st.Demotions != 1 {
		t.Fatalf("cluster %d after 3 stagnant draws: %+v, want demoted once", ci, st)
	}
	s.Observe(0, true, true)
	st = s.ClusterStats()[ci]
	if st.Demoted {
		t.Fatalf("cluster %d still demoted after an accept: %+v", ci, st)
	}
	if st.Yield != 1 || st.Draws != 4 {
		t.Fatalf("cluster %d counters: %+v, want draws=4 yield=1", ci, st)
	}
}

// TestAddSeedClassifyAgree: Classify predicts exactly what AddSeed
// does, and AddSeed extends the corpus without founding new clusters.
func TestAddSeedClassifyAgree(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(10, 13))
	s, err := New(seeds[:8], Options{Strategy: Clustered, RefSpec: jvm.HotSpot9(), Base: 8})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Clusters()
	for _, c := range seeds[8:] {
		want := s.Classify(c)
		got := s.AddSeed(c)
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
	if s.ClusterOf(9) != s.Classify(seeds[9]).Cluster {
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
	s, err := New(seeds, Options{Strategy: Yield, RefSpec: jvm.HotSpot9(), DemoteAfter: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(0, true, false)
	s.Observe(0, true, false) // demotes
	s.Observe(0, true, true)  // re-promotes
	snap := reg.Snapshot()
	if got := snap.Counter("campaign.seeds.draws"); got != 3 {
		t.Errorf("campaign.seeds.draws = %d, want 3", got)
	}
	if got := snap.Counter("campaign.seeds.yield"); got != 1 {
		t.Errorf("campaign.seeds.yield = %d, want 1", got)
	}
	if got := snap.Counter("campaign.seeds.demotions"); got != 1 {
		t.Errorf("campaign.seeds.demotions = %d, want 1", got)
	}
}
