package seedsel

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/coverage"
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
		t.Error("New accepted the uniform strategy (it has no scheduler)")
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
	if len(a.clusters) != len(b.clusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a.clusters), len(b.clusters))
	}
	if !reflect.DeepEqual(a.ClusterStats(), b.ClusterStats()) {
		t.Fatalf("cluster tables differ:\n%+v\n%+v", a.ClusterStats(), b.ClusterStats())
	}
	if len(a.clusters) < 1 {
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
	recOne, recFour := one.pass.prefix(len(seeds)), four.pass.prefix(len(seeds))
	for i := range seeds {
		if a, b := one.pass.Cluster(recOne[i]), four.pass.Cluster(recFour[i]); a != b {
			t.Fatalf("seed %d: cluster %d at GOMAXPROCS 1, %d at 4", i, a, b)
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
			if r.Fingerprint != recOne[i].Fingerprint || (r.Trace == nil) != (ba[i] == nil) ||
				(r.Trace != nil && (r.Trace.Key() != ba[i].Key() || !r.Trace.EqualSets(ba[i]))) {
				t.Fatalf("seed %d: a seed pass differs from the baseline", i)
			}
		}
	}
}

// TestBaselinesFollowRefSpec: a pass records on its own spec only — a
// GIJ pass hands out GIJ's traces, a HotSpot 9 pass refuses a GIJ
// request rather than hand out its own — and Add extends the recorded
// traces with the corpus, running only the newcomers.
func TestBaselinesFollowRefSpec(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(10, 3))
	s, err := New(seeds[:8], Options{Strategy: Clustered, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatal(err)
	}
	if foreign := s.Baselines(jvm.GIJ()); foreign != nil {
		t.Fatalf("Baselines(GIJ) of a HotSpot 9 pass handed out %d traces", len(foreign))
	}
	gij := NewPass(seeds[:8], jvm.GIJ(), nil).Baselines(8, jvm.GIJ())
	want := Traces(RunSeeds(seeds[:8], jvm.GIJ()))
	own := s.Baselines(jvm.HotSpot9())
	differs := false
	for i, tr := range gij {
		if (tr == nil) != (want[i] == nil) || (tr != nil && (tr.Key() != want[i].Key() || !tr.EqualSets(want[i]))) {
			t.Fatalf("seed %d: a GIJ pass's baseline is not GIJ's seed run", i)
		}
		differs = differs || (tr != nil && !tr.EqualSets(own[i]))
	}
	if len(gij) != 8 || !differs {
		t.Fatalf("GIJ pass = %d traces, none differing from HotSpot 9's: the test cannot tell them apart", len(gij))
	}
	for _, c := range seeds[8:] {
		s.pass.Add(c, nil)
	}
	got := s.pass.Baselines(10, jvm.HotSpot9())
	fresh := Traces(RunSeeds(seeds[8:], jvm.HotSpot9()))
	for i, tr := range got {
		if i < 8 && tr != own[i] {
			t.Fatalf("seed %d: baseline is not the recorded trace", i)
		}
		if i >= 8 && (tr == nil || tr.Key() != fresh[i-8].Key()) {
			t.Fatalf("seed %d: the added seed's baseline is not its seed run", i)
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

// TestAddSeedClassifyAgree: Cluster predicts exactly where the index
// puts a seed Add appends, and added seeds found no new clusters.
func TestAddSeedClassifyAgree(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(10, 13))
	s, err := New(seeds[:8], Options{Strategy: Clustered, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatal(err)
	}
	p, before := s.pass, len(s.clusters)
	runs := RunSeeds(seeds[8:], jvm.HotSpot9())
	var want []int
	for i, c := range seeds[8:] {
		want = append(want, p.Cluster(runs[i]))
		p.Add(c, &runs[i])
	}
	grown := p.Source(Clustered, 10, nil).(*Scheduler)
	if len(grown.clusters) != before || len(p.idx.clusters) != before {
		t.Fatalf("cluster count changed: %d -> %d", before, len(grown.clusters))
	}
	if len(grown.Corpus()) != 10 {
		t.Fatalf("corpus %d, want 10", len(grown.Corpus()))
	}
	for i, ci := range want {
		if ci < 0 || ci >= before {
			t.Fatalf("Cluster founded cluster %d (had %d)", ci, before)
		}
		if got := grown.ClusterOf(8 + i); got != ci {
			t.Fatalf("seed %d: Cluster predicted %d, the index put it in cluster %d", 8+i, ci, got)
		}
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

func schedOf(s *Scheduler) schedView {
	v := schedView{Seeds: len(s.corpus), Assign: s.assign}
	if s.pass != nil { // the index serves no corpus
		v.Runs = s.pass.prefix(len(s.corpus))
	}
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

// TestForkEqualsGrownIndex: a fork of n seeds from a pass grown by Add
// is the scheduler of a pass grown to just n seeds, with fresh draw
// state, and it draws exactly as that one would; driving a fork leaves
// the index and later forks untouched. A fork binds New's counter
// names.
func TestForkEqualsGrownIndex(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(14, 21))
	runs := RunSeeds(seeds[10:], jvm.HotSpot9())
	for _, strategy := range []Strategy{Clustered, Yield} {
		grow := func(k int) *Pass {
			p := NewPass(seeds[:10], jvm.HotSpot9(), nil)
			for i := range k {
				p.Add(seeds[10+i], &runs[i])
			}
			return p
		}
		p := grow(4)
		p.Source(strategy, 10, nil)
		before := schedOf(p.idx)
		for k := 0; k <= 4; k++ {
			want := grow(k).Source(strategy, 10+k, nil).(*Scheduler)
			reg := telemetry.New()
			f := p.Source(strategy, 10+k, reg).(*Scheduler)
			if !reflect.DeepEqual(schedOf(f), schedOf(want)) {
				t.Fatalf("%s: fork of %d seeds differs from the pass grown to it:\n%+v\n%+v", strategy, 10+k, schedOf(f), schedOf(want))
			}
			if got, wantPicks := drive(f, 10+k), drive(want, 10+k); !reflect.DeepEqual(got, wantPicks) {
				t.Fatalf("%s: fork of %d seeds draws differently from the grown pass's", strategy, 10+k)
			}
			if !reflect.DeepEqual(schedOf(f), schedOf(want)) {
				t.Fatalf("%s: driven fork of %d seeds diverges from the driven one", strategy, 10+k)
			}
			snap := reg.Snapshot()
			var sum int64
			for i := range f.clusters {
				sum += snap.Counter(ClusterMetric(i, "draws"))
			}
			if sum != 300 || snap.Counter("campaign.seeds.draws") != 300 {
				t.Fatalf("%s: fork counted %d cluster draws, %d in total, want 300", strategy, sum, snap.Counter("campaign.seeds.draws"))
			}
		}
		if !reflect.DeepEqual(schedOf(p.idx), before) {
			t.Fatalf("%s: driving forks changed the index", strategy)
		}
	}
}

// TestPassConcurrentViews: engines on views of one pass, some of them
// covering seeds no request has run yet, read it concurrently while
// Add grows it. Every view of n seeds hands out the same traces as
// every other view that covers them, each equal to an explicit seed
// run, and the pass runs each seed once.
func TestPassConcurrentViews(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(24, 4))
	want := Traces(RunSeeds(seeds, jvm.HotSpot9()))
	reg := telemetry.New()
	p := NewPass(seeds[:12], jvm.HotSpot9(), reg)
	const readers = 8
	got := make([][]*coverage.Trace, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 6 + r%7
			if r%2 == 1 {
				n = len(p.Seeds())
			}
			got[r] = p.Baselines(n, jvm.HotSpot9())
			if r%3 == 0 {
				p.Source(Yield, n, nil)
			}
		}()
	}
	for _, c := range seeds[12:] {
		p.Add(c, nil)
	}
	wg.Wait()
	all := p.Baselines(len(seeds), jvm.HotSpot9())
	for i, tr := range all {
		if (tr == nil) != (want[i] == nil) || (tr != nil && (tr.Key() != want[i].Key() || !tr.EqualSets(want[i]))) {
			t.Fatalf("seed %d: the pass's baseline is not its seed run", i)
		}
	}
	for r, traces := range got {
		for i, tr := range traces {
			if tr != all[i] {
				t.Fatalf("reader %d, seed %d: a view handed out another trace than the pass's", r, i)
			}
		}
	}
	if n := reg.Snapshot().Counter("seedsel.seeds_run"); n != int64(len(seeds)) {
		t.Fatalf("the pass ran %d seeds for a %d-seed corpus", n, len(seeds))
	}
}

// TestPassConcurrentCluster: Cluster lookups run while another
// goroutine appends seeds with their runs and classifies each, as the
// daemon's intake handler and intake worker do. A lookup whose prefix
// an adoption overtook must not fail, and the index ends as a pass
// grown alone would have it.
func TestPassConcurrentCluster(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(18, 9))
	runs := RunSeeds(seeds[10:], jvm.HotSpot9())
	alone := NewPass(seeds[:10], jvm.HotSpot9(), nil)
	for i, c := range seeds[10:] {
		alone.Add(c, &runs[i])
	}
	want := alone.Source(Clustered, len(seeds), nil).(*Scheduler)

	p := NewPass(seeds[:10], jvm.HotSpot9(), nil)
	p.Source(Clustered, 10, nil)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if ci := p.Cluster(runs[i%len(runs)]); ci < 0 || ci >= len(want.clusters) {
					t.Errorf("Cluster = %d, outside the %d clusters", ci, len(want.clusters))
					return
				}
			}
		}()
	}
	for i, c := range seeds[10:] {
		p.Add(c, &runs[i])
		p.Cluster(runs[i])
	}
	close(done)
	wg.Wait()
	got := p.Source(Clustered, len(seeds), nil).(*Scheduler)
	if !reflect.DeepEqual(got.assign, want.assign) || !reflect.DeepEqual(p.idx.ClusterStats(), alone.idx.ClusterStats()) {
		t.Fatalf("concurrent lookups changed the index:\n%v\n%v", got.assign, want.assign)
	}
}
