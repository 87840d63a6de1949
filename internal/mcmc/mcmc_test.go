package mcmc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/telemetry"
)

func TestPBoundsMatchPaper(t *testing.T) {
	lo, hi, err := PBounds(129, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports the feasible range as (0.022, 0.025).
	if lo < 0.020 || lo > 0.025 {
		t.Errorf("lo = %g, want ≈0.022-0.023", lo)
	}
	if hi < 0.023 || hi > 0.027 {
		t.Errorf("hi = %g, want ≈0.025", hi)
	}
	p := DefaultP(129)
	if math.Abs(p-0.023255) > 1e-4 {
		t.Errorf("DefaultP(129) = %g, want ≈0.0233", p)
	}
	if p < lo || p > hi {
		t.Errorf("p = 3/129 = %g must lie inside (%g, %g)", p, lo, hi)
	}
}

func TestPBoundsInfeasible(t *testing.T) {
	// Huge eps makes condition 3 unsatisfiable together with 1.
	if _, _, err := PBounds(129, 0.5); err == nil {
		t.Error("expected infeasibility")
	}
}

func TestGeometricDistribution(t *testing.T) {
	p := 0.25
	if Geometric(p, 1) != p {
		t.Errorf("Pr(X=1) = %g, want %g", Geometric(p, 1), p)
	}
	if Geometric(p, 0) != 0 {
		t.Error("Pr(X=0) must be 0")
	}
	sum := 0.0
	for k := 1; k <= 200; k++ {
		sum += Geometric(p, k)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("geometric mass sums to %g", sum)
	}
	if !(Geometric(p, 1) > Geometric(p, 2) && Geometric(p, 2) > Geometric(p, 3)) {
		t.Error("geometric mass must decrease in k")
	}
}

func TestSamplerAlwaysAcceptsBetterRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSampler(10, DefaultP(10), rng)
	// Give mutator 7 a perfect record so it ranks first.
	s.selected[7] = 10
	s.succeeded[7] = 10
	s.Record(7, false) // trigger resort
	if s.Rank(7) != 0 {
		t.Fatalf("mutator 7 should rank first, got %d", s.Rank(7))
	}
}

func TestSamplerConvergesTowardSuccessfulMutators(t *testing.T) {
	// Simulate a world where low-id mutators succeed more often; after
	// many steps the selection frequency must be monotone-ish in the
	// underlying success probability.
	rng := rand.New(rand.NewSource(42))
	n := 10
	s := NewSampler(n, DefaultP(n), rng)
	succProb := func(id int) float64 { return 1 - float64(id)/float64(n) }
	for i := 0; i < 20000; i++ {
		id := s.Next(rng)
		s.Record(id, rng.Float64() < succProb(id))
	}
	// The best mutator must be selected far more often than the worst.
	if s.Frequency(0) < 2*s.Frequency(n-1) {
		t.Errorf("frequency(best)=%g should dominate frequency(worst)=%g",
			s.Frequency(0), s.Frequency(n-1))
	}
	// And ranks should reflect the success ordering at least at the ends.
	if s.Rank(0) > n/2 {
		t.Errorf("best mutator ranked %d", s.Rank(0))
	}
	if s.Rank(n-1) < n/2 {
		t.Errorf("worst mutator ranked %d", s.Rank(n-1))
	}
}

func TestSamplerEveryMutatorKeepsAChance(t *testing.T) {
	// Condition 3 of the parameter estimation: even the worst-ranked
	// mutator must still be selected occasionally.
	rng := rand.New(rand.NewSource(7))
	n := 20
	s := NewSampler(n, DefaultP(n), rng)
	for i := 0; i < 5000; i++ {
		id := s.Next(rng)
		s.Record(id, id == 0) // only mutator 0 ever succeeds
	}
	for id := 0; id < n; id++ {
		if s.Selected(id) == 0 {
			t.Errorf("mutator %d was never selected", id)
		}
	}
}

// TestInstrumentGaugesTrackCounts asserts the telemetry attachment is
// observe-only and the gauges mirror Selected/Succeeded exactly: two
// identically-seeded chains, one instrumented, draw identical streams,
// and the gauges end equal to the bookkeeping.
func TestInstrumentGaugesTrackCounts(t *testing.T) {
	const n = 8
	reg := telemetry.New()
	selG := make([]*telemetry.Gauge, n)
	succG := make([]*telemetry.Gauge, n)
	for i := 0; i < n; i++ {
		selG[i] = reg.Gauge(fmt.Sprintf("mcmc.%d.selected", i))
		succG[i] = reg.Gauge(fmt.Sprintf("mcmc.%d.succeeded", i))
	}

	plainRNG := rand.New(rand.NewSource(9))
	plain := NewSampler(n, DefaultP(n), plainRNG)
	instRNG := rand.New(rand.NewSource(9))
	inst := NewSampler(n, DefaultP(n), instRNG)
	inst.Instrument(selG, succG)

	for i := 0; i < 2000; i++ {
		a := plain.Next(plainRNG)
		b := inst.Next(instRNG)
		if a != b {
			t.Fatalf("iteration %d: instrumented chain diverged (%d vs %d)", i, b, a)
		}
		plain.Record(a, a%3 == 0)
		inst.Record(b, b%3 == 0)
	}

	s := reg.Snapshot()
	for id := 0; id < n; id++ {
		if got := s.Gauge(fmt.Sprintf("mcmc.%d.selected", id)); got != int64(inst.Selected(id)) {
			t.Errorf("selected gauge %d = %d, want %d", id, got, inst.Selected(id))
		}
		if got := s.Gauge(fmt.Sprintf("mcmc.%d.succeeded", id)); got != int64(inst.Succeeded(id)) {
			t.Errorf("succeeded gauge %d = %d, want %d", id, got, inst.Succeeded(id))
		}
	}
}

func TestSuccessRateBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSampler(5, 0.3, rng)
	s.selected[2] = 4
	s.succeeded[2] = 3
	if got := s.SuccessRate(2); got != 0.75 {
		t.Errorf("SuccessRate = %g, want 0.75", got)
	}
	if s.SuccessRate(4) != 0 {
		t.Error("never-selected mutator must have rate 0")
	}
}

func TestResortStableAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSampler(6, 0.3, rng)
	for id := 0; id < 6; id++ {
		s.selected[id] = 10
	}
	s.succeeded[3] = 10 // rate 1.0
	s.succeeded[1] = 5  // rate 0.5
	s.Record(0, false)
	order := s.Order()
	if order[0] != 3 || order[1] != 1 {
		t.Errorf("order = %v", order)
	}
	// Ties (rate 0) keep id order.
	if order[2] != 0 || order[3] != 2 || order[4] != 4 || order[5] != 5 {
		t.Errorf("tie order = %v", order)
	}
	// rank is the inverse of order.
	for r, id := range order {
		if s.Rank(id) != r {
			t.Errorf("rank(%d) = %d, want %d", id, s.Rank(id), r)
		}
	}
}

// TestResortMatchesStableSort drives samplers through random Next and
// Record sequences and checks, after every Record, that the ranks equal
// what the former sort.SliceStable re-sort produces from the same
// previous order. Small mutator counts and counts make equal rates
// (1/2 and 2/4 alike) common, and Records of ids drawn at random give
// never-selected mutators successes at rate zero.
func TestResortMatchesStableSort(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		s := NewSampler(n, DefaultP(n), rng)
		ref := s.Order()
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 {
				s.Next(rng)
				continue
			}
			s.Record(rng.Intn(n), rng.Intn(3) == 0)
			sort.SliceStable(ref, func(a, b int) bool {
				ra, rb := s.SuccessRate(ref[a]), s.SuccessRate(ref[b])
				if ra != rb {
					return ra > rb
				}
				return ref[a] < ref[b]
			})
			if got := s.Order(); !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d step %d: order %v, stable sort gives %v", seed, step, got, ref)
			}
			for r, id := range ref {
				if s.Rank(id) != r {
					t.Fatalf("seed %d step %d: rank(%d) = %d, want %d", seed, step, id, s.Rank(id), r)
				}
			}
		}
	}
}

func TestUniformSamplerIsUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 8
	u := NewUniformSampler(n)
	for i := 0; i < 16000; i++ {
		u.Record(u.Next(rng), true)
	}
	for id := 0; id < n; id++ {
		f := u.Frequency(id)
		if f < 0.10 || f > 0.15 {
			t.Errorf("uniform frequency(%d) = %g, want ≈0.125", id, f)
		}
	}
}

func TestSamplerDeterministicGivenSeed(t *testing.T) {
	mk := func() []int {
		rng := rand.New(rand.NewSource(99))
		s := NewSampler(12, DefaultP(12), rng)
		var ids []int
		for i := 0; i < 200; i++ {
			id := s.Next(rng)
			ids = append(ids, id)
			s.Record(id, id%3 == 0)
		}
		return ids
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNewSamplerPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	NewSampler(0, 0.1, rand.New(rand.NewSource(1)))
}
