package coverage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// mkTrace builds a trace over reg covering the named statement probes
// and branch edges ("name:T" / "name:F").
func mkTrace(reg *Registry, stmts, branches []string) *Trace {
	r := NewRecorder(reg)
	for _, s := range stmts {
		r.Stmt(reg.Stmt(s))
	}
	for _, b := range branches {
		name, taken := splitEdge(b)
		r.Branch(reg.Branch(name), taken)
	}
	return r.Trace()
}

func splitEdge(edge string) (string, bool) {
	if name, ok := strings.CutSuffix(edge, ":F"); ok {
		return name, false
	}
	return strings.TrimSuffix(edge, ":T"), true
}

func TestRegistryInterning(t *testing.T) {
	reg := NewRegistry()
	a := reg.Stmt("a")
	b := reg.Stmt("b")
	if a == b {
		t.Error("distinct names must intern to distinct indices")
	}
	if reg.Stmt("a") != a {
		t.Error("interning must be stable")
	}
	if reg.StmtName(a) != "a" || reg.StmtName(b) != "b" {
		t.Error("name resolution wrong")
	}
	x := reg.Branch("x")
	if reg.BranchName(x) != "x" {
		t.Error("branch name resolution wrong")
	}
	if reg.EdgeName(2*uint32(x)) != "x:T" || reg.EdgeName(2*uint32(x)+1) != "x:F" {
		t.Error("edge rendering wrong")
	}
	if reg.NumStmts() != 2 || reg.NumBranches() != 1 {
		t.Errorf("sizes = %d/%d, want 2/1", reg.NumStmts(), reg.NumBranches())
	}
	p := reg.Probe("a")
	if p.Stmt != a || reg.BranchName(p.Branch) != "a" {
		t.Error("Probe must intern into both spaces under one name")
	}
}

func TestRecorderBasics(t *testing.T) {
	reg := NewRegistry()
	r := NewRecorder(reg)
	a, b := reg.Stmt("a"), reg.Stmt("b")
	x, y := reg.Branch("x"), reg.Branch("y")
	r.Stmt(a)
	r.Stmt(a)
	r.Stmt(b)
	r.Branch(x, true)
	r.Branch(x, false)
	r.Branch(y, true)
	tr := r.Trace()
	if got := tr.Stats(); got.Stmts != 2 || got.Branches != 3 {
		t.Errorf("stats = %v, want 2/3", got)
	}
	if !tr.HasStmt(a) || !tr.HasEdge(x, true) || !tr.HasEdge(x, false) || !tr.HasEdge(y, true) {
		t.Error("probe sets wrong")
	}
	if tr.HasEdge(y, false) {
		t.Error("unhit edge must not be covered")
	}
	r.Reset()
	if got := r.Trace().Stats(); got.Stmts != 0 || got.Branches != 0 {
		t.Error("reset did not clear")
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Stmt(0)         // must not panic
	r.Branch(0, true) // must not panic
}

func TestRecorderGrowsWithRegistry(t *testing.T) {
	reg := NewRegistry()
	r := NewRecorder(reg)
	// Probes interned after the recorder was built must still record.
	late := reg.Stmt("late")
	lateBr := reg.Branch("late.br")
	r.Stmt(late)
	r.Branch(lateBr, false)
	tr := r.Trace()
	if !tr.HasStmt(late) || !tr.HasEdge(lateBr, false) {
		t.Error("recorder must grow to late-interned probes")
	}
}

func TestTraceSnapshotIsolation(t *testing.T) {
	reg := NewRegistry()
	r := NewRecorder(reg)
	a, b := reg.Stmt("a"), reg.Stmt("b")
	r.Stmt(a)
	tr := r.Trace()
	r.Stmt(b)
	if tr.HasStmt(b) {
		t.Error("trace must be a snapshot, not a live view")
	}
}

func TestMergeIsUnion(t *testing.T) {
	reg := NewRegistry()
	a := mkTrace(reg, []string{"s1", "s2"}, []string{"b1:T"})
	b := mkTrace(reg, []string{"s2", "s3"}, []string{"b1:F", "b2:T"})
	m := Merge(a, b)
	if got := m.Stats(); got.Stmts != 3 || got.Branches != 3 {
		t.Errorf("merge stats = %v", got)
	}
}

func TestEqualSets(t *testing.T) {
	reg := NewRegistry()
	a := mkTrace(reg, []string{"s1", "s2"}, []string{"b1:T"})
	b := mkTrace(reg, []string{"s2", "s1"}, []string{"b1:T"})
	c := mkTrace(reg, []string{"s1", "s3"}, []string{"b1:T"})
	d := mkTrace(reg, []string{"s1", "s2"}, []string{"b1:F"})
	if !a.EqualSets(b) {
		t.Error("order must not matter")
	}
	if a.EqualSets(c) || a.EqualSets(d) {
		t.Error("different sets must not be equal")
	}
}

func TestEqualSetsAcrossRegistryGrowth(t *testing.T) {
	// A trace snapshotted before the registry grew has shorter bitsets;
	// comparisons must treat the missing trailing words as zeros.
	reg := NewRegistry()
	early := mkTrace(reg, []string{"s1"}, nil)
	for i := 0; i < 200; i++ {
		reg.Stmt(fmt.Sprintf("pad%d", i))
	}
	late := mkTrace(reg, []string{"s1"}, nil)
	if !early.EqualSets(late) || !late.EqualSets(early) {
		t.Error("trailing zero words must be insignificant")
	}
	if early.Key() != late.Key() {
		t.Error("keys must be insensitive to bitset length")
	}
	wide := mkTrace(reg, []string{"s1", "pad199"}, nil)
	if early.EqualSets(wide) || wide.EqualSets(early) {
		t.Error("a high bit must break set equality in both directions")
	}
}

func TestMergeIdentityMatchesEqualSets(t *testing.T) {
	// The [tr] definition: tr_a.stmt = tr_b.stmt = (tr_a ⊕ tr_b).stmt.
	reg := NewRegistry()
	a := mkTrace(reg, []string{"s1", "s2"}, []string{"b1:T"})
	b := mkTrace(reg, []string{"s1", "s2"}, []string{"b1:T"})
	m := Merge(a, b)
	same := a.Stats() == b.Stats() && b.Stats() == m.Stats()
	if same != a.EqualSets(b) {
		t.Error("merge-identity check disagrees with EqualSets on equal traces")
	}
	c := mkTrace(reg, []string{"s1", "s3"}, []string{"b1:T"})
	m2 := Merge(a, c)
	same2 := a.Stats() == c.Stats() && c.Stats() == m2.Stats()
	if same2 != a.EqualSets(c) {
		t.Error("merge-identity check disagrees with EqualSets on distinct traces")
	}
}

func TestCriterionST(t *testing.T) {
	reg := NewRegistry()
	s := NewSuite(ST)
	a := mkTrace(reg, []string{"s1", "s2"}, []string{"b1:T"})
	if !s.Unique(a) {
		t.Error("first trace must be unique")
	}
	s.Add(a)
	// Same stmt count, different branch count: [st] rejects.
	b := mkTrace(reg, []string{"x1", "x2"}, []string{"b1:T", "b2:T"})
	if s.Unique(b) {
		t.Error("[st] must reject same statement count")
	}
	c := mkTrace(reg, []string{"s1", "s2", "s3"}, nil)
	if !s.Unique(c) {
		t.Error("[st] must accept new statement count")
	}
}

func TestCriterionSTBR(t *testing.T) {
	reg := NewRegistry()
	s := NewSuite(STBR)
	// The paper's example: coverage 4938/2604 vs 4938/2655 — [st] takes
	// one, [stbr] takes both.
	a := mkTrace(reg, []string{"s1", "s2"}, []string{"b1:T"})
	s.Add(a)
	b := mkTrace(reg, []string{"x1", "x2"}, []string{"b1:T", "b2:T"})
	if !s.Unique(b) {
		t.Error("[stbr] must accept same stmts but different branches")
	}
	s.Add(b)
	c := mkTrace(reg, []string{"y1", "y2"}, []string{"z:T"})
	if s.Unique(c) {
		t.Error("[stbr] must reject duplicate stats pair")
	}
}

func TestCriterionTR(t *testing.T) {
	reg := NewRegistry()
	s := NewSuite(TR)
	a := mkTrace(reg, []string{"s1", "s2"}, []string{"b1:T"})
	s.Add(a)
	// Same stats pair but different set: [tr] accepts, [stbr] would not.
	b := mkTrace(reg, []string{"s1", "s3"}, []string{"b2:T"})
	if !s.Unique(b) {
		t.Error("[tr] must accept same stats with different sets")
	}
	s.Add(b)
	dup := mkTrace(reg, []string{"s2", "s1"}, []string{"b1:T"})
	if s.Unique(dup) {
		t.Error("[tr] must reject identical sets")
	}
}

func TestCriterionStrengthOrdering(t *testing.T) {
	// [tr] accepts a superset of [stbr], which accepts a superset of [st].
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(7))
	st, stbr, tr := NewSuite(ST), NewSuite(STBR), NewSuite(TR)
	accST, accSTBR, accTR := 0, 0, 0
	for i := 0; i < 400; i++ {
		var stmts, brs []string
		for j := 0; j < 1+rng.Intn(10); j++ {
			stmts = append(stmts, fmt.Sprintf("s%d", rng.Intn(12)))
		}
		for j := 0; j < rng.Intn(8); j++ {
			brs = append(brs, fmt.Sprintf("b%d:T", rng.Intn(10)))
		}
		trc := mkTrace(reg, stmts, brs)
		if st.Unique(trc) {
			st.Add(trc)
			accST++
		}
		if stbr.Unique(trc) {
			stbr.Add(trc)
			accSTBR++
		}
		if tr.Unique(trc) {
			tr.Add(trc)
			accTR++
		}
	}
	if !(accST <= accSTBR && accSTBR <= accTR) {
		t.Errorf("acceptance ordering violated: st=%d stbr=%d tr=%d", accST, accSTBR, accTR)
	}
	if accST == 0 {
		t.Error("no traces accepted at all")
	}
}

func TestSuiteSizeAndUniqueStats(t *testing.T) {
	reg := NewRegistry()
	s := NewSuite(TR)
	a := mkTrace(reg, []string{"s1"}, nil)
	b := mkTrace(reg, []string{"s2"}, nil) // same stats (1/0), different set
	s.Add(a)
	s.Add(b)
	if s.Size() != 2 {
		t.Errorf("size = %d", s.Size())
	}
	if s.UniqueStatsCount() != 1 {
		t.Errorf("unique stats = %d, want 1", s.UniqueStatsCount())
	}
}

// TestAddStatsMatchesAdd pins that a statistics-census suite ([st] or
// [stbr]) fed only statistic pairs is indistinguishable from one fed
// the traces themselves: same Size, same UniqueStatsCount, same Unique
// verdicts. The campaign's GenClasses census relies on this to keep no
// trace alive.
func TestAddStatsMatchesAdd(t *testing.T) {
	for _, c := range []Criterion{ST, STBR} {
		reg := NewRegistry()
		rng := rand.New(rand.NewSource(11))
		byTrace, byStats := NewSuite(c), NewSuite(c)
		for i := 0; i < 300; i++ {
			var stmts, brs []string
			for j := 0; j < 1+rng.Intn(6); j++ {
				stmts = append(stmts, fmt.Sprintf("s%d", rng.Intn(8)))
			}
			for j := 0; j < rng.Intn(5); j++ {
				brs = append(brs, fmt.Sprintf("b%d:T", rng.Intn(6)))
			}
			tr := mkTrace(reg, stmts, brs)
			if byTrace.Unique(tr) != byStats.Unique(tr) {
				t.Fatalf("%v: trace %d: Unique disagrees", c, i)
			}
			byTrace.Add(tr)
			byStats.AddStats(tr.Stats())
		}
		if byTrace.Size() != byStats.Size() {
			t.Errorf("%v: Size %d via Add, %d via AddStats", c, byTrace.Size(), byStats.Size())
		}
		if byTrace.UniqueStatsCount() != byStats.UniqueStatsCount() {
			t.Errorf("%v: UniqueStatsCount %d via Add, %d via AddStats", c, byTrace.UniqueStatsCount(), byStats.UniqueStatsCount())
		}
	}
}

func TestKeyCanonical(t *testing.T) {
	reg := NewRegistry()
	a := mkTrace(reg, []string{"s1", "s2"}, []string{"b:T"})
	b := mkTrace(reg, []string{"s2", "s1"}, []string{"b:T"})
	if a.Key() != b.Key() {
		t.Error("keys must be order-insensitive")
	}
	// The stmt/branch split is part of the key: the same index covered
	// as a statement vs as a branch edge must hash differently.
	c := mkTrace(reg, []string{"s1"}, []string{"s2:T", "b:T"})
	if a.Key() == c.Key() {
		t.Error("stmt/branch split must be part of the key")
	}
	d := mkTrace(reg, []string{"s1", "s2"}, []string{"b:F"})
	if a.Key() == d.Key() {
		t.Error("edge direction must be part of the key")
	}
}

func TestStmtAndEdgeIDs(t *testing.T) {
	reg := NewRegistry()
	s1, s2 := reg.Stmt("s1"), reg.Stmt("s2")
	x := reg.Branch("x")
	tr := mkTrace(reg, []string{"s2", "s1"}, []string{"x:F"})
	ids := tr.StmtIDs()
	if len(ids) != 2 || ids[0] != s1 || ids[1] != s2 {
		t.Errorf("StmtIDs = %v, want [%d %d]", ids, s1, s2)
	}
	edges := tr.EdgeIDs()
	if len(edges) != 1 || edges[0] != 2*uint32(x)+1 {
		t.Errorf("EdgeIDs = %v, want [%d]", edges, 2*uint32(x)+1)
	}
	if reg.EdgeName(edges[0]) != "x:F" {
		t.Errorf("EdgeName = %q, want x:F", reg.EdgeName(edges[0]))
	}
}

func TestCriterionString(t *testing.T) {
	if ST.String() != "[st]" || STBR.String() != "[stbr]" || TR.String() != "[tr]" {
		t.Error("criterion names wrong")
	}
}

// Property: a trace already in the suite is never unique again, under
// any criterion.
func TestPropertyAddedNeverUnique(t *testing.T) {
	reg := NewRegistry()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range []Criterion{ST, STBR, TR} {
			s := NewSuite(c)
			var stmts, brs []string
			for j := 0; j < 1+rng.Intn(6); j++ {
				stmts = append(stmts, fmt.Sprintf("s%d", rng.Intn(20)))
			}
			for j := 0; j < rng.Intn(6); j++ {
				brs = append(brs, fmt.Sprintf("b%d:F", rng.Intn(20)))
			}
			tr := mkTrace(reg, stmts, brs)
			s.Add(tr)
			if s.Unique(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Merge is commutative and idempotent, and the union contains
// both operands.
func TestPropertyMergeAlgebra(t *testing.T) {
	reg := NewRegistry()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Trace {
			var stmts, brs []string
			for j := 0; j < rng.Intn(10); j++ {
				stmts = append(stmts, fmt.Sprintf("s%d", rng.Intn(15)))
			}
			for j := 0; j < rng.Intn(10); j++ {
				brs = append(brs, fmt.Sprintf("b%d:T", rng.Intn(15)))
			}
			return mkTrace(reg, stmts, brs)
		}
		a, b := mk(), mk()
		if !Merge(a, b).EqualSets(Merge(b, a)) {
			return false
		}
		if !Merge(a, a).EqualSets(a) {
			return false
		}
		// Union contains both operands.
		m := Merge(a, b)
		for _, id := range a.StmtIDs() {
			if !m.HasStmt(id) {
				return false
			}
		}
		for _, e := range b.EdgeIDs() {
			if !m.HasEdge(BranchID(e/2), e%2 == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParseCriterion: every criterion's flag value — its String
// without the brackets — parses back to it; anything else is an error.
func TestParseCriterion(t *testing.T) {
	for _, c := range []Criterion{ST, STBR, TR} {
		name := strings.Trim(c.String(), "[]")
		if got, err := ParseCriterion(name); err != nil || got != c {
			t.Errorf("ParseCriterion(%q) = %v, %v, want %v", name, got, err, c)
		}
	}
	for _, bad := range []string{"", "STBR", "br", "[stbr]"} {
		if _, err := ParseCriterion(bad); err == nil {
			t.Errorf("ParseCriterion(%q) accepted", bad)
		}
	}
}
