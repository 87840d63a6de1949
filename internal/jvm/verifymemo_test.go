package jvm_test

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/catalog"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mutation"
	"repro/internal/prng"
	"repro/internal/rtlib"
	"repro/internal/seedgen"
)

// memoCorpus builds the equivalence corpus: every catalog entry
// (curated discrepancy triggers) plus one lowered mutant per mutation
// operator — all 129 — from a deterministic seed pool. Unlowerable or
// inapplicable combinations are skipped; every mutation family still
// contributes because applicability is retried across seeds.
func memoCorpus(t *testing.T) [][]byte {
	t.Helper()
	var corpus [][]byte
	for _, e := range catalog.Entries() {
		data, err := e.Data()
		if err != nil {
			t.Fatalf("catalog %s: %v", e.ID, err)
		}
		corpus = append(corpus, data)
	}
	seeds := seedgen.Generate(seedgen.DefaultOptions(8, 3))
	for _, m := range mutation.Registry() {
		applied := false
		for si, s := range seeds {
			mutant := s.Clone()
			if !m.Apply(mutant, prng.Derive(11, uint64(m.ID), uint64(si))) {
				continue
			}
			f, err := jimple.Lower(mutant)
			if err != nil {
				continue
			}
			data, err := f.Bytes()
			if err != nil {
				continue
			}
			corpus = append(corpus, data)
			applied = true
			break
		}
		if !applied {
			t.Logf("mutator %s: inapplicable on every corpus seed (family still covered by others)", m.Name)
		}
	}
	return corpus
}

// TestVerifyMemoOutcomeEquivalence is the tentpole's correctness
// contract, proven the repository's way: for every corpus class and
// every one of the five presets, the memoised VM — cold (filling) and
// warm (hitting) — must produce the exact Outcome and the exact
// coverage trace of an unmemoised run. Zero waivers: any field of any
// outcome differing fails.
func TestVerifyMemoOutcomeEquivalence(t *testing.T) {
	corpus := memoCorpus(t)
	memo := jvm.NewVerifyMemo() // one shared memo across all five presets
	for _, spec := range jvm.StandardFive() {
		off := jvm.New(spec)
		cold := jvm.New(spec)
		cold.SetVerifyMemo(memo)
		warm := jvm.New(spec)
		warm.SetVerifyMemo(memo)
		for ci, data := range corpus {
			recOff := coverage.NewRecorder(jvm.ProbeRegistry())
			off.SetRecorder(recOff)
			want := off.Run(data)

			recCold := coverage.NewRecorder(jvm.ProbeRegistry())
			cold.SetRecorder(recCold)
			gotCold := cold.Run(data)

			recWarm := coverage.NewRecorder(jvm.ProbeRegistry())
			warm.SetRecorder(recWarm)
			gotWarm := warm.Run(data)

			if !reflect.DeepEqual(want, gotCold) {
				t.Fatalf("%s class %d: cold memo outcome diverged\n got %+v\nwant %+v", spec.Name, ci, gotCold, want)
			}
			if !reflect.DeepEqual(want, gotWarm) {
				t.Fatalf("%s class %d: warm memo outcome diverged\n got %+v\nwant %+v", spec.Name, ci, gotWarm, want)
			}
			if !recOff.Trace().EqualSets(recCold.Trace()) {
				t.Fatalf("%s class %d: cold memo trace diverged", spec.Name, ci)
			}
			if !recOff.Trace().EqualSets(recWarm.Trace()) {
				t.Fatalf("%s class %d: warm memo trace diverged", spec.Name, ci)
			}
		}
	}
	if memo.Len() == 0 {
		t.Fatal("memo stayed empty — the equivalence run never exercised it")
	}
}

// TestVerifyMemoStaticWarmEquivalence pins the shared key space: the
// static oracle (analysis.VerifyRejectMemo) and the VMs store verdicts
// under the same idents. A memo warmed only by the oracle's probe-less
// verdicts must leave a recorder-attached VM's outcomes and coverage
// traces exactly those of an unmemoised run, on every preset.
func TestVerifyMemoStaticWarmEquivalence(t *testing.T) {
	corpus := memoCorpus(t)
	memo := jvm.NewVerifyMemo()
	for _, spec := range jvm.StandardFive() {
		env := rtlib.Shared(spec.Release)
		for _, data := range corpus {
			f, err := classfile.Parse(data)
			if err != nil || analysis.LoadReject(f, &spec.Policy) != nil {
				continue
			}
			analysis.VerifyRejectMemo(f, spec, env, memo)
		}
	}
	if memo.Len() == 0 {
		t.Fatal("the static oracle stored no verdicts")
	}
	for _, spec := range jvm.StandardFive() {
		off := jvm.New(spec)
		on := jvm.New(spec)
		on.SetVerifyMemo(memo)
		for ci, data := range corpus {
			recOff := coverage.NewRecorder(jvm.ProbeRegistry())
			off.SetRecorder(recOff)
			want := off.Run(data)
			recOn := coverage.NewRecorder(jvm.ProbeRegistry())
			on.SetRecorder(recOn)
			got := on.Run(data)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s class %d: statically warmed memo outcome diverged\n got %+v\nwant %+v", spec.Name, ci, got, want)
			}
			if !recOff.Trace().EqualSets(recOn.Trace()) {
				t.Fatalf("%s class %d: statically warmed memo trace diverged", spec.Name, ci)
			}
		}
	}
}

// TestVerifyMemoRecorderlessEquivalence covers the probe-less lane
// (difftest lineups run without recorders): outcomes must match with
// and without a memo, cold and warm.
func TestVerifyMemoRecorderlessEquivalence(t *testing.T) {
	corpus := memoCorpus(t)
	memo := jvm.NewVerifyMemo()
	for _, spec := range jvm.StandardFive() {
		off := jvm.New(spec)
		on := jvm.New(spec)
		on.SetVerifyMemo(memo)
		for ci, data := range corpus {
			want := off.Run(data)
			for pass := 0; pass < 2; pass++ { // cold then warm
				if got := on.Run(data); !reflect.DeepEqual(want, got) {
					t.Fatalf("%s class %d pass %d: %+v != %+v", spec.Name, ci, pass, got, want)
				}
			}
		}
	}
}

// memoKeyClass builds a class whose single method body is fixed while
// the class name and one method name vary — the MethodKey unit probe.
func memoKeyClass(t *testing.T, clsName, methName string) (*classfile.File, *classfile.Member) {
	t.Helper()
	f := classfile.New(clsName)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, methName, "()V")
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{
		MaxStack: 1, MaxLocals: 1, Code: []byte{0xb1},
	})
	return f, m
}

// TestMethodKeySelfNameMasking pins the key's two edges at method
// granularity: classes identical up to the self-name (different
// lengths included) collide per method, and a single referenced-Utf8
// edit — the method's own name — separates them.
func TestMethodKeySelfNameMasking(t *testing.T) {
	env := rtlib.NewEnv(rtlib.JRE9)
	fa, ma := memoKeyClass(t, "Alpha", "go")
	fb, mb := memoKeyClass(t, "Mutant_00042", "go")
	ka, oka := jvm.NewVerifyKeyCtx(fa, env).Key(ma)
	kb, okb := jvm.NewVerifyKeyCtx(fb, env).Key(mb)
	if !oka || !okb {
		t.Fatal("keys not computable for Code-bearing methods")
	}
	if ka != kb {
		t.Fatalf("self-name-masked method keys diverged: %+v vs %+v", ka, kb)
	}
	fc, mc := memoKeyClass(t, "Alpha", "gp")
	kc, _ := jvm.NewVerifyKeyCtx(fc, env).Key(mc)
	if kc == ka {
		t.Fatal("single Utf8 edit did not change the method key")
	}
	// A method without Code has no verification input and no key.
	fd := classfile.New("Alpha")
	md := fd.AddMethod(classfile.AccPublic|classfile.AccStatic|classfile.AccAbstract, "go", "()V")
	if _, ok := jvm.NewVerifyKeyCtx(fd, env).Key(md); ok {
		t.Fatal("abstract method produced a verification key")
	}
}
