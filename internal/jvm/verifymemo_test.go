package jvm_test

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mutation"
	"repro/internal/prng"
	"repro/internal/rtlib"
	"repro/internal/seedgen"
	"repro/internal/telemetry"
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

// identVariants returns base followed by every ident that differs from
// it in exactly one place: each Policy field in turn, the bound
// library release, or the oracle.
func identVariants(t *testing.T, base jvm.VerifyIdent) []jvm.VerifyIdent {
	t.Helper()
	out := []jvm.VerifyIdent{base}
	pv := reflect.ValueOf(&base.Spec.Policy).Elem()
	for i := 0; i < pv.NumField(); i++ {
		v := base
		f := reflect.ValueOf(&v.Spec.Policy).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("Policy.%s: kind %s has no variant", pv.Type().Field(i).Name, f.Kind())
		}
		out = append(out, v)
	}
	env := base
	env.Env = rtlib.JRE7
	oracle := base
	oracle.Oracle = jvm.OracleDataflow
	return append(out, env, oracle)
}

// TestVerifyMemoIdentIsolation pins that a verdict stored under one
// verification context is never served to another: idents that differ
// only in one Policy field, in the library release or in the oracle get
// distinct IDs and miss each other's entries, while re-interning an
// equal ident returns the same ID.
func TestVerifyMemoIdentIsolation(t *testing.T) {
	base := jvm.VerifyIdent{Spec: jvm.HotSpot8(), Env: rtlib.JRE8, Oracle: jvm.OracleVM}
	idents := identVariants(t, base)
	key := jvm.MethodKey{Lo: 0x1234, Hi: 0x5678}
	memo := jvm.NewVerifyMemo()
	seen := map[jvm.VerifyID]int{}
	for i, id := range idents {
		vid := memo.Intern(id)
		if j, dup := seen[vid]; dup {
			t.Fatalf("idents %d and %d share ID %d", j, i, vid)
		}
		seen[vid] = i
		if _, hit := memo.Lookup(vid, key); hit {
			t.Fatalf("ident %d hit an entry stored under another ident", i)
		}
		// Ident i stores a rejection naming itself; only it may read it.
		memo.Store(vid, key, "", &jvm.Outcome{Phase: jvm.PhaseLinking, Message: strconv.Itoa(i)})
		if again := memo.Intern(id); again != vid {
			t.Fatalf("ident %d re-interned as %d, was %d", i, again, vid)
		}
	}
	for vid, i := range seen {
		out, hit := memo.Lookup(vid, key)
		if !hit || out == nil || out.Message != strconv.Itoa(i) {
			t.Fatalf("ident %d reads %+v (hit %v), want its own verdict", i, out, hit)
		}
	}
	if memo.Len() != len(idents) {
		t.Fatalf("Len %d, want %d", memo.Len(), len(idents))
	}
}

// TestVerifyMemoConcurrentProbeStore drives one memo from several
// goroutines over several idents and overlapping keys while another
// goroutine rebinds its telemetry; run it under -race. Every key ends
// up stored exactly once and every hit returns that key's verdict.
func TestVerifyMemoConcurrentProbeStore(t *testing.T) {
	memo := jvm.NewVerifyMemo()
	idents := []jvm.VerifyIdent{
		{Spec: jvm.HotSpot9(), Env: rtlib.JRE9, Oracle: jvm.OracleVM},
		{Spec: jvm.HotSpot9(), Env: rtlib.JRE9, Oracle: jvm.OracleDataflow},
		{Spec: jvm.GIJ(), Env: rtlib.Classpath, Oracle: jvm.OracleVM},
	}
	const keys, workers = 300, 8
	verdict := func(id jvm.VerifyID, k int) *jvm.Outcome {
		if k%3 == 0 {
			return nil
		}
		return &jvm.Outcome{Phase: jvm.PhaseLinking, Message: fmt.Sprint(id, "/", k)}
	}
	done := make(chan struct{})
	var rebinds sync.WaitGroup
	rebinds.Add(1)
	go func() {
		defer rebinds.Done()
		for {
			select {
			case <-done:
				return
			default:
				memo.UseTelemetry(telemetry.New())
				_ = memo.Stats()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < keys*len(idents); n++ {
				i := (n + w*keys/workers) % (keys * len(idents))
				id := memo.Intern(idents[i%len(idents)])
				k := i / len(idents)
				key := jvm.MethodKey{Lo: uint64(k) * 0x9e3779b97f4a7c15, Hi: uint64(k)}
				want := verdict(id, k)
				out, hit := memo.Lookup(id, key)
				if !hit {
					memo.Store(id, key, "", want)
					continue
				}
				if (out == nil) != (want == nil) || (out != nil && out.Message != want.Message) {
					t.Errorf("ident %d key %d: got %+v, want %+v", id, k, out, want)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	rebinds.Wait()
	if got, want := memo.Len(), keys*len(idents); got != want {
		t.Fatalf("Len %d, want %d distinct keys", got, want)
	}
}
