package jimple_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mutation"
	"repro/internal/seedgen"
)

// FuzzLowerRoundTrip checks the lower-then-execute contract the
// campaign rests on. It parses the input, lifts it to Jimple,
// optionally applies the mutator a fuzz byte selects (values past the
// registry lower the lifted class as is), lowers it through a reused
// context and writes it. The written File must equal Parse of its
// bytes, and the reference VM must report the same outcome and coverage
// trace running that File as running the bytes. The lift → lower →
// parse path is also a differential oracle of its own: every input the
// lifter accepts must lower to a class that parses. The seed corpus
// lives in testdata/fuzz/FuzzLowerRoundTrip.
func FuzzLowerRoundTrip(f *testing.F) {
	seeds, err := seedgen.GenerateFiles(seedgen.DefaultOptions(8, 1))
	if err != nil {
		f.Fatal(err)
	}
	for i, s := range seeds {
		f.Add(s, byte(i*31), int64(i))
	}

	muts := mutation.Registry()
	lctx := jimple.NewLowerCtx()
	vm := jvm.New(jvm.HotSpot9())
	rec := coverage.NewRecorder(jvm.ProbeRegistry())
	vm.SetRecorder(rec)
	f.Fuzz(func(t *testing.T, data []byte, mut byte, seed int64) {
		g, err := classfile.Parse(data)
		if err != nil {
			return
		}
		c, err := jimple.Lift(g)
		if err != nil {
			return
		}
		if int(mut) < len(muts) {
			muts[mut].Apply(c, rand.New(rand.NewSource(seed)))
		}
		lowered, err := lctx.Lower(c)
		if err != nil {
			return
		}
		out, err := lowered.AppendBytes(nil)
		if err != nil {
			return // the container format cannot hold the class
		}
		parsed, err := classfile.Parse(out)
		if err != nil {
			t.Fatalf("lowered class does not parse: %v", err)
		}
		if !classfile.Equal(lowered, parsed) {
			t.Fatalf("written File differs from Parse of its bytes:\n%s\nparsed:\n%s", lowered.Dump(), parsed.Dump())
		}

		rec.Reset()
		got := vm.RunParsed(lowered)
		gotTrace := rec.Trace()
		rec.Reset()
		want := vm.Run(out)
		wantTrace := rec.Trace()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RunParsed on the lowered File: %v; Run on its bytes: %v", got, want)
		}
		if !gotTrace.EqualSets(wantTrace) || gotTrace.Key() != wantTrace.Key() {
			t.Fatal("RunParsed on the lowered File and Run on its bytes record different traces")
		}
	})
}
