package difftest

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkDifftestSequentialReparse is the pre-engine baseline: every
// VM parses every class itself (5 parses per class). Kept runnable so
// the benchmark tables can quantify the engine's win against it.
func BenchmarkDifftestSequentialReparse(b *testing.B) {
	classes := mixedCorpus(b)
	r := NewStandardRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newSummary(r)
		for _, data := range classes {
			s.absorb(r.runSeparateParses(data))
		}
	}
}

// BenchmarkDifftestSequential is the parse-once engine at one worker.
func BenchmarkDifftestSequential(b *testing.B) {
	classes := mixedCorpus(b)
	r := NewStandardRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Evaluate(classes, Options{})
	}
}

// BenchmarkDifftestParallel4 is the engine over a four-worker pool.
func BenchmarkDifftestParallel4(b *testing.B) {
	classes := mixedCorpus(b)
	r := NewStandardRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Evaluate(classes, Options{Workers: 4})
	}
}

// keyViaFprintf is the historical Vector.Key implementation, kept as
// the micro-benchmark reference for the byte-append rewrite.
func keyViaFprintf(v Vector) string {
	var b strings.Builder
	for _, c := range v.Codes {
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

var benchKeyVector = Vector{Codes: []int{0, 0, 0, 1, 2}}

func BenchmarkVectorKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if benchKeyVector.Key() == "" {
			b.Fatal("empty key")
		}
	}
}

func BenchmarkVectorKeyFprintf(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if keyViaFprintf(benchKeyVector) == "" {
			b.Fatal("empty key")
		}
	}
}

// TestVectorKeyMatchesReference pins the fast Key to the historical
// rendering over every in-range vector shape.
func TestVectorKeyMatchesReference(t *testing.T) {
	vs := []Vector{
		{Codes: []int{}},
		{Codes: []int{0}},
		{Codes: []int{0, 0, 0, 1, 2}},
		{Codes: []int{4, 3, 2, 1, 0}},
		{Codes: []int{9, 9, 9, 9, 9}},
	}
	for _, v := range vs {
		if got, want := v.Key(), keyViaFprintf(v); got != want {
			t.Errorf("Key(%v) = %q, want %q", v.Codes, got, want)
		}
	}
}
