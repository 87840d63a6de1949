package jimple_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/jimple"
	"repro/internal/seedgen"
)

// TestLowerCtxCodeBuffer pins the code buffer a LowerCtx assembles
// code arrays into. Through one context, in corpus order and then in
// reverse, every class writes the bytes a one-shot Lower writes, and
// every code array is capacity-limited, so appending to one cannot
// reach the next. Once warm, lowering the corpus again allocates fewer
// times than it has code arrays: the arrays come from the buffer.
func TestLowerCtxCodeBuffer(t *testing.T) {
	corpus := seedgen.Generate(seedgen.DefaultOptions(60, 3))
	want := make([][]byte, len(corpus))
	for i, c := range corpus {
		f, err := jimple.Lower(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if want[i], err = f.Bytes(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
	ctx := jimple.NewLowerCtx()
	codeArrays := 0
	order := make([]int, len(corpus))
	for i := range order {
		order[i] = i
	}
	for pass := 0; pass < 2; pass++ {
		for _, i := range order {
			f, err := ctx.Lower(corpus[i])
			if err != nil {
				t.Fatalf("%s: %v", corpus[i].Name, err)
			}
			for _, m := range f.Methods {
				if code := m.Code(); code != nil && len(code.Code) > 0 {
					if cap(code.Code) != len(code.Code) {
						t.Fatalf("%s: a code array of %d bytes has capacity %d", corpus[i].Name, len(code.Code), cap(code.Code))
					}
					if pass == 0 {
						codeArrays++
					}
				}
			}
			got, err := f.Bytes()
			if err != nil {
				t.Fatalf("%s: %v", corpus[i].Name, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("%s (pass %d): bytes through a reused context differ from a one-shot Lower", corpus[i].Name, pass)
			}
		}
		slices.Reverse(order)
	}
	allocs := testing.AllocsPerRun(2, func() {
		for _, c := range corpus {
			if _, err := ctx.Lower(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs >= float64(codeArrays) {
		t.Errorf("a warm context allocates %.0f times lowering the corpus's %d code arrays", allocs, codeArrays)
	}
}
