package campaign

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/classfile"
	"repro/internal/descriptor"
	"repro/internal/jimple"
)

// TestCampaignAllocsFlatAcrossWorkers pins per-worker arena reuse:
// allocations per iteration must not grow with the worker count. Before
// it each in-flight iteration allocated its own lowering context,
// buffers and recorder scratch, so allocations climbed with
// parallelism. The test compares the marginal per-iteration count,
// (A(w,3N) − A(w,N)) / 2N, which cancels each worker's fixed arenas —
// an iteration costs few enough allocations that those fixed costs no
// longer amortise away over one short campaign.
func TestCampaignAllocsFlatAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is slow")
	}
	const n = 160
	allocs := func(w, iters int) float64 {
		cfg := detConfig(Classfuzz)
		cfg.Workers = w
		cfg.Iterations = iters
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	perIter := func(w int) float64 { return (allocs(w, 3*n) - allocs(w, n)) / (2 * n) }
	base := perIter(1)
	if base <= 0 {
		t.Fatalf("marginal allocations per iteration = %.1f; measurement is broken", base)
	}
	for _, w := range []int{4, 8} {
		got := perIter(w)
		t.Logf("workers=%d: %.1f allocs/iter (workers=1: %.1f, ratio %.3f)", w, got, base, got/base)
		if got > base*1.25 {
			t.Errorf("workers=%d allocates %.1f/iter, more than 1.25x the single-worker %.1f/iter — per-worker arenas are leaking per-iteration allocations",
				w, got, base)
		}
	}
}

// TestBatchBufferOwnership is the arena-recycling safety net, designed
// to run under -race: at worker counts up to GOMAXPROCS every
// KeepGenBytes campaign must return the
// reference bytes, and the returned buffers must be exclusively owned —
// scribbling each one with a distinct pattern must not show through any
// other, and a subsequent campaign over the (shared) seed corpus must
// still reproduce the reference, proving no returned buffer aliases
// engine- or seed-owned memory.
func TestBatchBufferOwnership(t *testing.T) {
	base := detConfig(Classfuzz)
	base.KeepGenBytes = true
	ref, err := Run(base)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	want := summarize(ref)

	for _, w := range workerCounts() {
		cfg := base
		cfg.Workers = w
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(summarize(res), want) {
			t.Errorf("workers=%d: summary diverges from reference", w)
			continue
		}
		if len(res.Gen) != len(ref.Gen) {
			t.Fatalf("workers=%d: %d generated classes, want %d", w, len(res.Gen), len(ref.Gen))
		}
		for i := range res.Gen {
			if !bytes.Equal(res.Gen[i].Data, ref.Gen[i].Data) {
				t.Errorf("workers=%d: Gen[%d] bytes differ from reference", w, i)
			}
		}

		// Scribble every returned buffer with a per-index pattern, then
		// verify each still holds only its own pattern: any
		// cross-contamination means two Gen entries share memory.
		for i := range res.Gen {
			for j := range res.Gen[i].Data {
				res.Gen[i].Data[j] = byte(i)
			}
		}
		for i := range res.Gen {
			for j, c := range res.Gen[i].Data {
				if c != byte(i) {
					t.Fatalf("workers=%d: Gen[%d].Data[%d] = %#x after scribble — returned buffers alias each other",
						w, i, j, c)
				}
			}
		}

		// The engine must hold no references to the buffers it
		// returned: a fresh campaign over the same seed corpus still
		// reproduces the reference even after the scribble.
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d rerun: %v", w, err)
		}
		if !reflect.DeepEqual(summarize(again), want) {
			t.Errorf("workers=%d: rerun after scribbling diverges — a returned buffer aliased engine- or seed-owned memory", w)
		}
	}
}

// scribbleScratch overwrites the File a task lowered, then the
// worker's reused lowering output: it lowers a class larger than any
// test mutant through the worker's context — so every arena slot a
// task's File used is rewritten — and scribbles over that File too.
func scribbleScratch(poison *jimple.Class) func(ws *workerScratch, f *classfile.File) {
	return func(ws *workerScratch, f *classfile.File) {
		if f != nil {
			scribbleFile(f)
		}
		g, err := ws.lctx.Lower(poison)
		if err != nil {
			panic(err)
		}
		if _, err := g.AppendBytes(nil); err != nil {
			panic(err)
		}
		scribbleFile(g)
	}
}

// scribbleFile overwrites f's pool entries, Code bytes and exception
// tables, and then its members.
func scribbleFile(f *classfile.File) {
	for _, c := range f.Pool.Entries {
		if c != nil {
			*c = classfile.Constant{Tag: classfile.TagUtf8, Str: "scribbled"}
		}
	}
	for _, m := range append(f.Fields, f.Methods...) {
		if code := m.Code(); code != nil {
			for i := range code.Code {
				code.Code[i] = 0xFF
			}
			for i := range code.Handlers {
				code.Handlers[i] = classfile.ExceptionHandler{StartPC: 0xFFFF, EndPC: 0xFFFF, HandlerPC: 0xFFFF, CatchType: 0xFFFF}
			}
		}
		*m = classfile.Member{AccessFlags: 0xFFFF, NameIndex: 0xFFFF, DescIndex: 0xFFFF}
	}
}

// poisonClass is a class with far more members and constants than any
// test mutant.
func poisonClass() *jimple.Class {
	c := jimple.NewClass("Poison")
	for i := 0; i < 64; i++ {
		c.AddField(classfile.AccPublic, fmt.Sprintf("f%d", i), descriptor.Long)
		m := c.AddMethod(classfile.AccPublic|classfile.AccStatic, fmt.Sprintf("m%d", i), nil, descriptor.Object("java/lang/String"))
		m.Throws = []string{fmt.Sprintf("p/E%d", i)}
		m.Body = []jimple.Stmt{&jimple.Return{Value: &jimple.StringConst{V: fmt.Sprintf("s%d", i)}}}
	}
	return c
}

// TestBatchScratchRetention extends the buffer-ownership check to the
// worker's reused File: the File LowerCtx.Lower returns — the one the
// prefilter inspects and the reference VM executes — lives only until
// the next Lower on the same context, so overwriting it between tasks,
// Code bytes included, must leave every result — summaries and
// generated bytes — identical to the reference across the worker
// sweep. A task, cache or memo that kept any part of a File past its
// task would read the scribble.
func TestBatchScratchRetention(t *testing.T) {
	base := detConfig(Classfuzz)
	base.KeepGenBytes = true
	ref, err := Run(base)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	want := summarize(ref)

	scratchHook = scribbleScratch(poisonClass())
	defer func() { scratchHook = nil }()
	for _, w := range workerCounts() {
		cfg := base
		cfg.Workers = w
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(summarize(res), want) {
			t.Errorf("workers=%d: summary diverges once the worker scratch is overwritten between tasks", w)
		}
		if len(res.Gen) != len(ref.Gen) {
			t.Fatalf("workers=%d: %d generated classes, want %d", w, len(res.Gen), len(ref.Gen))
		}
		for i := range res.Gen {
			if !bytes.Equal(res.Gen[i].Data, ref.Gen[i].Data) {
				t.Errorf("workers=%d: Gen[%d] bytes differ once the worker scratch is overwritten", w, i)
			}
		}
	}
}
