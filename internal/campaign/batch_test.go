package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/classfile"
	"repro/internal/descriptor"
	"repro/internal/jimple"
)

// TestBatchMatrixMatchesGolden is the batching tentpole's acceptance
// gate: at every (workers, batch) cell of the {1,4,8} × {1,8,32} grid
// the campaign summary must be byte-identical to the committed
// workers=1 goldens. Batch sizes above the lookahead window exercise
// the K ≤ D clamp (32 clamps to DefaultLookahead).
func TestBatchMatrixMatchesGolden(t *testing.T) {
	for _, alg := range detAlgorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", fmt.Sprintf("golden_%s.json", alg))
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update on TestGoldenResults): %v", err)
			}
			for _, w := range []int{1, 4, 8} {
				for _, b := range []int{1, 8, 32} {
					cfg := detConfig(alg)
					cfg.Workers = w
					cfg.Batch = b
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("workers=%d batch=%d: %v", w, b, err)
					}
					wantBatch := b
					if d := cfg.lookahead(); wantBatch > d {
						wantBatch = d
					}
					if res.Batch != wantBatch {
						t.Errorf("workers=%d batch=%d: result records batch=%d, want clamped %d",
							w, b, res.Batch, wantBatch)
					}
					got, err := json.MarshalIndent(summarize(res), "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, '\n')
					if !bytes.Equal(got, want) {
						t.Errorf("workers=%d batch=%d: summary diverges from %s", w, b, path)
					}
				}
			}
		})
	}
}

// TestBatchReplayRoundTrip re-runs the replay contract under block
// dispatch: with a non-default batch size every generated iteration
// must still rebuild byte-for-byte from the draw log, and the
// end-to-end Replay entry point must verify.
func TestBatchReplayRoundTrip(t *testing.T) {
	cfg := detConfig(Classfuzz)
	cfg.Workers = 4
	cfg.Batch = 8
	cfg.KeepGenBytes = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	byIter := map[int]*GenClass{}
	for _, g := range res.Gen {
		byIter[g.Iter] = g
	}
	last := -1
	for _, d := range res.Draws {
		if !d.Generated {
			continue
		}
		last = d.Iter
		info, err := Rebuild(cfg, res.Draws, d.Iter)
		if err != nil {
			t.Fatalf("rebuild iteration %d: %v", d.Iter, err)
		}
		g := byIter[d.Iter]
		if g == nil {
			t.Fatalf("iteration %d marked generated but absent from Gen", d.Iter)
		}
		if !bytes.Equal(info.Data, g.Data) {
			t.Errorf("iteration %d: rebuilt bytes differ from campaign bytes", d.Iter)
		}
	}
	if last < 0 {
		t.Fatal("campaign generated nothing")
	}
	info, err := Replay(cfg, last)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Verified {
		t.Error("replayed iteration not verified against the batched campaign")
	}
}

// TestBatchSnapshotResume checks kill-and-resume under block dispatch:
// a campaign running with a non-default batch size, interrupted before,
// inside and after the first pipeline window, resumes to the
// uninterrupted result.
func TestBatchSnapshotResume(t *testing.T) {
	cfg := detConfig(Classfuzz)
	cfg.Batch = 8
	refRes, err := Run(cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	ref := resumeSummarize(refRes)
	for _, workers := range []int{1, 4} {
		for _, stopAt := range []int{7, 16, 61} {
			wcfg := cfg
			wcfg.Workers = workers
			res := runInterrupted(t, wcfg, stopAt)
			if got := resumeSummarize(res); !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=%d batch=8 stop=%d: resumed result diverges from uninterrupted run",
					workers, stopAt)
			}
		}
	}
}

// TestCampaignAllocsFlatAcrossWorkers pins the perf fix this PR ships:
// allocations per campaign must not grow with the worker count. Before
// per-worker arena reuse each in-flight iteration allocated its own
// lowering context, buffers and recorder scratch, so allocs/op climbed
// with parallelism; now extra workers cost only their fixed arenas,
// which a 160-iteration campaign amortises to well under the bound.
func TestCampaignAllocsFlatAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is slow")
	}
	measure := func(w int) float64 {
		cfg := detConfig(Classfuzz)
		cfg.Workers = w
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(1)
	if base == 0 {
		t.Fatal("campaign reported zero allocations; measurement is broken")
	}
	for _, w := range []int{4, 8} {
		got := measure(w)
		t.Logf("workers=%d: %.0f allocs/op (workers=1: %.0f, ratio %.3f)", w, got, base, got/base)
		if got > base*1.25 {
			t.Errorf("workers=%d allocates %.0f/op, more than 1.25x the single-worker %.0f/op — per-worker arenas are leaking per-iteration allocations",
				w, got, base)
		}
	}
}

// TestBatchBufferOwnership is the arena-recycling safety net, designed
// to run under -race: across batch sizes 1, K and 2K (K=8) and worker
// counts up to GOMAXPROCS, every KeepGenBytes campaign must return the
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

	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, b := range []int{1, 8, 16} {
			cfg := base
			cfg.Workers = w
			cfg.Batch = b
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", w, b, err)
			}
			if !reflect.DeepEqual(summarize(res), want) {
				t.Errorf("workers=%d batch=%d: summary diverges from reference", w, b)
				continue
			}
			if len(res.Gen) != len(ref.Gen) {
				t.Fatalf("workers=%d batch=%d: %d generated classes, want %d", w, b, len(res.Gen), len(ref.Gen))
			}
			for i := range res.Gen {
				if !bytes.Equal(res.Gen[i].Data, ref.Gen[i].Data) {
					t.Errorf("workers=%d batch=%d: Gen[%d] bytes differ from reference", w, b, i)
				}
			}

			// Scribble every returned buffer with a per-index pattern,
			// then verify each still holds only its own pattern: any
			// cross-contamination means two Gen entries share memory.
			for i := range res.Gen {
				for j := range res.Gen[i].Data {
					res.Gen[i].Data[j] = byte(i)
				}
			}
			for i := range res.Gen {
				for j, c := range res.Gen[i].Data {
					if c != byte(i) {
						t.Fatalf("workers=%d batch=%d: Gen[%d].Data[%d] = %#x after scribble — returned buffers alias each other",
							w, b, i, j, c)
					}
				}
			}

			// The engine must hold no references to the buffers it
			// returned: a fresh campaign over the same seed corpus still
			// reproduces the reference even after the scribble.
			again, err := Run(cfg)
			if err != nil {
				t.Fatalf("workers=%d batch=%d rerun: %v", w, b, err)
			}
			if !reflect.DeepEqual(summarize(again), want) {
				t.Errorf("workers=%d batch=%d: rerun after scribbling diverges — a returned buffer aliased engine- or seed-owned memory", w, b)
			}
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
// generated bytes — identical to the reference at workers 1/4 × batch
// 1/8. A task, cache or memo that kept any part of a File past its
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
	for _, w := range []int{1, 4} {
		for _, b := range []int{1, 8} {
			cfg := base
			cfg.Workers = w
			cfg.Batch = b
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", w, b, err)
			}
			if !reflect.DeepEqual(summarize(res), want) {
				t.Errorf("workers=%d batch=%d: summary diverges once the worker scratch is overwritten between tasks", w, b)
			}
			if len(res.Gen) != len(ref.Gen) {
				t.Fatalf("workers=%d batch=%d: %d generated classes, want %d", w, b, len(res.Gen), len(ref.Gen))
			}
			for i := range res.Gen {
				if !bytes.Equal(res.Gen[i].Data, ref.Gen[i].Data) {
					t.Errorf("workers=%d batch=%d: Gen[%d] bytes differ once the worker scratch is overwritten", w, b, i)
				}
			}
		}
	}
}
