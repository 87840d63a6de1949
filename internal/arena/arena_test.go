package arena

import (
	"slices"
	"testing"
)

// TestArenaRecyclesChunks pins the arena's contract: pointers and runs
// stay put while a round lasts, a rewound arena reuses its chunk, and a
// round that spilled into several chunks is served by one chunk after
// the next rewind.
func TestArenaRecyclesChunks(t *testing.T) {
	var a Arena[int]
	first := a.Put(1)
	var ptrs []*int
	for i := 0; i < 100; i++ {
		ptrs = append(ptrs, a.Put(i))
	}
	if *first != 1 {
		t.Fatal("a chunk was regrown under a handed-out pointer")
	}
	for i, p := range ptrs {
		if *p != i {
			t.Fatalf("value %d moved to %d", i, *p)
		}
	}

	a.Rewind() // 101 values spilled over several chunks
	a.Reserve(0)
	for i := 0; i < 101; i++ {
		a.Put(i)
	}
	chunk := &a.chunk[:1][0]
	a.Rewind()
	if a.Put(7) != chunk || cap(a.chunk) < 101 {
		t.Fatalf("rewound arena did not reuse one chunk sized for the last round (cap %d)", cap(a.chunk))
	}

	var b Arena[byte]
	b.Reserve(5)
	if cap(b.chunk) != 5 {
		t.Fatalf("Reserve(5) on an empty arena allocated %d", cap(b.chunk))
	}
	r := b.Run(3)
	if len(r) != 0 || cap(r) != 3 {
		t.Fatalf("Run(3) = len %d cap %d", len(r), cap(r))
	}
	r = append(r, 1, 2, 3)
	if s := b.Run(2); cap(s) != 2 || &s[:1][0] != &b.chunk[3] {
		t.Fatal("Run did not continue in the reserved chunk")
	}
	if z := b.Run(0); z == nil || len(z) != 0 {
		t.Fatal("Run(0) must be an empty non-nil slice")
	}
	_ = r
}

// TestArenaGrowsGeometrically pins the chunk sizes of a fresh arena: a
// small first chunk, then doubling, and a run larger than that gets a
// chunk of its own size.
func TestArenaGrowsGeometrically(t *testing.T) {
	var a Arena[int]
	var caps []int
	for i := 0; i < 4*firstChunk; i++ {
		a.Put(i)
		if len(caps) == 0 || caps[len(caps)-1] != cap(a.chunk) {
			caps = append(caps, cap(a.chunk))
		}
	}
	if want := []int{firstChunk, 2 * firstChunk, 4 * firstChunk}; !slices.Equal(caps, want) {
		t.Fatalf("chunk sizes %v, want %v", caps, want)
	}
	if a.Run(100); cap(a.chunk) != 100 {
		t.Fatalf("Run(100) grew a chunk of %d", cap(a.chunk))
	}
}
