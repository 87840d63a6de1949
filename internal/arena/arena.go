// Package arena provides the chunked allocator behind the reusable
// classfile builders: the lowering context and the parser place
// constants, members, attributes and their tables in arenas they rewind
// per class, so a long-lived builder allocates almost nothing once its
// chunks have grown to the size of the classes it sees.
package arena

// Arena hands out single values and short runs of T carved from chunk
// allocations — one heap object per chunk instead of one per value.
// Chunks are replaced when full, never regrown, so pointers and
// subslices handed out stay valid until the next Rewind. A zero Arena
// is ready to use; an Arena is not safe for concurrent use.
type Arena[T any] struct {
	chunk []T
	// used counts values handed out since the last rewind; hint carries
	// that count into the next round when it overflowed the chunk, so
	// the round after a spill fits in one chunk.
	used, hint int
}

// firstChunk is the smallest chunk an arena allocates.
const firstChunk = 4

// grow replaces the current chunk with one that has room for at least n
// values. A fresh arena starts small and each replacement at least
// doubles, so a one-shot builder allocates little more than it uses and
// a growing one few chunks.
func (a *Arena[T]) grow(n int) {
	size := max(firstChunk, 2*cap(a.chunk), n, a.hint)
	a.hint = 0
	a.chunk = make([]T, 0, size)
}

// Reserve makes room for n more values in the current chunk, so a caller
// that knows its total up front gets a single allocation of exactly
// that size.
func (a *Arena[T]) Reserve(n int) {
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]T, 0, max(n, a.hint))
		a.hint = 0
	}
}

// Put places v in the arena and returns a stable pointer to it.
func (a *Arena[T]) Put(v T) *T {
	if len(a.chunk) == cap(a.chunk) {
		a.grow(1)
	}
	a.chunk = append(a.chunk, v)
	a.used++
	return &a.chunk[len(a.chunk)-1]
}

// Run returns an empty slice with capacity n carved from the arena:
// appending up to n values fills it in place. A zero-length run is an
// empty non-nil slice, like make([]T, 0, 0).
func (a *Arena[T]) Run(n int) []T {
	if n <= 0 {
		return make([]T, 0)
	}
	if cap(a.chunk)-len(a.chunk) < n {
		a.grow(n)
	}
	l := len(a.chunk)
	a.chunk = a.chunk[:l+n]
	a.used += n
	return a.chunk[l : l : l+n]
}

// Rewind recycles the arena for a new round, keeping its chunk. Every
// pointer and run handed out before becomes invalid: the next round
// writes over them.
func (a *Arena[T]) Rewind() {
	if a.used > cap(a.chunk) {
		a.hint = a.used
	}
	a.chunk = a.chunk[:0]
	a.used = 0
}
