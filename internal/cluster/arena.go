package cluster

// AllocArena is a round-scoped free-list of Alloc maps for candidate
// allocations that must present the map API but die with the round.
//
// Ownership rule (see DESIGN.md "Dense allocation vectors and round-scoped
// arenas"): maps from Sparse() are lent until the next Reset(). The arena
// remembers every map it handed out and reclaims them all at once when the
// round's grants have been applied. Anything that must outlive the round — a
// grant the caller applies, a result a test inspects across rounds — must be
// Clone()d out first.
//
// An arena is single-goroutine state; concurrent rounds (the sharded
// arbiter's per-shard auctions) each own their own arena, which is safe
// because shard partitions are disjoint.
type AllocArena struct {
	free []Alloc
	lent []Alloc
}

// NewAllocArena returns an empty arena.
func NewAllocArena() *AllocArena { return &AllocArena{} }

// Sparse returns a cleared Alloc map lent until the next Reset.
func (ar *AllocArena) Sparse() Alloc {
	var m Alloc
	if k := len(ar.free); k > 0 {
		m = ar.free[k-1]
		ar.free[k-1] = nil
		ar.free = ar.free[:k-1]
		clear(m)
	} else {
		m = NewAlloc()
	}
	ar.lent = append(ar.lent, m)
	return m
}

// Reset reclaims every sparse map lent since the previous Reset. Callers
// must not hold references to lent maps across a Reset; the maps are cleared
// and reused by subsequent Sparse calls.
func (ar *AllocArena) Reset() {
	ar.free = append(ar.free, ar.lent...)
	for i := range ar.lent {
		ar.lent[i] = nil
	}
	ar.lent = ar.lent[:0]
}

// Lent returns the number of sparse maps currently lent out — zero between
// rounds when every borrower resets properly; tests pin this.
func (ar *AllocArena) Lent() int { return len(ar.lent) }

// FreeSparse returns the number of sparse maps sitting in the free list.
func (ar *AllocArena) FreeSparse() int { return len(ar.free) }
