package graph

import "sync"

// Scratch is a bundle of reusable traversal buffers — a distance array, a BFS
// queue and an epoch-stamped visited/membership array — sized to the largest
// graph it has served. Threading one Scratch through repeated traversals makes
// them allocation-free in the steady state.
//
// Ownership contract: acquire with GetScratch (or NewScratch), pass it down
// synchronous call chains freely, and Release it when the enclosing operation
// finishes — the releaser is whoever acquired it. A Scratch must not be used
// concurrently, and slices returned by *Scratch traversal methods alias its
// buffers: they are valid only until the next traversal with the same Scratch
// or its Release, and must be copied to outlive that.
type Scratch struct {
	dist  []int32
	queue []int32
	mark  []int32
	epoch int32

	// ExactDiameter's eccentricity bounds and candidate list, and the number
	// of BFSs its last call ran.
	lo, hi, cand []int32
	sweeps       int
	// SubsetDiameterScratch's induced subgraph: the local index of each
	// member vertex and the local CSR offsets and targets.
	idx, off, to []int32
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a Scratch from the package pool, growing lazily to
// whatever graph it is used on. Pair every GetScratch with a Release.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// NewScratch returns an unpooled Scratch pre-sized for n vertices, for callers
// that keep one alive long-term (e.g. benchmarks) instead of pooling.
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	s.ensure(n)
	return s
}

// Release returns s to the pool. The caller must not use s, or any slice a
// traversal returned from it, afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }

// ensure grows the buffers to cover n vertices.
func (s *Scratch) ensure(n int) {
	s.dist = fitInt32(s.dist, n)
	s.queue = fitInt32(s.queue, n)[:0]
	if cap(s.mark) < n {
		s.mark = make([]int32, n)
		s.epoch = 0
	}
	s.mark = s.mark[:n]
}

// nextEpoch starts a fresh marking generation; on int32 wraparound the mark
// array is zeroed over its full capacity — not just the current length, which
// after a shrink could leave stale pre-wrap stamps hiding in the unused tail
// for a later grow to re-expose — so stale stamps can never collide.
func (s *Scratch) nextEpoch() {
	s.epoch++
	if s.epoch <= 0 {
		full := s.mark[:cap(s.mark)]
		for i := range full {
			full[i] = 0
		}
		s.epoch = 1
	}
}

// resetDist fills the distance buffer with Unreached.
func (s *Scratch) resetDist() {
	for i := range s.dist {
		s.dist[i] = Unreached
	}
}
