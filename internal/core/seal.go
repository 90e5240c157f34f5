package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lcshortcut/internal/graph"
)

// sealRec locates one part's staged block decomposition: worker w's arena,
// header range [blo, bhi).
type sealRec struct {
	w        int
	blo, bhi int32
}

// Seal is a no-op kept for source compatibility: every constructor already
// returns a measured, immutable shortcut, and the argument is ignored.
func (s *Shortcut) Seal(int) {}

// seal measures a freshly built shortcut: part edge lists, block
// decompositions, part diameters and the three scalar quality measures.
// Constructors call it exactly once, before the shortcut is shared.
//
// workers bounds the per-part parallelism (0 = GOMAXPROCS, ≤1 sequential).
// Like the construction walks, each part's decomposition is a pure function
// of the read-only inputs and the stitch into the final flat arenas is
// ordered by part ID, so the contents are byte-identical for every worker
// count. The staging side runs on pooled queryScratch instances; the only
// allocations are the final arenas and tables.
func (s *Shortcut) seal(workers int) {
	nParts := s.p.NumParts()
	s.buildPartEdges()
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nParts {
		workers = nParts
	}
	if workers < 1 {
		workers = 1
	}

	recs := make([]sealRec, nParts)
	diam := make([]int, nParts)
	scratches := make([]*queryScratch, workers)
	sealOne := func(w int, qs *queryScratch, i int) {
		blo := int32(len(qs.blocks))
		s.appendBlocks(qs, i)
		recs[i] = sealRec{w: w, blo: blo, bhi: int32(len(qs.blocks))}
		diam[i] = s.partDiameter(qs, i)
	}
	if workers <= 1 {
		qs := getQuery()
		scratches[0] = qs
		for i := 0; i < nParts; i++ {
			sealOne(0, qs, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			qs := getQuery()
			scratches[w] = qs
			wg.Add(1)
			go func(w int, qs *queryScratch) {
				defer wg.Done()
				for {
					k := int(next.Add(1) - 1)
					if k >= nParts {
						return
					}
					sealOne(w, qs, k)
				}
			}(w, qs)
		}
		wg.Wait()
	}

	// Stitch the staged decompositions into two exactly-sized flat arenas in
	// ascending part-ID order — the deterministic merge order. Staged
	// Block.Nodes may point into superseded backings of a worker arena
	// (append reallocation); the contents there are final either way, and
	// this copy is what the sealed shortcut keeps.
	totalBlocks, totalNodes := 0, 0
	for i := range recs {
		r := recs[i]
		staged := scratches[r.w].blocks[r.blo:r.bhi]
		totalBlocks += len(staged)
		for _, b := range staged {
			totalNodes += len(b.Nodes)
		}
	}
	blockArena := make([]Block, totalBlocks)
	nodeArena := make([]graph.NodeID, totalNodes)
	s.blocks = make([][]Block, nParts)
	maxB := 0
	bp, np := 0, 0
	for i := 0; i < nParts; i++ {
		r := recs[i]
		staged := scratches[r.w].blocks[r.blo:r.bhi]
		dst := blockArena[bp : bp+len(staged) : bp+len(staged)]
		for k, b := range staged {
			nn := copy(nodeArena[np:], b.Nodes)
			dst[k] = Block{Root: b.Root, Nodes: nodeArena[np : np+nn : np+nn]}
			np += nn
		}
		s.blocks[i] = dst
		bp += len(staged)
		if len(staged) > maxB {
			maxB = len(staged)
		}
	}
	for _, qs := range scratches {
		putQuery(qs)
	}

	maxD := 0
	for _, d := range diam {
		if d > maxD {
			maxD = d
		}
	}
	s.partDiam = diam
	s.scCong = s.computeShortcutCongestion()
	s.qual = Quality{
		Congestion:     s.computeCongestion(),
		BlockParameter: maxB,
		Dilation:       maxD,
	}
}
