package core

import (
	"fmt"

	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

// CoreResult is the output of one core-subroutine run (Algorithm 1 or 2):
// a tentative shortcut, the set of edges declared unusable, and — for
// CoreFast — which parts were sampled active.
type CoreResult struct {
	S *Shortcut
	// Unusable[e] reports whether tree edge e was declared unusable (indexed
	// by EdgeID; always false for non-tree edges).
	Unusable []bool
	// Active[i] reports whether part i was sampled active (CoreFast only;
	// nil for CoreSlow).
	Active []bool
}

// CoreSlow is the centralized reference implementation of Algorithm 1, the
// deterministic O(D·c)-round core subroutine. Processing tree edges bottom-up
// it assigns each edge to every part it can see, unless more than 2c parts
// try to use it — then the edge is unusable and blocks visibility upward.
//
// The implementation is the two-pass construction on a pooled
// constructScratch: pass 1 computes the unusable bitmap bottom-up with
// stamp-deduplicated gathering capped at 2c+1 distinct parts, pass 2 assigns
// each part its edges by walking root paths (see cscratch.go). Outputs are
// identical to the textbook bottom-up assignment: an edge (v, parent) ends in
// H_i exactly when some u ∈ P_i below it reaches it over usable edges.
//
// Guarantees (Lemma 7), given that a T-restricted shortcut with congestion c
// and block parameter b exists: the result has shortcut-congestion ≤ 2c and
// at least half of the parts have block count ≤ 3b.
//
// remaining, when non-nil, restricts the run to the parts it marks true;
// other parts are treated as nonexistent (used by FindShortcut iterations).
func CoreSlow(t *tree.Tree, p *partition.Partition, c int, remaining []bool) *CoreResult {
	cs := getConstruct()
	defer putConstruct(cs)
	cs.runSlow(t, p, c, remaining, 1)
	return cs.sealResult(t, p, false)
}

// runSlow executes both passes of Algorithm 1 into the scratch, leaving
// partEdges/blockCnt/unusable populated for the walked parts.
func (cs *constructScratch) runSlow(t *tree.Tree, p *partition.Partition, c int, remaining []bool, workers int) {
	if c < 1 {
		panic(fmt.Sprintf("core: CoreSlow needs c >= 1, got %d", c))
	}
	g := t.Graph()
	cs.prepare(g.NumNodes(), g.NumEdges(), p.NumParts())
	cs.passUnusable(t, p, 2*c, remaining, nil)
	cs.walkParts(t, p, remaining, workers)
}

// sealResult copies the scratch state into a caller-owned CoreResult.
func (cs *constructScratch) sealResult(t *tree.Tree, p *partition.Partition, withActive bool) *CoreResult {
	res := &CoreResult{
		S:        flattenShortcut(t, p, cs.partEdges, 1),
		Unusable: append([]bool(nil), cs.unusable...),
	}
	if withActive {
		res.Active = append([]bool(nil), cs.active...)
	}
	return res
}
