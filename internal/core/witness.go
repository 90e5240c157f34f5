package core

import (
	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

// WitnessCongestion returns c*, the congestion of the canonical full-ancestor
// shortcut (see CanonicalWitness): the maximum, over tree edges e, of the
// number of parts with at least one vertex in the subtree below e. Because
// the canonical shortcut has block parameter 1, the pair (c*, 1) is an
// unconditional existence witness — a T-restricted shortcut with congestion
// c* and block parameter 1 always exists. The paper's conditional guarantees
// (Lemmas 5 and 7, Theorem 3) are instantiated with this pair throughout the
// test suite and experiments.
func WitnessCongestion(t *tree.Tree, p *partition.Partition) int {
	counts := witnessEdgeCounts(t, p, nil)
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	return maxC
}

// CanonicalWitness materializes the canonical b = 1 shortcut: H_i is the
// union of the tree paths from every vertex of P_i up to the root, so each
// H_i is a single subtree containing the root (one block component), and the
// congestion is exactly WitnessCongestion. Returns the shortcut and its
// congestion.
func CanonicalWitness(t *tree.Tree, p *partition.Partition) (*Shortcut, int) {
	s := &Shortcut{t: t, p: p, edgeParts: make([][]int, t.Graph().NumEdges())}
	witnessEdgeCounts(t, p, s.edgeParts)
	s.seal(1)
	return s, s.ShortcutCongestion()
}

// witnessEdgeCounts walks each part's root paths, stamping edges to avoid
// double counting within a part. When edgeParts is non-nil, every stamped
// edge's list also gains the part; parts are walked in ascending order, so
// the lists come out sorted. Runtime is O(n + Σ_i |H_i|).
func witnessEdgeCounts(t *tree.Tree, p *partition.Partition, edgeParts [][]int) []int {
	g := t.Graph()
	counts := make([]int, g.NumEdges())
	stamp := make([]int, g.NumEdges())
	for e := range stamp {
		stamp[e] = -1
	}
	for i := 0; i < p.NumParts(); i++ {
		for _, u := range p.Nodes(i) {
			for v := u; v != t.Root(); v = t.Parent(v) {
				e := t.ParentEdge(v)
				if stamp[e] == i {
					break // rest of this root path already stamped for part i
				}
				stamp[e] = i
				counts[e]++
				if edgeParts != nil {
					edgeParts[e] = append(edgeParts[e], i)
				}
			}
		}
	}
	return counts
}
