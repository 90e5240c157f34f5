package graph_test

import (
	"testing"

	"lcshortcut/internal/core"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/scenario"
	"lcshortcut/internal/tree"
)

// partGraph rebuilds G[P_i]+H_i from the public API: the vertices of P_i
// and the endpoints of H_i, joined by G's edges inside P_i and by H_i.
func partGraph(g *graph.Graph, p *partition.Partition, s *core.Shortcut, i int) *graph.Graph {
	idx := map[graph.NodeID]int{}
	var verts []graph.NodeID
	local := func(v graph.NodeID) int {
		if k, ok := idx[v]; ok {
			return k
		}
		idx[v] = len(verts)
		verts = append(verts, v)
		return idx[v]
	}
	var edges []graph.Edge
	for _, v := range p.Nodes(i) {
		local(v)
		to, _ := g.Arcs(v)
		for _, w := range to {
			if w := graph.NodeID(w); p.Part(w) == i && w > v {
				edges = append(edges, graph.Edge{U: v, V: w})
			}
		}
	}
	for _, e := range s.EdgesOf(i) {
		if ed := g.Edge(e); p.Part(ed.U) != i || p.Part(ed.V) != i {
			edges = append(edges, ed) // an H_i edge inside P_i is already there
		}
	}
	for _, e := range edges {
		local(e.U)
		local(e.V)
	}
	b := graph.MustNewBuilder(len(verts))
	for _, e := range edges {
		b.MustAddEdge(idx[e.U], idx[e.V], 1)
	}
	return b.Finalize()
}

// TestExactDiameterOnShortcutParts is the differential test of the
// recorded dilation. For every registry family at n ∈ {256, 1024}, under the
// whole partition and Voronoi partitions into 4, 16 and 64 parts, it seals a
// FindShortcutAuto shortcut and rebuilds every G[P_i]+H_i independently.
// The all-pairs diameter of the rebuilt part must equal the sealed
// PartDiameter and ExactDiameter on the rebuilt CSR, which may run no more
// BFSs than the part has vertices.
func TestExactDiameterOnShortcutParts(t *testing.T) {
	s := graph.NewScratch(0)
	sweeps, allPairs := 0, 0
	for _, sc := range scenario.All() {
		for _, n := range []int{256, 1024} {
			g := sc.Build(n, 1)
			tr := tree.BFSTree(g, 0)
			for _, parts := range []int{1, 4, 16, 64} {
				p := partition.Whole(g.NumNodes())
				if parts > 1 {
					p = partition.Voronoi(g, parts, 1)
				}
				ar, err := core.FindShortcutAuto(tr, p, 1, false, 0)
				if err != nil {
					t.Fatalf("%s n=%d parts=%d: %v", sc.Name, n, parts, err)
				}
				for i := 0; i < p.NumParts(); i++ {
					pg := partGraph(g, p, ar.S, i)
					off, to := graph.CSR(pg)
					want := graph.AllPairsDiameter(off, to)
					if got := ar.S.PartDiameter(i); got != want {
						t.Errorf("%s n=%d parts=%d: sealed PartDiameter(%d) = %d, all-pairs %d", sc.Name, n, parts, i, got, want)
					}
					if got := graph.ExactDiameter(s, off, to); got != want {
						t.Errorf("%s n=%d parts=%d: ExactDiameter of part %d = %d, all-pairs %d", sc.Name, n, parts, i, got, want)
					}
					if sw := graph.DiameterSweeps(s); sw > pg.NumNodes() {
						t.Errorf("%s n=%d parts=%d: part %d took %d BFSs for %d vertices", sc.Name, n, parts, i, sw, pg.NumNodes())
					}
					sweeps += graph.DiameterSweeps(s)
					allPairs += pg.NumNodes()
				}
			}
		}
	}
	t.Logf("%d BFSs where all-pairs runs %d", sweeps, allPairs)
}
