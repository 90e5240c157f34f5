package graph

import (
	"bytes"
	"testing"
)

// allPairsDiameter is the reference ExactDiameter is checked against: a BFS
// from every vertex of the CSR off/to, Unreached for an empty or
// disconnected graph. It shares no code with the routine under test.
func allPairsDiameter(off, to []int32) int {
	n := len(off) - 1
	if n <= 0 {
		return Unreached
	}
	dist := make([]int, n)
	diam := 0
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int32{int32(src)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range to[off[v]:off[v+1]] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for _, d := range dist {
			if d < 0 {
				return Unreached
			}
			diam = max(diam, d)
		}
	}
	return diam
}

// inducedCSR lays out the subgraph of g induced by set (duplicates
// ignored) as a CSR over local indices in first-seen order, independently
// of SubsetDiameterScratch.
func inducedCSR(g *Graph, set []NodeID) (off, to []int32) {
	idx := map[NodeID]int32{}
	var verts []NodeID
	for _, v := range set {
		if _, ok := idx[v]; !ok {
			idx[v] = int32(len(verts))
			verts = append(verts, v)
		}
	}
	off = []int32{0}
	for _, v := range verts {
		nbrs, _ := g.Arcs(v)
		for _, w := range nbrs {
			if k, ok := idx[NodeID(w)]; ok {
				to = append(to, k)
			}
		}
		off = append(off, int32(len(to)))
	}
	return off, to
}

// componentsDiameter is the reference for Diameter's documented result: the
// largest all-pairs diameter of any component, 0 for the empty graph.
func componentsDiameter(g *Graph) int {
	label, k := g.Components()
	diam := 0
	for c := 0; c < k; c++ {
		var comp []NodeID
		for v, l := range label {
			if l == c {
				comp = append(comp, v)
			}
		}
		diam = max(diam, allPairsDiameter(inducedCSR(g, comp)))
	}
	return diam
}

func gridGraph(w, h int) *Graph {
	b := MustNewBuilder(w * h)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			v := r*w + c
			if c+1 < w {
				b.MustAddEdge(v, v+1, 1)
			}
			if r+1 < h {
				b.MustAddEdge(v, v+w, 1)
			}
		}
	}
	return b.Finalize()
}

// componentMix is a disconnected graph: a 10-vertex path (diameter 9), a
// 4-cycle, a 3×3 grid and an isolated vertex, interleaved over the IDs.
func componentMix(t testing.TB) *Graph {
	b := MustNewBuilder(24)
	path := []NodeID{0, 3, 6, 9, 12, 15, 18, 21, 22, 23}
	for k := 0; k+1 < len(path); k++ {
		b.MustAddEdge(path[k], path[k+1], 1)
	}
	for _, e := range [][2]NodeID{{1, 4}, {4, 7}, {7, 10}, {10, 1}} {
		b.MustAddEdge(e[0], e[1], 1)
	}
	grid := []NodeID{2, 5, 8, 11, 14, 16, 17, 19, 20}
	for k, v := range grid {
		if k%3 < 2 {
			b.MustAddEdge(v, grid[k+1], 1)
		}
		if k+3 < len(grid) {
			b.MustAddEdge(v, grid[k+3], 1)
		}
	}
	g := b.Finalize() // vertex 13 stays isolated
	if g.Connected() {
		t.Fatal("componentMix is connected")
	}
	return g
}

// TestExactDiameterSweeps pins how many BFSs the bounds save: a handful on
// the whole 128×128 grid, where all-pairs runs 16384, and never more than
// the vertex count, also on vertex-transitive cycles, the worst case. A
// disconnected graph is rejected after the first BFS.
func TestExactDiameterSweeps(t *testing.T) {
	s := NewScratch(0)
	g := gridGraph(128, 128)
	if d := ExactDiameter(s, g.arcOffsets, g.arcTo); d != 254 {
		t.Fatalf("128×128 grid diameter = %d, want 254", d)
	}
	if s.sweeps > 8 {
		t.Errorf("128×128 grid took %d BFSs, want at most 8", s.sweeps)
	}
	t.Logf("128×128 grid: %d BFSs", s.sweeps)
	for _, n := range []int{3, 4, 17, 64} {
		c := cycle(t, n)
		if got := ExactDiameter(s, c.arcOffsets, c.arcTo); got != n/2 || s.sweeps > n {
			t.Errorf("cycle n=%d: diameter %d in %d BFSs, want %d in at most %d", n, got, s.sweeps, n/2, n)
		}
	}
	p := path(t, 1000)
	if d := ExactDiameter(s, p.arcOffsets, p.arcTo); d != 999 || s.sweeps > 4 {
		t.Errorf("path n=1000: diameter %d in %d BFSs, want 999 in at most 4", d, s.sweeps)
	}
	m := componentMix(t)
	if d := ExactDiameter(s, m.arcOffsets, m.arcTo); d != Unreached || s.sweeps != 1 {
		t.Errorf("disconnected graph: %d in %d BFSs, want Unreached after the first", d, s.sweeps)
	}
}

// TestAllocGuardExactDiameter holds the diameter routines at zero
// allocations once their scratch has grown.
func TestAllocGuardExactDiameter(t *testing.T) {
	g := gridGraph(20, 20)
	var set []NodeID
	for v := 0; v < g.NumNodes(); v += 2 {
		set = append(set, v, v+1)
	}
	s := NewScratch(g.NumNodes())
	ExactDiameter(s, g.arcOffsets, g.arcTo)
	g.SubsetDiameterScratch(s, set)
	if avg := testing.AllocsPerRun(20, func() {
		ExactDiameter(s, g.arcOffsets, g.arcTo)
		g.SubsetDiameterScratch(s, set[:len(set)/2])
		g.SubsetDiameterScratch(s, set)
	}); avg != 0 {
		t.Errorf("steady-state diameter queries allocate %.1f objects, want 0", avg)
	}
}

// FuzzExactDiameter decodes a byte stream into a vertex count and an edge
// list, and checks ExactDiameter on the graph's CSR, Diameter, and
// SubsetDiameter on a subset the stream selects (with its repeats) against
// the all-pairs reference, together with the bound of one BFS per vertex.
func FuzzExactDiameter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{6, 0, 1, 1, 2, 3, 4, 4, 5})
	f.Add([]byte{9, 0, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 8})
	f.Add(bytes.Repeat([]byte{13, 2, 11, 5}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%40
		b := MustNewBuilder(n)
		for i := 1; i+1 < len(data); i += 2 {
			u, v := NodeID(data[i])%n, NodeID(data[i+1])%n
			if u != v {
				_, _ = b.AddEdge(u, v, 1) // a repeated edge is rejected; that is fine
			}
		}
		g := b.Finalize()
		s := NewScratch(0)
		want := allPairsDiameter(g.arcOffsets, g.arcTo)
		if got := ExactDiameter(s, g.arcOffsets, g.arcTo); got != want {
			t.Fatalf("ExactDiameter = %d, all-pairs %d", got, want)
		}
		if s.sweeps > n {
			t.Fatalf("ExactDiameter ran %d BFSs on %d vertices", s.sweeps, n)
		}
		if got, ref := g.Diameter(), componentsDiameter(g); got != ref {
			t.Fatalf("Diameter = %d, largest component diameter %d", got, ref)
		}
		var set []NodeID
		for i := 1; i < len(data); i += 3 {
			set = append(set, NodeID(data[i])%n)
		}
		if got, ref := g.SubsetDiameterScratch(s, set), allPairsDiameter(inducedCSR(g, set)); got != ref {
			t.Fatalf("SubsetDiameter(%v) = %d, all-pairs %d", set, got, ref)
		}
	})
}
