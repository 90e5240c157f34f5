// Package core implements the paper's primary contribution: tree-restricted
// low-congestion shortcuts (Definitions 2 and 3), their quality measures
// (congestion, block parameter, dilation and Lemma 1 relating them), the
// canonical existence witness used to instantiate the paper's conditional
// guarantees, and centralized reference implementations of the construction
// algorithms (CoreSlow — Algorithm 1, CoreFast — Algorithm 2, and the
// FindShortcut framework of Theorem 3 including the Appendix A doubling
// variant).
//
// The centralized implementations are the semantic ground truth: the
// distributed protocols in package coredist must produce bit-identical
// shortcuts (same algorithm, same randomness), which the integration tests
// assert. They are also fast enough to run quality experiments at scales the
// round-accurate simulator cannot reach.
package core

import (
	"fmt"
	"sort"
	"sync"

	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

// Shortcut is a T-restricted shortcut (Definition 2): an assignment of tree
// edges to parts. H_i is the set of tree edges assigned to part i; part i
// communicates on G[P_i] + H_i.
//
// A Shortcut is immutable. Every constructor (NewShortcut, CoreSlow,
// CoreFast, CanonicalWitness, FindShortcut) measures it once — part edge
// lists, block decompositions, part diameters and the scalar quality
// measures — so every accessor is a field read, and slice-returning
// accessors hand out copies the caller owns. Any number of goroutines may
// therefore query one shortcut concurrently.
type Shortcut struct {
	t *tree.Tree
	p *partition.Partition
	// edgeParts[e] lists the parts whose H_i contains tree edge e, sorted
	// ascending. nil for unassigned and non-tree edges.
	edgeParts [][]int

	// Per-part views: partEdges[i] is H_i in ascending EdgeID order, blocks[i]
	// its block decomposition (both subslicing flat arenas), partDiam[i] the
	// diameter of G[P_i]+H_i.
	partEdges [][]graph.EdgeID
	blocks    [][]Block
	partDiam  []int

	// The scalar measures: Measure's three and the shortcut-only congestion.
	qual   Quality
	scCong int
}

// NewShortcut returns the shortcut over tree t and partition p whose H_i
// contains tree edge e exactly when i is in edgeParts[e]. edgeParts has one
// entry per edge of t's graph, each a strictly ascending list of valid part
// indices (nil or empty for edges no part uses); it is adopted, not copied,
// so the caller must not modify it afterwards. It returns an error when the
// length is wrong or the lists break a Validate rule.
func NewShortcut(t *tree.Tree, p *partition.Partition, edgeParts [][]int) (*Shortcut, error) {
	if m := t.Graph().NumEdges(); len(edgeParts) != m {
		return nil, fmt.Errorf("core: %d edge part lists for a graph with %d edges", len(edgeParts), m)
	}
	s := &Shortcut{t: t, p: p, edgeParts: edgeParts}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.seal(1)
	return s, nil
}

// Tree returns the spanning tree the shortcut is restricted to.
func (s *Shortcut) Tree() *tree.Tree { return s.t }

// Partition returns the parts the shortcut serves.
func (s *Shortcut) Partition() *partition.Partition { return s.p }

// PartsOn returns the sorted part list using tree edge e, as a copy the
// caller owns (nil when no part uses e).
func (s *Shortcut) PartsOn(e graph.EdgeID) []int {
	if len(s.edgeParts[e]) == 0 {
		return nil
	}
	return append([]int(nil), s.edgeParts[e]...)
}

// Contains reports whether tree edge e belongs to H_i.
func (s *Shortcut) Contains(e graph.EdgeID, i int) bool {
	list := s.edgeParts[e]
	k := sort.SearchInts(list, i)
	return k < len(list) && list[k] == i
}

// buildPartEdges sets partEdges[i] to H_i in ascending EdgeID order with a
// counting pass over the per-edge lists into one flat arena.
func (s *Shortcut) buildPartEdges() {
	nParts := s.p.NumParts()
	cnt := make([]int, nParts+1)
	total := 0
	for _, parts := range s.edgeParts {
		total += len(parts)
		for _, i := range parts {
			cnt[i+1]++
		}
	}
	for i := 1; i <= nParts; i++ {
		cnt[i] += cnt[i-1]
	}
	flat := make([]graph.EdgeID, total)
	for e, parts := range s.edgeParts {
		for _, i := range parts {
			flat[cnt[i]] = e
			cnt[i]++
		}
	}
	s.partEdges = make([][]graph.EdgeID, nParts)
	prev := 0
	for i := 0; i < nParts; i++ {
		if end := cnt[i]; end > prev {
			s.partEdges[i] = flat[prev:end:end]
			prev = end
		}
	}
}

// EdgesOf returns H_i as a slice of tree-edge IDs in ascending order. The
// caller owns the returned slice.
func (s *Shortcut) EdgesOf(i int) []graph.EdgeID {
	return append([]graph.EdgeID(nil), s.partEdges[i]...)
}

// Congestion returns the exact congestion of the shortcut per Definition 1:
// the maximum over edges e of the number of communication subgraphs
// G[P_i] + H_i containing e. An edge interior to part j counts for subgraph j
// even when e ∉ H_j; a shortcut-only assignment counts once per part.
func (s *Shortcut) Congestion() int { return s.qual.Congestion }

func (s *Shortcut) computeCongestion() int {
	g := s.t.Graph()
	maxC := 0
	for e := 0; e < g.NumEdges(); e++ {
		c := len(s.edgeParts[e])
		ed := g.Edge(e)
		if pu := s.p.Part(ed.U); pu != partition.None && pu == s.p.Part(ed.V) && !s.Contains(e, pu) {
			c++ // induced part edge not already counted via H_i
		}
		if c > maxC {
			maxC = c
		}
	}
	return maxC
}

// ShortcutCongestion returns the congestion counting only shortcut
// assignments (|{i : e ∈ H_i}|), the quantity the construction algorithms
// bound directly.
func (s *Shortcut) ShortcutCongestion() int { return s.scCong }

func (s *Shortcut) computeShortcutCongestion() int {
	maxC := 0
	for _, parts := range s.edgeParts {
		if len(parts) > maxC {
			maxC = len(parts)
		}
	}
	return maxC
}

// Block is one block component of some H_i (Definition 3): a connected
// component of the spanning subgraph (V, H_i) that intersects P_i. Root is
// its shallowest vertex (each component of a set of tree edges is a subtree
// of T, so the root is unique).
type Block struct {
	Root  graph.NodeID
	Nodes []graph.NodeID // all vertices of the component, Steiner vertices included
}

// qpair is a local-index edge of the current query.
type qpair struct{ a, b int32 }

// queryScratch bundles the reusable working state of block and part-diameter
// queries: the epoch-stamped dense-local-index map, the union-find and
// marking arrays of the block decomposition, the CSR of G[P_i]+H_i and the
// state of its exact diameter computation, and the append arenas block
// results accumulate into. Scratches are pooled (getQuery/putQuery), so the
// seal's per-part workers touch the allocator only for their outputs, and no
// per-query state lives in the shared Shortcut.
type queryScratch struct {
	qIdx []int32 // dense local index of v, valid while qTag[v] == tag
	qTag []int64
	tag  int64

	verts []graph.NodeID // vertices of the current query, first-seen order
	pairs []qpair        // local-index edge list
	ufPar []int32        // union-find parent, by local index (path halving)
	ufSz  []int32        // union-find size (union by size)
	mark  []bool         // component rep -> intersects P_i
	bIdx  []int32        // component rep -> 1+block index
	cnt   []int32        // per-block node count
	cur   []int32        // per-block fill cursor
	off   []int32        // part-adjacency CSR offsets
	to    []int32        // part-adjacency CSR targets
	diam  graph.Scratch  // ExactDiameter's BFS and eccentricity-bound state

	// Append arenas of appendBlocks: block headers and their node lists.
	// Within one putQuery lifetime the arenas only grow, so Block.Nodes
	// subslices taken from them stay valid even across reallocation.
	blocks []Block
	nodes  []graph.NodeID
}

var queryPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getQuery() *queryScratch { return queryPool.Get().(*queryScratch) }

func putQuery(qs *queryScratch) {
	qs.verts = qs.verts[:0]
	qs.pairs = qs.pairs[:0]
	qs.blocks = qs.blocks[:0]
	qs.nodes = qs.nodes[:0]
	queryPool.Put(qs)
}

// begin advances the query tag and sizes the dense-index scratch for an
// n-vertex graph. Stamp arrays are never cleared: the tag is monotonic for
// the scratch's lifetime and zeroed growth is always stale.
func (qs *queryScratch) begin(n int) {
	if cap(qs.qIdx) < n {
		qs.qIdx = make([]int32, n)
		qs.qTag = make([]int64, n)
	}
	qs.qIdx = qs.qIdx[:n]
	qs.qTag = qs.qTag[:n]
	qs.tag++
	qs.verts = qs.verts[:0]
	qs.pairs = qs.pairs[:0]
}

// local returns the dense local index of v under the current query tag,
// recording v in verts on first sight.
func (qs *queryScratch) local(v graph.NodeID) int32 {
	if qs.qTag[v] == qs.tag {
		return qs.qIdx[v]
	}
	qs.qTag[v] = qs.tag
	k := int32(len(qs.verts))
	qs.qIdx[v] = k
	qs.verts = append(qs.verts, v)
	return k
}

// find is the union-find lookup with path halving over ufPar.
func (qs *queryScratch) find(x int32) int32 {
	for qs.ufPar[x] != x {
		qs.ufPar[x] = qs.ufPar[qs.ufPar[x]]
		x = qs.ufPar[x]
	}
	return x
}

// grow extends s by n elements (contents unspecified) with amortized
// doubling, returning the extended slice and the start index of the new
// region.
func growInt32(s []int32, n int) []int32 {
	if need := len(s) + n; cap(s) < need {
		ns := make([]int32, len(s), max(need, 2*cap(s)))
		copy(ns, s)
		s = ns
	}
	return s[:len(s)+n]
}

func growBlocks(s []Block, n int) []Block {
	if need := len(s) + n; cap(s) < need {
		ns := make([]Block, len(s), max(need, 2*cap(s)))
		copy(ns, s)
		s = ns
	}
	return s[:len(s)+n]
}

func growNodes(s []graph.NodeID, n int) []graph.NodeID {
	if need := len(s) + n; cap(s) < need {
		ns := make([]graph.NodeID, len(s), max(need, 2*cap(s)))
		copy(ns, s)
		s = ns
	}
	return s[:len(s)+n]
}

// Blocks returns the block components of part i, sorted by (root depth, root
// ID) — the priority order Lemma 2 routing uses — with each block's Nodes
// sorted ascending. Isolated vertices of P_i (no incident H_i edge) form
// singleton blocks. The result is a deep copy the caller owns.
func (s *Shortcut) Blocks(i int) []Block { return copyBlocks(s.blocks[i]) }

// copyBlocks deep-copies a decomposition: one headers slice plus one flat
// node arena the copies subslice, so the copy costs two allocations however
// many blocks there are.
func copyBlocks(src []Block) []Block {
	if len(src) == 0 {
		return nil
	}
	total := 0
	for _, b := range src {
		total += len(b.Nodes)
	}
	nodes := make([]graph.NodeID, total)
	out := make([]Block, len(src))
	pos := 0
	for k, b := range src {
		nn := copy(nodes[pos:], b.Nodes)
		out[k] = Block{Root: b.Root, Nodes: nodes[pos : pos+nn : pos+nn]}
		pos += nn
	}
	return out
}

// appendBlocks computes part i's block decomposition into qs's append arenas
// (headers onto qs.blocks, vertex lists onto qs.nodes): collect H_i's
// vertices under dense local indices, union its edges, group the vertices of
// components intersecting P_i into per-block node segments, then order nodes
// ascending and blocks by (root depth, root ID). Pure with respect to the
// shortcut: all mutable state lives in qs.
func (s *Shortcut) appendBlocks(qs *queryScratch, i int) {
	g := s.t.Graph()
	qs.begin(g.NumNodes())
	for _, e := range s.partEdges[i] {
		ed := g.Edge(e)
		a := qs.local(ed.U)
		b := qs.local(ed.V)
		qs.pairs = append(qs.pairs, qpair{a, b})
	}
	for _, v := range s.p.Nodes(i) {
		qs.local(v)
	}
	nv := len(qs.verts)
	qs.ufPar = growInt32(qs.ufPar[:0], nv)
	qs.ufSz = growInt32(qs.ufSz[:0], nv)
	for k := range qs.ufPar {
		qs.ufPar[k] = int32(k)
		qs.ufSz[k] = 1
	}
	for _, e := range qs.pairs {
		ra, rb := qs.find(e.a), qs.find(e.b)
		if ra == rb {
			continue
		}
		if qs.ufSz[ra] < qs.ufSz[rb] {
			ra, rb = rb, ra
		}
		qs.ufPar[rb] = ra
		qs.ufSz[ra] += qs.ufSz[rb]
	}
	if cap(qs.mark) < nv {
		qs.mark = make([]bool, nv)
	}
	qs.mark = qs.mark[:nv]
	for k := range qs.mark {
		qs.mark[k] = false
	}
	for _, v := range s.p.Nodes(i) {
		qs.mark[qs.find(qs.qIdx[v])] = true
	}
	// Discover blocks in local-vertex order and count their nodes.
	qs.bIdx = growInt32(qs.bIdx[:0], nv)
	for k := range qs.bIdx {
		qs.bIdx[k] = 0
	}
	qs.cnt = qs.cnt[:0]
	total := 0
	for k := 0; k < nv; k++ {
		rep := qs.find(int32(k))
		if !qs.mark[rep] {
			continue
		}
		if qs.bIdx[rep] == 0 {
			qs.cnt = append(qs.cnt, 0)
			qs.bIdx[rep] = int32(len(qs.cnt))
		}
		qs.cnt[qs.bIdx[rep]-1]++
		total++
	}
	nb := len(qs.cnt)
	if nb == 0 {
		return
	}
	// Fill each block's node segment in the arena, tracking the shallowest
	// root on the way.
	qs.cur = growInt32(qs.cur[:0], nb)
	start := int32(0)
	for b := 0; b < nb; b++ {
		qs.cur[b] = start
		start += qs.cnt[b]
	}
	nodeBase := len(qs.nodes)
	qs.nodes = growNodes(qs.nodes, total)
	blockBase := len(qs.blocks)
	qs.blocks = growBlocks(qs.blocks, nb)
	for b := 0; b < nb; b++ {
		qs.blocks[blockBase+b] = Block{Root: -1}
	}
	for k := 0; k < nv; k++ {
		rep := qs.find(int32(k))
		if !qs.mark[rep] {
			continue
		}
		b := int(qs.bIdx[rep] - 1)
		v := qs.verts[k]
		qs.nodes[nodeBase+int(qs.cur[b])] = v
		qs.cur[b]++
		blk := &qs.blocks[blockBase+b]
		if blk.Root == -1 || s.t.Depth(v) < s.t.Depth(blk.Root) ||
			(s.t.Depth(v) == s.t.Depth(blk.Root) && v < blk.Root) {
			blk.Root = v
		}
	}
	for b := 0; b < nb; b++ {
		hi := nodeBase + int(qs.cur[b])
		lo := hi - int(qs.cnt[b])
		seg := qs.nodes[lo:hi:hi]
		sort.Ints(seg)
		qs.blocks[blockBase+b].Nodes = seg
	}
	// Order blocks by (root depth, root ID). Block counts are small (the
	// construction bounds them by 3B), so an allocation-free insertion sort
	// beats sort.Slice here.
	hdrs := qs.blocks[blockBase:]
	for a := 1; a < len(hdrs); a++ {
		h := hdrs[a]
		d := s.t.Depth(h.Root)
		b := a - 1
		for b >= 0 && (s.t.Depth(hdrs[b].Root) > d || (s.t.Depth(hdrs[b].Root) == d && hdrs[b].Root > h.Root)) {
			hdrs[b+1] = hdrs[b]
			b--
		}
		hdrs[b+1] = h
	}
}

// BlockCount returns the number of block components of part i.
func (s *Shortcut) BlockCount(i int) int { return len(s.blocks[i]) }

// BlockParameter returns the block parameter b of the shortcut: the maximum
// block count over all parts.
func (s *Shortcut) BlockParameter() int { return s.qual.BlockParameter }

// PartDiameter returns the exact diameter of the communication subgraph
// G[P_i] + H_i (vertices: P_i plus all H_i endpoints; edges: G's edges
// interior to P_i plus H_i). Returns graph.Unreached if disconnected, which
// cannot happen for a valid shortcut over a connected part.
func (s *Shortcut) PartDiameter(i int) int { return s.partDiam[i] }

func (s *Shortcut) partDiameter(qs *queryScratch, i int) int {
	s.partAdjacency(qs, i)
	return graph.ExactDiameter(&qs.diam, qs.off, qs.to)
}

// Dilation returns the exact dilation: the maximum PartDiameter over all
// parts.
func (s *Shortcut) Dilation() int { return s.qual.Dilation }

// partAdjacency builds the CSR adjacency of G[P_i]+H_i over dense local
// vertex indices into qs.off/qs.to: G's edges interior to P_i (each once, by
// endpoint order), plus the H_i edges that leave P_i — an H_i edge interior
// to P_i is a G-edge between part vertices and was already added by the
// induced pass. qs.off ends up with one entry per local vertex, plus one.
func (s *Shortcut) partAdjacency(qs *queryScratch, i int) {
	g := s.t.Graph()
	qs.begin(g.NumNodes())
	for _, v := range s.p.Nodes(i) {
		qs.local(v)
	}
	for _, v := range s.p.Nodes(i) {
		tos, _ := g.Arcs(v)
		for _, wi := range tos {
			if w := graph.NodeID(wi); s.p.Part(w) == i && w > v {
				qs.pairs = append(qs.pairs, qpair{qs.qIdx[v], qs.qIdx[w]})
			}
		}
	}
	for _, e := range s.partEdges[i] {
		ed := g.Edge(e)
		if s.p.Part(ed.U) == i && s.p.Part(ed.V) == i {
			continue
		}
		a := qs.local(ed.U)
		b := qs.local(ed.V)
		qs.pairs = append(qs.pairs, qpair{a, b})
	}
	nVerts := len(qs.verts)
	qs.off = growInt32(qs.off[:0], nVerts+1)
	for k := range qs.off {
		qs.off[k] = 0
	}
	for _, e := range qs.pairs {
		qs.off[e.a+1]++
		qs.off[e.b+1]++
	}
	for k := 1; k <= nVerts; k++ {
		qs.off[k] += qs.off[k-1]
	}
	qs.to = growInt32(qs.to[:0], 2*len(qs.pairs))
	qs.cur = growInt32(qs.cur[:0], nVerts)
	copy(qs.cur, qs.off[:nVerts])
	for _, e := range qs.pairs {
		qs.to[qs.cur[e.a]] = e.b
		qs.cur[e.a]++
		qs.to[qs.cur[e.b]] = e.a
		qs.cur[e.b]++
	}
}

// Validate checks structural invariants: only tree edges are assigned, every
// part index on every edge is valid, and every edge's list is strictly
// ascending. NewShortcut rejects input that fails it, so on a constructed
// shortcut a failure means a construction bug.
func (s *Shortcut) Validate() error {
	for e, parts := range s.edgeParts {
		if len(parts) == 0 {
			continue
		}
		if !s.t.IsTreeEdge(e) {
			return fmt.Errorf("core: non-tree edge %d assigned to %d parts", e, len(parts))
		}
		for k, p := range parts {
			if p < 0 || p >= s.p.NumParts() {
				return fmt.Errorf("core: edge %d assigned invalid part %d", e, p)
			}
			if k > 0 && parts[k-1] >= p {
				return fmt.Errorf("core: edge %d part list not sorted/unique", e)
			}
		}
	}
	return nil
}

// Quality bundles the three quality measures for experiment tables.
type Quality struct {
	Congestion     int
	BlockParameter int
	Dilation       int
}

// Measure returns all three quality parameters.
func (s *Shortcut) Measure() Quality { return s.qual }
