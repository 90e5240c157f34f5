// Package partition provides vertex partitions into disjoint connected parts
// — the input structure of the low-congestion shortcut problem — together
// with generators for the partition families used in the experiments:
// BFS-Voronoi regions, grid stripes/columns, snake partitions whose parts
// have diameter far exceeding the graph diameter (the paper's §1.2
// motivation), and the interleaved-comb pair from the planar-MST lower-bound
// intuition.
package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// None marks vertices that belong to no part. The shortcut definition allows
// parts to cover only a subset of V.
const None = -1

// Partition assigns each vertex to at most one part. Parts are indexed
// densely from 0; each part must induce a connected subgraph (validated by
// Validate, which all constructors in this package guarantee).
type Partition struct {
	assign []int
	lists  [][]graph.NodeID
}

// FromAssignment builds a Partition from a per-vertex part index (None for
// uncovered vertices). Part indices must be dense in [0, max+1), so an index
// at or past len(assign) cannot be valid; it is rejected before anything is
// sized from it, which bounds the allocation by O(len(assign)) whatever the
// input.
func FromAssignment(assign []int) (*Partition, error) {
	maxPart := -1
	for v, p := range assign {
		if p < None {
			return nil, fmt.Errorf("partition: vertex %d has invalid part %d", v, p)
		}
		if p >= len(assign) {
			return nil, fmt.Errorf("partition: vertex %d has part %d, not below the vertex count %d (indices must be dense)",
				v, p, len(assign))
		}
		if p > maxPart {
			maxPart = p
		}
	}
	lists := make([][]graph.NodeID, maxPart+1)
	cp := make([]int, len(assign))
	copy(cp, assign)
	for v, p := range cp {
		if p != None {
			lists[p] = append(lists[p], v)
		}
	}
	for i, l := range lists {
		if len(l) == 0 {
			return nil, fmt.Errorf("partition: part %d is empty (indices must be dense)", i)
		}
	}
	return &Partition{assign: cp, lists: lists}, nil
}

// NumParts returns N, the number of parts.
func (p *Partition) NumParts() int { return len(p.lists) }

// Part returns the part index of v, or None.
func (p *Partition) Part(v graph.NodeID) int { return p.assign[v] }

// Nodes returns the vertices of part i. The slice is owned by the partition.
func (p *Partition) Nodes(i int) []graph.NodeID { return p.lists[i] }

// Assignment returns the per-vertex part indices. The slice is owned by the
// partition.
func (p *Partition) Assignment() []int { return p.assign }

// Size returns |P_i|.
func (p *Partition) Size(i int) int { return len(p.lists[i]) }

// Validate checks the shortcut-problem preconditions on g: every part
// non-empty and connected in the subgraph it induces, assignments within
// range. (Disjointness is structural: assign is a single-valued map.)
func (p *Partition) Validate(g *graph.Graph) error {
	if len(p.assign) != g.NumNodes() {
		return fmt.Errorf("partition: covers %d vertices, graph has %d", len(p.assign), g.NumNodes())
	}
	s := graph.GetScratch()
	defer s.Release()
	for i, nodes := range p.lists {
		src := nodes[0]
		dist := g.BFSWithinScratch(s, src, func(v graph.NodeID) bool { return p.assign[v] == i })
		for _, v := range nodes {
			if dist[v] == graph.Unreached {
				return fmt.Errorf("partition: part %d is disconnected (vertex %d unreachable from %d inside the part)", i, v, src)
			}
		}
	}
	return nil
}

// MaxPartDiameter returns the largest internal diameter over all parts when
// each part may only use its own induced edges — the quantity whose blow-up
// motivates shortcuts.
func (p *Partition) MaxPartDiameter(g *graph.Graph) int {
	s := graph.GetScratch()
	defer s.Release()
	maxD := 0
	for i := range p.lists {
		if d := g.SubsetDiameterScratch(s, p.lists[i]); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// Voronoi partitions all of g into numSeeds connected regions by a
// simultaneous BFS from randomly chosen distinct seeds: each vertex joins the
// region of the seed that reaches it first (ties broken toward the smaller
// region index, which keeps regions connected). g must be connected and have
// at least numSeeds vertices.
func Voronoi(g *graph.Graph, numSeeds int, seed int64) *Partition {
	n := g.NumNodes()
	if numSeeds < 1 || numSeeds > n {
		panic(fmt.Sprintf("partition: %d seeds for %d vertices", numSeeds, n))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = None
	}
	queue := make([]graph.NodeID, 0, n)
	for i := 0; i < numSeeds; i++ {
		assign[perm[i]] = i
		queue = append(queue, perm[i])
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		to, _ := g.Arcs(v)
		for _, w := range to {
			if assign[w] == None {
				assign[w] = assign[v]
				queue = append(queue, graph.NodeID(w))
			}
		}
	}
	p, err := FromAssignment(assign)
	if err != nil {
		panic(fmt.Sprintf("partition: voronoi produced invalid partition: %v", err))
	}
	return p
}

// Singletons returns the trivial partition with every vertex its own part —
// the starting partition of Boruvka's algorithm.
func Singletons(n int) *Partition {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i
	}
	p, err := FromAssignment(assign)
	if err != nil {
		panic(fmt.Sprintf("partition: singletons invalid: %v", err))
	}
	return p
}

// Whole returns the single-part partition covering all n vertices.
func Whole(n int) *Partition {
	p, err := FromAssignment(make([]int, n))
	if err != nil {
		panic(fmt.Sprintf("partition: whole invalid: %v", err))
	}
	return p
}

// GridColumns partitions a gen.Grid(w, h) into w parts, one per column. Each
// part is a path of h vertices.
func GridColumns(w, h int) *Partition {
	gi := gen.GridIndexer{W: w, H: h}
	assign := make([]int, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			assign[gi.Node(x, y)] = x
		}
	}
	p, err := FromAssignment(assign)
	if err != nil {
		panic(fmt.Sprintf("partition: columns invalid: %v", err))
	}
	return p
}

// GridSnake builds numParts snake-shaped parts on a gen.Grid(w, h): the grid
// is cut into numParts horizontal bands and each part is a boustrophedon
// *path* over every second row of its band, with single-cell connectors in
// the skipped rows; the remaining skipped-row cells stay uncovered. Each part
// is therefore a path of ≈ w·(h/numParts)/2 vertices with internal diameter
// of the same order — far larger than the grid diameter w+h — realizing the
// paper's §1.2 motivating pathology (the E9 workload). Requires
// h/numParts ≥ 2.
func GridSnake(w, h, numParts int) *Partition {
	bandH := h / numParts
	if numParts < 1 || bandH < 2 {
		panic(fmt.Sprintf("partition: %d snake parts need band height >= 2 on a %dx%d grid", numParts, w, h))
	}
	gi := gen.GridIndexer{W: w, H: h}
	assign := make([]int, w*h)
	for i := range assign {
		assign[i] = None
	}
	for b := 0; b < numParts; b++ {
		top := b * bandH
		for off := 0; off < bandH; off += 2 {
			for x := 0; x < w; x++ {
				assign[gi.Node(x, top+off)] = b
			}
			if off+2 < bandH {
				// Connector in the skipped row, alternating ends.
				x := w - 1
				if (off/2)%2 == 1 {
					x = 0
				}
				assign[gi.Node(x, top+off+1)] = b
			}
		}
	}
	p, err := FromAssignment(assign)
	if err != nil {
		panic(fmt.Sprintf("partition: snake invalid: %v", err))
	}
	return p
}

// CombPair partitions a gen.Grid(w, h) with h ≥ 2 into two interleaved combs:
// part 0 owns the top row plus every even column, part 1 owns the bottom row
// plus every odd column (columns exclude the opposite spine row). Both parts
// are connected; routing within one comb between adjacent teeth must detour
// via its spine. Requires w ≥ 2.
func CombPair(w, h int) *Partition {
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("partition: comb pair needs w,h >= 2, got %d,%d", w, h))
	}
	gi := gen.GridIndexer{W: w, H: h}
	assign := make([]int, w*h)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			switch {
			case y == 0:
				assign[gi.Node(x, y)] = 0 // top spine
			case y == h-1:
				assign[gi.Node(x, y)] = 1 // bottom spine
			case x%2 == 0:
				assign[gi.Node(x, y)] = 0 // even tooth hangs from top
			default:
				assign[gi.Node(x, y)] = 1 // odd tooth hangs from bottom
			}
		}
	}
	p, err := FromAssignment(assign)
	if err != nil {
		panic(fmt.Sprintf("partition: comb invalid: %v", err))
	}
	return p
}

// FromParts builds a partition from explicit vertex lists (used by
// generator-paired decompositions such as gen.LowerBoundPaths). Vertices not
// listed belong to no part.
func FromParts(n int, parts [][]graph.NodeID) (*Partition, error) {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = None
	}
	for i, nodes := range parts {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("partition: part %d empty", i)
		}
		for _, v := range nodes {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("partition: part %d has out-of-range vertex %d", i, v)
			}
			if assign[v] != None {
				return nil, fmt.Errorf("partition: vertex %d in parts %d and %d", v, assign[v], i)
			}
			assign[v] = i
		}
	}
	return FromAssignment(assign)
}

// Stats summarizes a partition for experiment tables.
type Stats struct {
	NumParts    int
	MinSize     int
	MaxSize     int
	MaxDiameter int // largest part-internal diameter
}

// Summarize computes partition statistics on g.
func (p *Partition) Summarize(g *graph.Graph) Stats {
	s := Stats{NumParts: p.NumParts(), MinSize: len(p.assign) + 1}
	for i := range p.lists {
		if l := len(p.lists[i]); l < s.MinSize {
			s.MinSize = l
		}
		if l := len(p.lists[i]); l > s.MaxSize {
			s.MaxSize = l
		}
	}
	s.MaxDiameter = p.MaxPartDiameter(g)
	return s
}

// SortedSizes returns all part sizes in ascending order (test helper).
func (p *Partition) SortedSizes() []int {
	out := make([]int, 0, len(p.lists))
	for i := range p.lists {
		out = append(out, len(p.lists[i]))
	}
	sort.Ints(out)
	return out
}
