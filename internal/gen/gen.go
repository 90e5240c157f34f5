// Package gen provides deterministic graph generators for every topology
// family used in the paper's analysis and in this repository's experiments:
// planar grids, genus-g tori and handled grids, random planar-style
// triangulations, trees, the Peleg–Rubinovich style lower-bound graph, and
// assorted pathological families (lollipops, caterpillars, bounded
// pathwidth).
//
// All generators are deterministic given their arguments (and seed, when they
// take one), produce connected simple graphs, and set every edge weight to 1;
// use WithRandomWeights or WithUniqueWeights to re-weight for MST workloads.
// Each is written once: it appends its edges, in a fixed order, to one slice
// (preallocated to the exact edge count where that has a closed form) and
// hands it to graph.MustFromEdges. Where a family could repeat an edge, a
// structural test skips the repeat instead of a dedup map: Erdős–Rényi's
// backbone check, RandomGeometric's backbone check, HandledGrid's free-pair
// test and RandomRegular's swap repair.
package gen

import (
	"fmt"
	"math/rand"

	"lcshortcut/internal/graph"
)

// GridIndexer maps (x, y) coordinates of a W×H grid to the NodeIDs produced
// by Grid, Torus and HandledGrid.
type GridIndexer struct {
	W, H int
}

// Node returns the NodeID at column x, row y.
func (gi GridIndexer) Node(x, y int) graph.NodeID { return y*gi.W + x }

// Coords returns the (x, y) position of a NodeID.
func (gi GridIndexer) Coords(v graph.NodeID) (x, y int) { return v % gi.W, v / gi.W }

// Grid returns the W×H planar grid graph (genus 0). Node (x, y) is adjacent
// to (x±1, y) and (x, y±1).
func Grid(w, h int) *graph.Graph {
	return graph.MustFromEdges(w*h, appendGrid(make([]graph.Edge, 0, gridEdges(w, h)), w, h))
}

// gridEdges is the W×H grid's edge count, 0 for an empty grid.
func gridEdges(w, h int) int { return max(2*w*h-w-h, 0) }

// appendGrid appends the W×H grid's edges to edges, row by row, each vertex's
// right edge before its down edge. Generators that extend a grid (HandledGrid,
// SurfaceMesh) start from it.
func appendGrid(edges []graph.Edge, w, h int) []graph.Edge {
	gi := GridIndexer{W: w, H: h}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, unit(gi.Node(x, y), gi.Node(x+1, y)))
			}
			if y+1 < h {
				edges = append(edges, unit(gi.Node(x, y), gi.Node(x, y+1)))
			}
		}
	}
	return edges
}

// unit returns the weight-1 edge {u, v}; every generator emits unit weights.
func unit(u, v graph.NodeID) graph.Edge { return graph.Edge{U: u, V: v, W: 1} }

// Torus returns the W×H toroidal grid (genus 1 when w, h ≥ 3): a grid with
// horizontal and vertical wraparound edges.
func Torus(w, h int) *graph.Graph {
	if w < 3 || h < 3 {
		panic(fmt.Sprintf("gen: torus needs w,h >= 3, got %dx%d", w, h))
	}
	edges := make([]graph.Edge, 0, 2*w*h)
	gi := GridIndexer{W: w, H: h}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			edges = append(edges,
				unit(gi.Node(x, y), gi.Node((x+1)%w, y)),
				unit(gi.Node(x, y), gi.Node(x, (y+1)%h)))
		}
	}
	return graph.MustFromEdges(w*h, edges)
}

// HandledGrid returns a W×H grid with `handles` extra long-range edges, each
// connecting a left-border vertex to a right-border vertex. Adding k edges to
// a planar graph yields a graph of genus at most k, so the result has genus
// ≤ handles; this is the controlled genus-g family used by the E5
// experiment. It panics when the border has fewer free left/right pairs than
// handles.
func HandledGrid(w, h, handles int) *graph.Graph {
	if handles > 0 && (w < 1 || h < 1) {
		panic(fmt.Sprintf("gen: handled grid needs w,h >= 1 for handles, got %dx%d", w, h))
	}
	edges := appendGrid(make([]graph.Edge, 0, gridEdges(w, h)+max(handles, 0)), w, h)
	gridM := len(edges)
	gi := GridIndexer{W: w, H: h}
	// free reports whether {u, v} is neither a self loop, a grid edge nor a
	// handle already placed: the only edges present when a handle is tried.
	free := func(u, v graph.NodeID) bool {
		ux, uy := gi.Coords(u)
		vx, vy := gi.Coords(v)
		if u == v || abs(ux-vx)+abs(uy-vy) == 1 {
			return false
		}
		for _, e := range edges[gridM:] {
			if (e.U == u && e.V == v) || (e.U == v && e.V == u) {
				return false
			}
		}
		return true
	}
	// Both candidate rules below depend on i only modulo h, so h attempts in a
	// row without a free pair mean none is left.
	for i, misses := 0, 0; len(edges)-gridM < handles; i++ {
		if misses == h {
			panic(fmt.Sprintf("gen: %dx%d grid has fewer than %d free left/right border pairs", w, h, handles))
		}
		misses++
		// Connect left-border row r to right-border row (h-1-r), spreading the
		// attachment rows over the border.
		r := (i * (h / (handles + 1))) % h
		u, v := gi.Node(0, r), gi.Node(w-1, h-1-r)
		if u == v {
			r = (r + 1) % h
			u, v = gi.Node(0, r), gi.Node(w-1, h-1-r)
		}
		if !free(u, v) {
			// Fall back to the first free pair at row offset i.
			for r2 := 0; r2 < h; r2++ {
				if u, v = gi.Node(0, r2), gi.Node(w-1, (h-1-r2+i)%h); free(u, v) {
					break
				}
			}
		}
		if free(u, v) {
			edges = append(edges, unit(u, v))
			misses = 0
		}
	}
	return graph.MustFromEdges(w*h, edges)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Path returns the path graph on n vertices (0-1-2-...-(n-1)).
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for i := 0; i+1 < n; i++ {
		edges = append(edges, unit(i, i+1))
	}
	return graph.MustFromEdges(n, edges)
}

// Ring returns the cycle graph on n ≥ 3 vertices.
func Ring(n int) *graph.Graph {
	return graph.MustFromEdges(n, appendRing(make([]graph.Edge, 0, n), n))
}

// appendRing appends the n-cycle 0-1-...-(n-1)-0 to edges; it panics for
// n < 3.
func appendRing(edges []graph.Edge, n int) []graph.Edge {
	if n < 3 {
		panic(fmt.Sprintf("gen: ring needs n >= 3, got %d", n))
	}
	for i := 0; i+1 < n; i++ {
		edges = append(edges, unit(i, i+1))
	}
	return append(edges, unit(n-1, 0))
}

// Star returns the star graph: center 0 connected to 1..n-1.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for i := 1; i < n; i++ {
		edges = append(edges, unit(0, i))
	}
	return graph.MustFromEdges(n, edges)
}

// CompleteBinaryTree returns the complete binary tree of the given depth
// (depth 0 is a single root). Node i has children 2i+1 and 2i+2.
func CompleteBinaryTree(depth int) *graph.Graph {
	n := (1 << (depth + 1)) - 1
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for i := 1; i < n; i++ {
		edges = append(edges, unit(i, (i-1)/2))
	}
	return graph.MustFromEdges(n, edges)
}

// RandomTree returns a uniformly-attached random tree on n vertices: vertex i
// attaches to a uniformly random earlier vertex.
func RandomTree(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for i := 1; i < n; i++ {
		edges = append(edges, unit(i, rng.Intn(i)))
	}
	return graph.MustFromEdges(n, edges)
}

// Caterpillar returns a caterpillar: a spine path of the given length with
// legs pendant vertices attached to every spine vertex.
func Caterpillar(spine, legs int) *graph.Graph {
	edges := make([]graph.Edge, 0, max(spine-1, 0)+max(spine*legs, 0))
	for i := 0; i+1 < spine; i++ {
		edges = append(edges, unit(i, i+1))
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			edges = append(edges, unit(i, next))
			next++
		}
	}
	return graph.MustFromEdges(spine*(1+legs), edges)
}

// Lollipop returns a clique of cliqueSize vertices with a path of pathLen
// vertices hanging off vertex 0. Its diameter is pathLen+1 while the clique
// part has diameter 1 — a stress case for per-part diameters.
func Lollipop(cliqueSize, pathLen int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			edges = append(edges, unit(i, j))
		}
	}
	prev := 0
	for i := 0; i < pathLen; i++ {
		edges = append(edges, unit(prev, cliqueSize+i))
		prev = cliqueSize + i
	}
	return graph.MustFromEdges(cliqueSize+pathLen, edges)
}

// ErdosRenyi returns a connected G(n, p)-style random graph: a random tree
// backbone (guaranteeing connectivity) plus each remaining pair independently
// with probability p. Every pair {u, v} with u < v draws one coin; a pair
// that is v's own backbone edge (parent[v] == u) is already present and is
// skipped after its draw, so the coin sequence is the same either way.
func ErdosRenyi(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	parent := make([]int32, n)
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for i := 1; i < n; i++ {
		parent[i] = int32(rng.Intn(i))
		edges = append(edges, unit(i, int(parent[i])))
	}
	// The coin loop keeps only its counters in registers: the edge list is
	// reached through a pointer, so it is not spilled and reloaded around
	// every one of the O(n²) coin draws.
	out := &edges
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p && int(parent[v]) != u {
				*out = append(*out, unit(u, v))
			}
		}
	}
	return graph.MustFromEdges(n, edges)
}

// OuterplanarTriangulation returns a random maximal outerplanar graph
// (hence planar) on n ≥ 3 vertices: the cycle 0..n-1 plus a random
// triangulation of its interior, built by recursive fan splits. It has
// exactly 2n-3 edges.
func OuterplanarTriangulation(n int, seed int64) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: triangulation needs n >= 3, got %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	edges := appendRing(make([]graph.Edge, 0, max(2*n-3, 0)), n)
	var split func(lo, hi int)
	split = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		mid := lo + 1 + rng.Intn(hi-lo-1)
		if mid-lo >= 2 {
			edges = append(edges, unit(lo, mid))
		}
		if hi-mid >= 2 {
			edges = append(edges, unit(mid, hi))
		}
		split(lo, mid)
		split(mid, hi)
	}
	split(0, n-1)
	return graph.MustFromEdges(n, edges)
}

// PathPower returns the k-th power of a path on n vertices: i~j iff
// 0 < |i-j| ≤ k. Its pathwidth is exactly k, making it the controlled
// bounded-pathwidth family mentioned in the paper's Section 1.3.
func PathPower(n, k int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for d := 1; d <= k && i+d < n; d++ {
			edges = append(edges, unit(i, i+d))
		}
	}
	return graph.MustFromEdges(n, edges)
}

// LowerBound returns the Peleg–Rubinovich style hard instance behind the
// Ω̃(√n + D) lower bound: numPaths horizontal paths of pathLen vertices each,
// plus a balanced binary-tree "highway" over the pathLen columns whose leaf j
// is connected to the j-th vertex of every path. Taking the paths as parts,
// any low-dilation shortcut must route through the highway whose root edges
// see every part — forcing congestion ≈ numPaths — while avoiding the highway
// forces dilation ≈ pathLen.
//
// Node layout: path vertices occupy [0, numPaths*pathLen) row-major; the
// highway tree occupies the remaining IDs with its root first.
func LowerBound(numPaths, pathLen int) *graph.Graph {
	if numPaths < 1 || pathLen < 2 {
		panic(fmt.Sprintf("gen: lower bound graph needs numPaths >= 1, pathLen >= 2, got %d,%d", numPaths, pathLen))
	}
	// Round the number of highway leaves up to a power of two ≥ pathLen.
	leaves := 1
	for leaves < pathLen {
		leaves *= 2
	}
	treeN := 2*leaves - 1
	base := numPaths * pathLen
	edges := make([]graph.Edge, 0, numPaths*(pathLen-1)+treeN-1+pathLen*numPaths)
	pathNode := func(p, j int) graph.NodeID { return p*pathLen + j }
	treeNode := func(i int) graph.NodeID { return base + i } // heap-indexed
	for p := 0; p < numPaths; p++ {
		for j := 0; j+1 < pathLen; j++ {
			edges = append(edges, unit(pathNode(p, j), pathNode(p, j+1)))
		}
	}
	for i := 1; i < treeN; i++ {
		edges = append(edges, unit(treeNode(i), treeNode((i-1)/2)))
	}
	for j := 0; j < pathLen; j++ {
		leaf := treeNode(leaves - 1 + j)
		for p := 0; p < numPaths; p++ {
			edges = append(edges, unit(leaf, pathNode(p, j)))
		}
	}
	return graph.MustFromEdges(base+treeN, edges)
}

// LowerBoundPaths returns the part decomposition of a LowerBound graph (one
// part per horizontal path).
func LowerBoundPaths(numPaths, pathLen int) [][]graph.NodeID {
	parts := make([][]graph.NodeID, numPaths)
	for p := 0; p < numPaths; p++ {
		part := make([]graph.NodeID, pathLen)
		for j := 0; j < pathLen; j++ {
			part[j] = p*pathLen + j
		}
		parts[p] = part
	}
	return parts
}

// RingOfCliques returns k cliques of size s whose vertex 0s are joined in a
// ring. Diameter ≈ k/2 + 2 while every clique is dense.
func RingOfCliques(k, s int) *graph.Graph {
	if k < 3 || s < 1 {
		panic(fmt.Sprintf("gen: ring of cliques needs k >= 3, s >= 1, got %d,%d", k, s))
	}
	edges := make([]graph.Edge, 0, k*(s*(s-1)/2+1))
	for c := 0; c < k; c++ {
		off := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				edges = append(edges, unit(off+i, off+j))
			}
		}
		edges = append(edges, unit(off, ((c+1)%k)*s))
	}
	return graph.MustFromEdges(k*s, edges)
}

// WithRandomWeights returns a clone of g in which each edge has an
// independent uniform weight in [1, maxW] drawn from the seeded generator.
// The input graph is left untouched: reweighting a shared graph (e.g. a
// registry build) must not leak into other consumers.
func WithRandomWeights(g *graph.Graph, seed int64, maxW int64) *graph.Graph {
	g = g.Clone()
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < g.NumEdges(); id++ {
		g.SetWeight(id, 1+rng.Int63n(maxW))
	}
	return g
}

// WithUniqueWeights returns a clone of g in which each edge has a distinct
// weight (a random permutation of 1..NumEdges), guaranteeing a unique MST.
// The input graph is left untouched.
func WithUniqueWeights(g *graph.Graph, seed int64) *graph.Graph {
	g = g.Clone()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(g.NumEdges())
	for id := 0; id < g.NumEdges(); id++ {
		g.SetWeight(id, int64(perm[id])+1)
	}
	return g
}
