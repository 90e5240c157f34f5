package graph

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadEdge is returned by FromEdges for self loops, duplicate edges, and
// endpoints outside [0, n).
var ErrBadEdge = errors.New("graph: invalid edge")

// ErrGraphTooLarge is returned by FromEdges when a requested graph exceeds
// the CSR int32 index space (vertex or arc counts).
var ErrGraphTooLarge = errors.New("graph: size exceeds the CSR int32 index space")

// FromEdges lays edges out as an immutable CSR Graph on n vertices; edge i
// of the slice becomes EdgeID i. It is the only Graph constructor, and it
// takes ownership of edges: the caller must not touch the slice afterwards.
//
// One counting pass validates every edge (self loops and endpoints outside
// [0, n) are ErrBadEdge) and sizes each vertex's arc range, a prefix sum
// turns the counts into offsets (more than MaxInt32 arcs is
// ErrGraphTooLarge), and a fill pass writes both directions of every edge.
// Within a vertex, arcs land in ascending EdgeID order, so traversal orders
// — and every seeded output — follow the edge order alone. Duplicates in
// either orientation are ErrBadEdge, found by one epoch-stamped scan of the
// finished adjacency instead of a per-edge map.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > math.MaxInt32-1 {
		return nil, fmt.Errorf("%w: vertex count %d", ErrGraphTooLarge, n)
	}
	counts := make([]int64, n)
	for _, e := range edges {
		switch {
		case e.U == e.V:
			return nil, fmt.Errorf("%w: self loop at %d", ErrBadEdge, e.U)
		case e.U < 0 || e.U >= n || e.V < 0 || e.V >= n:
			return nil, fmt.Errorf("%w: endpoints (%d,%d) out of range [0,%d)", ErrBadEdge, e.U, e.V, n)
		}
		counts[e.U]++
		counts[e.V]++
	}
	offsets, err := buildOffsets(counts)
	if err != nil {
		return nil, err
	}
	numArcs := offsets[n]
	arcTo := make([]int32, numArcs)
	arcEdge := make([]int32, numArcs)
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for id, e := range edges {
		ku := cursor[e.U]
		arcTo[ku], arcEdge[ku] = int32(e.V), int32(id)
		cursor[e.U]++
		kv := cursor[e.V]
		arcTo[kv], arcEdge[kv] = int32(e.U), int32(id)
		cursor[e.V]++
	}
	// The cursors are spent; reuse them as stamps. stamp[t] records the last
	// vertex whose adjacency touched t, so seeing t twice within one vertex
	// means a repeated neighbor, i.e. a duplicate undirected edge.
	stamp := cursor
	for i := range stamp {
		stamp[i] = -1
	}
	for v := 0; v < n; v++ {
		for _, t := range arcTo[offsets[v]:offsets[v+1]] {
			if stamp[t] == int32(v) {
				return nil, fmt.Errorf("%w: duplicate edge (%d,%d)", ErrBadEdge, v, t)
			}
			stamp[t] = int32(v)
		}
	}
	return &Graph{
		arcOffsets: offsets,
		arcTo:      arcTo,
		arcEdge:    arcEdge,
		edges:      edges,
	}, nil
}

// MustFromEdges is FromEdges for statically well-formed construction code
// (generators, tests); it panics on the errors FromEdges reports.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// buildOffsets turns per-vertex arc counts into the CSR offsets array via an
// int64 prefix sum, reporting ErrGraphTooLarge the moment the running total
// leaves the int32 arc index space — the overflow is detected, never wrapped.
// Factored out of FromEdges so the int32→int64 boundary is testable with
// synthetic counts, without materializing a 2^31-arc graph.
func buildOffsets(counts []int64) ([]int32, error) {
	n := len(counts)
	offsets := make([]int32, n+1)
	var total int64
	for v := 0; v < n; v++ {
		offsets[v] = int32(total)
		total += counts[v]
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("%w: arc count %d at vertex %d", ErrGraphTooLarge, total, v)
		}
	}
	offsets[n] = int32(total)
	return offsets, nil
}
