// Package graph provides the static undirected-graph substrate used by every
// other package in this repository: adjacency storage, weighted edges,
// traversals, connectivity queries and diameter computation.
//
// Graphs are node-indexed from 0 to NumNodes-1 and edge-indexed from 0 to
// NumEdges-1. Both indices are stable across the life of a Graph, which lets
// the CONGEST simulator, spanning trees and shortcuts all refer to edges by
// their integer ID.
//
// A Graph is immutable in structure once built (only edge weights may be
// rewritten). FromEdges is the one constructor: it takes an edge slice and
// lays the adjacency out in compressed-sparse-row form, one flat offsets
// array plus two flat arc arrays (neighbor, edge ID), so traversals stream
// through contiguous memory instead of chasing per-vertex slice headers. Hot
// loops iterate with Arcs; the Scratch pool makes repeated traversals
// allocation-free.
package graph

import (
	"fmt"
)

// NodeID identifies a vertex of a Graph. Vertices are dense integers in
// [0, NumNodes).
type NodeID = int

// EdgeID identifies an undirected edge of a Graph. Edges are dense integers
// in [0, NumEdges).
type EdgeID = int

// Edge is an undirected weighted edge between U and V.
type Edge struct {
	U, V NodeID
	W    int64
}

// Arc is one direction of an undirected edge as seen from a vertex's
// adjacency: the neighbor it leads to and the ID of the underlying edge.
// The CSR core stores arcs as parallel int32 arrays (see Arcs); Arc remains
// the materialized form used by the CONGEST simulator's per-node views.
type Arc struct {
	To   NodeID
	Edge EdgeID
}

// Graph is a simple undirected graph (no self loops, no parallel edges) with
// int64 edge weights, stored in compressed-sparse-row form. The zero value is
// not usable; construct with FromEdges.
type Graph struct {
	// arcOffsets has NumNodes+1 entries; the arcs of vertex v occupy indices
	// [arcOffsets[v], arcOffsets[v+1]) of arcTo and arcEdge. Within a vertex,
	// arcs appear in edge-insertion order (ascending EdgeID), matching the
	// historical slice-of-slices layout bit-for-bit so traversal orders — and
	// therefore every seeded experiment table — are unchanged.
	arcOffsets []int32
	arcTo      []int32
	arcEdge    []int32
	edges      []Edge
	// views holds lazily-built derived arc arrays (see arcviews.go).
	views arcViews
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.arcOffsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Arcs returns the CSR adjacency views of v as parallel slices: to[k] is the
// k-th neighbor and edge[k] the EdgeID connecting to it. The slices alias the
// graph's arrays and must not be modified. This is the zero-allocation
// iteration primitive all hot loops use.
func (g *Graph) Arcs(v NodeID) (to, edge []int32) {
	lo, hi := g.arcOffsets[v], g.arcOffsets[v+1]
	return g.arcTo[lo:hi], g.arcEdge[lo:hi]
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.arcOffsets[v+1] - g.arcOffsets[v])
}

// AppendArcs appends v's adjacency, materialized as Arc values, to buf and
// returns the extended slice. Callers that need the Arc form repeatedly (the
// CONGEST simulator's per-node neighbor views) build it once with this.
func (g *Graph) AppendArcs(buf []Arc, v NodeID) []Arc {
	to, edge := g.Arcs(v)
	for k := range to {
		buf = append(buf, Arc{To: NodeID(to[k]), Edge: EdgeID(edge[k])})
	}
	return buf
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns all edges. The returned slice is owned by the graph and must
// not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// SetWeight replaces the weight of edge id — the only permitted mutation of a
// built graph.
func (g *Graph) SetWeight(id EdgeID, w int64) { g.edges[id].W = w }

// FindEdge returns the ID of edge {u,v} if present, scanning the smaller
// endpoint's adjacency.
func (g *Graph) FindEdge(u, v NodeID) (EdgeID, bool) {
	if u < 0 || v < 0 || u >= g.NumNodes() || v >= g.NumNodes() {
		return 0, false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	to, edge := g.Arcs(u)
	for k, t := range to {
		if NodeID(t) == v {
			return EdgeID(edge[k]), true
		}
	}
	return 0, false
}

// Other returns the endpoint of edge id that is not v. It panics if v is not
// an endpoint of the edge (a programmer error).
func (g *Graph) Other(id EdgeID, v NodeID) NodeID {
	e := g.edges[id]
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d (%d,%d)", v, id, e.U, e.V))
}

// Clone returns a deep copy of g (same node/edge IDs, independent weights).
func (g *Graph) Clone() *Graph {
	return MustFromEdges(g.NumNodes(), append([]Edge(nil), g.edges...))
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() int64 {
	var s int64
	for _, e := range g.edges {
		s += e.W
	}
	return s
}
