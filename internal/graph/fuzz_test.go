package graph

import (
	"bytes"
	"errors"
	"testing"
)

// refGraph is a deliberately naive reimplementation of the pre-CSR
// slice-of-slices adjacency build. The fuzzers check FromEdges and FindEdge
// against it arc for arc.
type refGraph struct {
	adj   [][]Arc
	edges []Edge
	seen  map[[2]NodeID]EdgeID
}

func newRefGraph(n int) *refGraph {
	return &refGraph{adj: make([][]Arc, n), seen: map[[2]NodeID]EdgeID{}}
}

func (r *refGraph) addEdge(u, v NodeID, w int64) (EdgeID, bool) {
	if u == v || u < 0 || u >= len(r.adj) || v < 0 || v >= len(r.adj) {
		return 0, false
	}
	key := [2]NodeID{min(u, v), max(u, v)}
	if _, dup := r.seen[key]; dup {
		return 0, false
	}
	id := len(r.edges)
	r.edges = append(r.edges, Edge{U: u, V: v, W: w})
	r.adj[u] = append(r.adj[u], Arc{To: v, Edge: id})
	r.adj[v] = append(r.adj[v], Arc{To: u, Edge: id})
	r.seen[key] = id
	return id, true
}

// decodeFuzzEdges decodes a byte stream into a vertex count and a raw edge
// sequence (endpoints unreduced, so out-of-range ones occur) and replays it
// against the reference adjacency build. It returns the reference, the raw
// edges, the edges the reference accepted, and whether it rejected any.
func decodeFuzzEdges(data []byte) (n int, ref *refGraph, raw, accepted []Edge, rejected bool) {
	n = 1 + int(data[0])%64
	ref = newRefGraph(n)
	for i := 1; i+1 < len(data); i += 2 {
		e := Edge{U: NodeID(data[i]), V: NodeID(data[i+1]), W: int64(i)}
		raw = append(raw, e)
		if _, ok := ref.addEdge(e.U, e.V, e.W); ok {
			accepted = append(accepted, e)
		} else {
			rejected = true
		}
	}
	return n, ref, raw, accepted, rejected
}

// FuzzFromEdges replays a decoded edge sequence against the reference
// adjacency build and checks two things. FromEdges over the raw sequence
// fails with ErrBadEdge exactly when the reference rejects some edge.
// FromEdges over the accepted edges agrees with the reference on degrees,
// arc order, edge IDs and BFS distances.
func FuzzFromEdges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2, 0, 2})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{7, 0, 1, 0, 1, 1, 0, 6, 5})
	f.Add(bytes.Repeat([]byte{13, 2, 11}, 9))
	f.Add([]byte{5, 0, 1, 0, 1, 3, 4, 2, 0})
	f.Add([]byte{64, 0, 63, 9, 9, 1, 0})
	// Edges pointing both ways: (0,1) (2,1) (3,0) (4,2) (4,0) (3,4).
	f.Add([]byte{4, 0, 1, 2, 1, 3, 0, 4, 2, 4, 0, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, ref, raw, accepted, rejected := decodeFuzzEdges(data)
		if _, err := FromEdges(n, raw); rejected != (err != nil) || (err != nil && !errors.Is(err, ErrBadEdge)) {
			t.Fatalf("FromEdges over the raw edges: err=%v, reference rejected some edge: %v", err, rejected)
		}
		g, err := FromEdges(n, accepted)
		if err != nil {
			t.Fatalf("FromEdges rejected the reference-accepted edges: %v", err)
		}
		if g.NumNodes() != n || g.NumEdges() != len(ref.edges) {
			t.Fatalf("built %d nodes / %d edges, reference %d / %d",
				g.NumNodes(), g.NumEdges(), n, len(ref.edges))
		}
		for id, want := range ref.edges {
			if got := g.Edge(id); got != want {
				t.Fatalf("Edge(%d) = %+v, reference %+v", id, got, want)
			}
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != len(ref.adj[v]) {
				t.Fatalf("Degree(%d) = %d, reference %d", v, g.Degree(v), len(ref.adj[v]))
			}
			to, eid := g.Arcs(v)
			for k, want := range ref.adj[v] {
				if NodeID(to[k]) != want.To || EdgeID(eid[k]) != want.Edge {
					t.Fatalf("Arcs(%d)[%d] = (%d,%d), reference (%d,%d)",
						v, k, to[k], eid[k], want.To, want.Edge)
				}
			}
			if got := g.AppendArcs(nil, v); len(got) != len(ref.adj[v]) {
				t.Fatalf("AppendArcs(%d) has %d arcs, reference %d", v, len(got), len(ref.adj[v]))
			}
		}
		// Cross-check a scratch traversal against the reference adjacency:
		// reachability must agree with a BFS over ref.adj.
		s := GetScratch()
		defer s.Release()
		dist := g.BFSScratch(s, 0)
		refDist := make([]int, n)
		for i := range refDist {
			refDist[i] = Unreached
		}
		refDist[0] = 0
		queue := []NodeID{0}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, a := range ref.adj[v] {
				if refDist[a.To] == Unreached {
					refDist[a.To] = refDist[v] + 1
					queue = append(queue, a.To)
				}
			}
		}
		for v := 0; v < n; v++ {
			if int(dist[v]) != refDist[v] {
				t.Fatalf("BFS dist[%d] = %d, reference %d", v, dist[v], refDist[v])
			}
		}
	})
}

// FuzzFindEdge builds the reference-accepted edges of a decoded sequence
// with FromEdges and checks the adjacency-scan FindEdge against the
// reference's edge map: every present edge is found under its ID in both
// orientations, and present and absent pairs among the first eight
// vertices answer alike.
func FuzzFindEdge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2, 0, 2})
	f.Add([]byte{5, 0, 1, 0, 1, 3, 4, 2, 0})
	f.Add([]byte{64, 0, 63, 9, 9, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, ref, _, accepted, _ := decodeFuzzEdges(data)
		g, err := FromEdges(n, accepted)
		if err != nil {
			t.Fatalf("FromEdges rejected the reference-accepted edges: %v", err)
		}
		for id, e := range ref.edges {
			if eid, ok := g.FindEdge(e.U, e.V); !ok || eid != id {
				t.Fatalf("FindEdge(%d,%d) = %d,%v, want %d,true", e.U, e.V, eid, ok, id)
			}
			if eid, ok := g.FindEdge(e.V, e.U); !ok || eid != id {
				t.Fatalf("FindEdge(%d,%d) = %d,%v, want %d,true", e.V, e.U, eid, ok, id)
			}
		}
		for u := 0; u < n && u < 8; u++ {
			for v := u + 1; v < n && v < 8; v++ {
				wid, wok := ref.seen[[2]NodeID{u, v}]
				gid, gok := g.FindEdge(u, v)
				if wok != gok || (wok && wid != gid) {
					t.Fatalf("FindEdge(%d,%d) = %d,%v, reference %d,%v", u, v, gid, gok, wid, wok)
				}
			}
		}
	})
}
