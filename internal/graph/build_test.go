package graph

import (
	"errors"
	"math"
	"testing"
)

// TestFromEdgesValidation pins what FromEdges rejects in an edge list: self
// loops, endpoints outside [0, n) and duplicates in either orientation are
// ErrBadEdge, returned and never panicked, so user-supplied edge lists fail
// gracefully.
func TestFromEdgesValidation(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"self loop", 3, []Edge{{U: 1, V: 1}}},
		{"out of range", 3, []Edge{{U: 0, V: 3}}},
		{"negative endpoint", 3, []Edge{{U: -1, V: 2}}},
		{"duplicate", 3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 0}}},
		{"repeated", 3, []Edge{{U: 0, V: 1}, {U: 0, V: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if g, err := FromEdges(tc.n, tc.edges); g != nil || !errors.Is(err, ErrBadEdge) {
				t.Fatalf("FromEdges = %v, %v, want nil, ErrBadEdge", g, err)
			}
		})
	}
	g, err := FromEdges(3, []Edge{{U: 0, V: 1, W: 1}})
	if err != nil || g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Fatalf("valid edge: g=%v err=%v, want 3 nodes / 1 edge", g, err)
	}
}

// TestFromEdgesVertexCount pins the vertex-count checks: a negative count is
// an error and one past the CSR index space is ErrGraphTooLarge, both
// returned rather than panicked, so size-parameterized generation can fail
// gracefully.
func TestFromEdgesVertexCount(t *testing.T) {
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("negative vertex count: want error, got nil")
	}
	if _, err := FromEdges(math.MaxInt32, nil); !errors.Is(err, ErrGraphTooLarge) {
		t.Errorf("oversized vertex count: got err %v, want ErrGraphTooLarge", err)
	}
	g, err := FromEdges(2, nil)
	if err != nil || g.NumNodes() != 2 {
		t.Fatalf("FromEdges(2, nil) = %v, %v, want 2 nodes", g, err)
	}
}

// TestMustFromEdgesPanics pins the Must* escape hatch for statically
// well-formed construction code.
func TestMustFromEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFromEdges(-1, nil) did not panic")
		}
	}()
	MustFromEdges(-1, nil)
}

func TestFromEdgesEmptyAndEdgeless(t *testing.T) {
	g, err := FromEdges(0, nil)
	if err != nil || g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: g=%v err=%v", g, err)
	}
	g, err = FromEdges(4, nil)
	if err != nil || g.NumNodes() != 4 || g.NumEdges() != 0 {
		t.Fatalf("edgeless graph: g=%v err=%v", g, err)
	}
}

// TestBuildOffsetsBoundary pins the int32→int64 boundary of the offsets
// prefix sum with synthetic counts: totals up to MaxInt32 lay out exactly,
// and the first arc past it is reported as ErrGraphTooLarge rather than
// wrapping — without materializing a 2^31-arc graph.
func TestBuildOffsetsBoundary(t *testing.T) {
	const maxArcs = int64(math.MaxInt32)
	// Exactly at the boundary: 3 vertices carrying MaxInt32 arcs in total.
	counts := []int64{maxArcs - 10, 7, 3}
	offsets, err := buildOffsets(counts)
	if err != nil {
		t.Fatalf("buildOffsets at MaxInt32 total: %v", err)
	}
	want := []int32{0, math.MaxInt32 - 10, math.MaxInt32 - 3, math.MaxInt32}
	for i := range want {
		if offsets[i] != want[i] {
			t.Fatalf("offsets[%d] = %d, want %d", i, offsets[i], want[i])
		}
	}
	// One arc past the boundary overflows int32 and must be detected.
	counts = []int64{maxArcs - 10, 7, 4}
	if _, err := buildOffsets(counts); !errors.Is(err, ErrGraphTooLarge) {
		t.Fatalf("buildOffsets past MaxInt32: %v, want ErrGraphTooLarge", err)
	}
	// A single vertex overflowing on its own (degree > MaxInt32) as well.
	if _, err := buildOffsets([]int64{maxArcs + 1}); !errors.Is(err, ErrGraphTooLarge) {
		t.Fatalf("single-vertex overflow: %v, want ErrGraphTooLarge", err)
	}
}

func TestFindEdge(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 3, W: 1}}
	g := MustFromEdges(4, append([]Edge(nil), edges...))
	for id, e := range edges {
		if got, ok := g.FindEdge(e.U, e.V); !ok || got != id {
			t.Fatalf("FindEdge(%d,%d) = %d,%v, want %d,true", e.U, e.V, got, ok, id)
		}
		if got, ok := g.FindEdge(e.V, e.U); !ok || got != id {
			t.Fatalf("FindEdge(%d,%d) = %d,%v, want %d,true", e.V, e.U, got, ok, id)
		}
	}
	if _, ok := g.FindEdge(2, 3); ok {
		t.Fatal("FindEdge found an absent edge")
	}
	if _, ok := g.FindEdge(0, 17); ok {
		t.Fatal("FindEdge found an out-of-range edge")
	}
	if _, ok := g.FindEdge(-1, 2); ok {
		t.Fatal("FindEdge found a negative-endpoint edge")
	}
}
