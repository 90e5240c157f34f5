package bfsproto

import (
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/tree"
)

func checkBFS(t *testing.T, g *graph.Graph, root graph.NodeID) congest.Stats {
	t.Helper()
	infos, stats, err := Run(g, root, 12345, congest.Options{
		MaxMessageBits: 3*congest.BitsForID(g.NumNodes()) + 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := g.BFS(root)
	parents := make([]graph.NodeID, g.NumNodes())
	for v, info := range infos {
		if info.Depth != want[v] {
			t.Errorf("node %d: depth %d, want %d", v, info.Depth, want[v])
		}
		if info.Count != g.NumNodes() {
			t.Errorf("node %d: count %d, want %d", v, info.Count, g.NumNodes())
		}
		if info.Seed != 12345 {
			t.Errorf("node %d: seed %d", v, info.Seed)
		}
		parents[v] = info.Parent
	}
	// The parent pointers must form a valid spanning tree whose height all
	// nodes agree on.
	tr, err := tree.FromParents(g, root, parents)
	if err != nil {
		t.Fatal(err)
	}
	for v, info := range infos {
		if info.Height != tr.Height() {
			t.Errorf("node %d: height %d, want %d", v, info.Height, tr.Height())
		}
		// Children lists must mirror parent pointers.
		if len(info.Children) != len(tr.Children(v)) {
			t.Errorf("node %d: %d children, want %d", v, len(info.Children), len(tr.Children(v)))
		}
	}
	return stats
}

func TestBFSOnFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		root graph.NodeID
	}{
		{"single", graph.MustFromEdges(1, nil), 0},
		{"path20", gen.Path(20), 0},
		{"path20mid", gen.Path(20), 10},
		{"grid8x8", gen.Grid(8, 8), 0},
		{"torus6x6", gen.Torus(6, 6), 17},
		{"star30", gen.Star(30), 0},
		{"star30leaf", gen.Star(30), 5},
		{"er60", gen.ErdosRenyi(60, 0.08, 2), 3},
		{"tree80", gen.RandomTree(80, 9), 0},
		{"lollipop", gen.Lollipop(8, 12), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkBFS(t, tc.g, tc.root)
		})
	}
}

func TestBFSRoundComplexity(t *testing.T) {
	// The flood/echo/broadcast sequence must finish in O(D) rounds — we
	// assert the concrete bound 3·depth(T) + 5.
	for _, size := range []int{5, 10, 16} {
		g := gen.Grid(size, size)
		stats := checkBFS(t, g, 0)
		depth := g.Eccentricity(0)
		if limit := 3*depth + 5; stats.Rounds > limit {
			t.Errorf("size %d: rounds = %d > %d (D=%d)", size, stats.Rounds, limit, depth)
		}
	}
}

func TestBFSRoundsScaleWithDiameter(t *testing.T) {
	// Rounds grow with D, not with n: a 4×64 grid (D=66) must need far more
	// rounds than a 16×16 grid (D=30) of equal size.
	gWide := gen.Grid(64, 4)
	gSquare := gen.Grid(16, 16)
	sWide := checkBFS(t, gWide, 0)
	sSquare := checkBFS(t, gSquare, 0)
	if sWide.Rounds <= sSquare.Rounds {
		t.Errorf("wide rounds %d <= square rounds %d", sWide.Rounds, sSquare.Rounds)
	}
}

func TestBFSMessageSizes(t *testing.T) {
	// All payloads stay within the O(log n) budget (64-bit seed rides along
	// with the done message: log n + const).
	g := gen.Grid(10, 10)
	_, stats, err := Run(g, 0, 7, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if limit := 3*congest.BitsForID(g.NumNodes()) + 64; stats.MaxMessageBits > limit {
		t.Errorf("max message bits %d > %d", stats.MaxMessageBits, limit)
	}
}
