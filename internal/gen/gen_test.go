package gen

import (
	"math/rand"
	"testing"
	"time"

	"lcshortcut/internal/graph"
)

func TestGridShape(t *testing.T) {
	w, h := 5, 4
	g := Grid(w, h)
	if g.NumNodes() != w*h {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), w*h)
	}
	wantEdges := (w-1)*h + w*(h-1)
	if g.NumEdges() != wantEdges {
		t.Errorf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	if !g.Connected() {
		t.Error("grid not connected")
	}
	if d := g.Diameter(); d != (w-1)+(h-1) {
		t.Errorf("diameter = %d, want %d", d, w+h-2)
	}
	gi := GridIndexer{W: w, H: h}
	x, y := gi.Coords(gi.Node(3, 2))
	if x != 3 || y != 2 {
		t.Errorf("Coords(Node(3,2)) = (%d,%d)", x, y)
	}
}

func TestTorusShape(t *testing.T) {
	w, h := 6, 4
	g := Torus(w, h)
	if g.NumEdges() != 2*w*h {
		t.Errorf("edges = %d, want %d", g.NumEdges(), 2*w*h)
	}
	if d := g.Diameter(); d != w/2+h/2 {
		t.Errorf("diameter = %d, want %d", d, w/2+h/2)
	}
	// Every vertex of a torus has degree 4.
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
}

func TestHandledGrid(t *testing.T) {
	for _, handles := range []int{0, 1, 2, 5} {
		g := HandledGrid(8, 8, handles)
		base := Grid(8, 8)
		if got := g.NumEdges() - base.NumEdges(); got != handles {
			t.Errorf("handles=%d: extra edges = %d", handles, got)
		}
		if !g.Connected() {
			t.Errorf("handles=%d: not connected", handles)
		}
	}
}

// TestHandledGridTooManyHandles pins the argument panic for more handles
// than free left/right border pairs: the attempt loop must give up within a
// bounded number of tries instead of spinning forever.
func TestHandledGridTooManyHandles(t *testing.T) {
	for _, tc := range []struct{ w, h, handles int }{{2, 2, 3}, {3, 3, 20}} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			HandledGrid(tc.w, tc.h, tc.handles)
		}()
		select {
		case r := <-done:
			if r == nil {
				t.Errorf("HandledGrid(%d,%d,%d) returned instead of panicking", tc.w, tc.h, tc.handles)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("HandledGrid(%d,%d,%d) did not return within 10s", tc.w, tc.h, tc.handles)
		}
	}
}

func TestTreeGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", Path(17)},
		{"star", Star(9)},
		{"binary", CompleteBinaryTree(4)},
		{"random", RandomTree(33, 5)},
		{"caterpillar", Caterpillar(6, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.NumEdges() != tc.g.NumNodes()-1 {
				t.Errorf("edges = %d, want %d (tree)", tc.g.NumEdges(), tc.g.NumNodes()-1)
			}
			if !tc.g.Connected() {
				t.Error("not connected")
			}
		})
	}
}

func TestCompleteBinaryTreeDepth(t *testing.T) {
	g := CompleteBinaryTree(5)
	if g.NumNodes() != 63 {
		t.Errorf("nodes = %d, want 63", g.NumNodes())
	}
	if e := g.Eccentricity(0); e != 5 {
		t.Errorf("root eccentricity = %d, want 5", e)
	}
}

func TestOuterplanarTriangulation(t *testing.T) {
	for _, n := range []int{3, 4, 10, 57} {
		for seed := int64(0); seed < 4; seed++ {
			g := OuterplanarTriangulation(n, seed)
			if g.NumEdges() != 2*n-3 {
				t.Errorf("n=%d seed=%d: edges = %d, want %d", n, seed, g.NumEdges(), 2*n-3)
			}
			if !g.Connected() {
				t.Errorf("n=%d seed=%d: not connected", n, seed)
			}
			// Planarity proxy: |E| ≤ 3n-6 for n ≥ 3.
			if g.NumEdges() > 3*n-6 && n > 3 {
				t.Errorf("n=%d: violates planar edge bound", n)
			}
		}
	}
}

func TestErdosRenyiConnected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := ErdosRenyi(40, 0.05, seed)
		if !g.Connected() {
			t.Errorf("seed=%d: not connected", seed)
		}
		if g.NumEdges() < 39 {
			t.Errorf("seed=%d: fewer edges than backbone", seed)
		}
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(10, 20)
	if g.NumNodes() != 30 {
		t.Fatalf("nodes = %d, want 30", g.NumNodes())
	}
	if d := g.Diameter(); d != 21 {
		t.Errorf("diameter = %d, want 21", d)
	}
}

func TestPathPower(t *testing.T) {
	g := PathPower(20, 3)
	if !g.Connected() {
		t.Fatal("not connected")
	}
	want := 3*20 - (1 + 2 + 3)
	if g.NumEdges() != want {
		t.Errorf("edges = %d, want %d", g.NumEdges(), want)
	}
	// Diameter of path power: ceil((n-1)/k).
	if d := g.Diameter(); d != 7 {
		t.Errorf("diameter = %d, want 7", d)
	}
}

func TestRingOfCliques(t *testing.T) {
	g := RingOfCliques(5, 4)
	if g.NumNodes() != 20 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	wantEdges := 5*(4*3/2) + 5
	if g.NumEdges() != wantEdges {
		t.Errorf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
}

func TestLowerBoundStructure(t *testing.T) {
	m, l := 4, 8
	g := LowerBound(m, l)
	if !g.Connected() {
		t.Fatal("not connected")
	}
	// Small diameter: through the highway every pair is within O(log l + 2).
	if d := g.Diameter(); d > 2*(4+2) {
		t.Errorf("diameter = %d, unexpectedly large", d)
	}
	parts := LowerBoundPaths(m, l)
	if len(parts) != m {
		t.Fatalf("parts = %d, want %d", len(parts), m)
	}
	for p, part := range parts {
		if len(part) != l {
			t.Fatalf("part %d size = %d, want %d", p, len(part), l)
		}
		if got := g.SubsetDiameter(part); got != l-1 {
			t.Errorf("part %d internal diameter = %d, want %d", p, got, l-1)
		}
	}
}

func TestWithUniqueWeights(t *testing.T) {
	g := WithUniqueWeights(Grid(5, 5), 3)
	seen := make(map[int64]bool, g.NumEdges())
	for _, e := range g.Edges() {
		if seen[e.W] {
			t.Fatalf("duplicate weight %d", e.W)
		}
		if e.W < 1 || e.W > int64(g.NumEdges()) {
			t.Fatalf("weight %d out of range", e.W)
		}
		seen[e.W] = true
	}
}

func TestWithRandomWeightsRange(t *testing.T) {
	g := WithRandomWeights(Torus(4, 4), 9, 100)
	for _, e := range g.Edges() {
		if e.W < 1 || e.W > 100 {
			t.Fatalf("weight %d out of [1,100]", e.W)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a := ErdosRenyi(30, 0.1, 77)
	b := ErdosRenyi(30, 0.1, 77)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("ErdosRenyi not deterministic")
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i) != b.Edge(i) {
			t.Fatal("ErdosRenyi edge lists differ")
		}
	}
}

// Property: every generator family stays simple — graph.FromEdges rejects
// duplicates, so the degree sum and the edge count agree.
func TestSimpleGraphProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		gs := []*graph.Graph{
			Grid(2+rng.Intn(6), 2+rng.Intn(6)),
			Torus(3+rng.Intn(5), 3+rng.Intn(5)),
			RandomTree(2+rng.Intn(50), rng.Int63()),
			OuterplanarTriangulation(3+rng.Intn(40), rng.Int63()),
			PathPower(2+rng.Intn(30), 1+rng.Intn(4)),
		}
		for _, g := range gs {
			degSum := 0
			for v := 0; v < g.NumNodes(); v++ {
				degSum += g.Degree(v)
			}
			if degSum != 2*g.NumEdges() {
				t.Fatalf("handshake lemma violated: degSum=%d edges=%d", degSum, g.NumEdges())
			}
		}
	}
}
