package partition

import (
	"math/rand"
	"runtime"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

func TestFromAssignmentValidation(t *testing.T) {
	if _, err := FromAssignment([]int{0, 2, 0}); err == nil {
		t.Error("sparse part indices accepted")
	}
	if _, err := FromAssignment([]int{0, -5}); err == nil {
		t.Error("invalid negative index accepted")
	}
	// A part index at or past the vertex count cannot be dense. It must be
	// rejected before the part lists are sized from it: 1<<62 would panic in
	// makeslice, and 1e7 would allocate hundreds of MB for two vertices.
	for _, huge := range []int{2, 10_000_000, 1 << 62} {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, err := FromAssignment([]int{0, huge})
		runtime.ReadMemStats(&ms)
		if err == nil {
			t.Errorf("part index %d accepted for 2 vertices", huge)
		}
		if grew := ms.TotalAlloc - before; grew > 1<<16 {
			t.Errorf("rejecting part index %d allocated %d bytes, want O(len(assign))", huge, grew)
		}
	}
	p, err := FromAssignment([]int{0, None, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 2 {
		t.Errorf("NumParts = %d, want 2", p.NumParts())
	}
	if p.Part(1) != None || p.Part(3) != 0 {
		t.Error("wrong assignments")
	}
	if p.Size(0) != 2 || p.Size(1) != 1 {
		t.Error("wrong sizes")
	}
}

func TestVoronoiCoversAndConnected(t *testing.T) {
	for _, numSeeds := range []int{1, 2, 7, 25} {
		g := gen.Grid(10, 10)
		p := Voronoi(g, numSeeds, 5)
		if p.NumParts() != numSeeds {
			t.Fatalf("seeds=%d: NumParts = %d", numSeeds, p.NumParts())
		}
		total := 0
		for i := 0; i < p.NumParts(); i++ {
			total += p.Size(i)
		}
		if total != g.NumNodes() {
			t.Errorf("seeds=%d: covers %d of %d vertices", numSeeds, total, g.NumNodes())
		}
		if err := p.Validate(g); err != nil {
			t.Errorf("seeds=%d: %v", numSeeds, err)
		}
	}
}

func TestVoronoiConnectedOnManyGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		g := gen.ErdosRenyi(60, 0.06, rng.Int63())
		p := Voronoi(g, 1+rng.Intn(12), rng.Int63())
		if err := p.Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSingletonsAndWhole(t *testing.T) {
	g := gen.Ring(9)
	s := Singletons(9)
	if s.NumParts() != 9 {
		t.Errorf("singletons parts = %d", s.NumParts())
	}
	if err := s.Validate(g); err != nil {
		t.Error(err)
	}
	w := Whole(9)
	if w.NumParts() != 1 || w.Size(0) != 9 {
		t.Errorf("whole parts = %d size=%d", w.NumParts(), w.Size(0))
	}
	if err := w.Validate(g); err != nil {
		t.Error(err)
	}
}

func TestGridColumns(t *testing.T) {
	w, h := 8, 6
	g := gen.Grid(w, h)
	p := GridColumns(w, h)
	if p.NumParts() != w {
		t.Fatalf("parts = %d, want %d", p.NumParts(), w)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if d := p.MaxPartDiameter(g); d != h-1 {
		t.Errorf("max part diameter = %d, want %d", d, h-1)
	}
}

func TestGridSnakePathology(t *testing.T) {
	w, h, parts := 12, 12, 3
	g := gen.Grid(w, h)
	p := GridSnake(w, h, parts)
	if p.NumParts() != parts {
		t.Fatalf("parts = %d, want %d", p.NumParts(), parts)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	// The snake pathology: each part is a path over 2 rows of its 4-row band,
	// so its internal diameter is ≈ 2w+1 = 25 > D = 22, and it grows linearly
	// in band area while D stays w+h.
	if d := p.MaxPartDiameter(g); d <= g.Diameter() {
		t.Errorf("snake part diameter %d not larger than graph diameter %d", d, g.Diameter())
	}
	// Scale the pathology up: on a 16x16 grid with one part, the snake is a
	// path of ~8 rows; its diameter must dwarf D = 30.
	g2 := gen.Grid(16, 16)
	p2 := GridSnake(16, 16, 1)
	if err := p2.Validate(g2); err != nil {
		t.Fatal(err)
	}
	if d := p2.MaxPartDiameter(g2); d < 4*g2.Diameter() {
		t.Errorf("large snake diameter %d, want >= %d", d, 4*g2.Diameter())
	}
}

func TestCombPair(t *testing.T) {
	w, h := 9, 7
	g := gen.Grid(w, h)
	p := CombPair(w, h)
	if p.NumParts() != 2 {
		t.Fatalf("parts = %d, want 2", p.NumParts())
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.Size(0)+p.Size(1) != w*h {
		t.Error("combs do not cover the grid")
	}
}

func TestFromParts(t *testing.T) {
	m, l := 3, 5
	g := gen.LowerBound(m, l)
	p, err := FromParts(g.NumNodes(), gen.LowerBoundPaths(m, l))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != m {
		t.Fatalf("parts = %d", p.NumParts())
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Highway vertices are uncovered.
	uncovered := 0
	for v := 0; v < g.NumNodes(); v++ {
		if p.Part(v) == None {
			uncovered++
		}
	}
	if uncovered != g.NumNodes()-m*l {
		t.Errorf("uncovered = %d, want %d", uncovered, g.NumNodes()-m*l)
	}

	if _, err := FromParts(4, [][]graph.NodeID{{0, 1}, {1, 2}}); err == nil {
		t.Error("overlapping parts accepted")
	}
	if _, err := FromParts(4, [][]graph.NodeID{{0}, {}}); err == nil {
		t.Error("empty part accepted")
	}
	if _, err := FromParts(4, [][]graph.NodeID{{0, 9}}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestValidateCatchesDisconnected(t *testing.T) {
	g := gen.Path(5)
	p, err := FromAssignment([]int{0, 1, 0, 1, 0}) // both parts shredded
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err == nil {
		t.Error("disconnected parts passed validation")
	}
}

func TestSummarize(t *testing.T) {
	g := gen.Grid(6, 6)
	p := GridColumns(6, 6)
	s := p.Summarize(g)
	if s.NumParts != 6 || s.MinSize != 6 || s.MaxSize != 6 || s.MaxDiameter != 5 {
		t.Errorf("stats = %+v", s)
	}
	sizes := p.SortedSizes()
	if len(sizes) != 6 || sizes[0] != 6 || sizes[5] != 6 {
		t.Errorf("sizes = %v", sizes)
	}
}
