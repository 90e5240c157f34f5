package mincut

import (
	"math/rand"
	"reflect"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/mst"
	"lcshortcut/internal/tree"
)

// bruteMinCut enumerates every bipartition (vertex 0 pinned to one side) —
// the ground truth for graphs up to ~14 vertices.
func bruteMinCut(tb testing.TB, g *graph.Graph) int64 {
	tb.Helper()
	n := g.NumNodes()
	if n < 2 || n > 16 {
		tb.Fatalf("bruteMinCut: n=%d out of range", n)
	}
	side := make([]bool, n)
	best := int64(-1)
	for mask := 1; mask < 1<<(n-1); mask++ {
		for v := 1; v < n; v++ {
			side[v] = mask&(1<<(v-1)) != 0
		}
		if w := CutWeight(g, side); best < 0 || w < best {
			best = w
		}
	}
	return best
}

// bridgeGraph joins two 3x3 grids with a single weight-w bridge; every
// internal edge weighs 10, so the bridge is the unique minimum cut.
func bridgeGraph(tb testing.TB, w int64) *graph.Graph {
	tb.Helper()
	var edges []graph.Edge
	add := func(off int) {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				v := off + y*3 + x
				if x+1 < 3 {
					edges = append(edges, graph.Edge{U: v, V: v + 1, W: 10})
				}
				if y+1 < 3 {
					edges = append(edges, graph.Edge{U: v, V: v + 3, W: 10})
				}
			}
		}
	}
	add(0)
	add(9)
	edges = append(edges, graph.Edge{U: 8, V: 9, W: w})
	return graph.MustFromEdges(18, edges)
}

// twoEdges is the disconnected graph 0-1, 2-3.
func twoEdges() *graph.Graph {
	return graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
}

func TestStoerWagnerVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(7)
		g := gen.WithRandomWeights(gen.ErdosRenyi(n, 0.3+rng.Float64()*0.3, rng.Int63()), rng.Int63(), 9)
		want := bruteMinCut(t, g)
		got, side, err := StoerWagner(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d (n=%d): StoerWagner %d, brute force %d", trial, n, got, want)
		}
		if w := CutWeight(g, side); w != got {
			t.Fatalf("trial %d: reported side cuts %d, value %d", trial, w, got)
		}
	}
}

func TestStoerWagnerKnownCuts(t *testing.T) {
	ringW := gen.Ring(8)
	for e := 0; e < ringW.NumEdges(); e++ {
		ringW.SetWeight(e, 5)
	}
	ringW.SetWeight(0, 1)
	ringW.SetWeight(4, 2)
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"ring8", gen.Ring(8), 2},
		{"path5", gen.Path(5), 1},
		{"star6", gen.Star(6), 1},
		{"bridged-grids", bridgeGraph(t, 3), 3},
		{"weighted-ring", ringW, 3}, // the two lightest of the two-edge ring cuts
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, side, err := StoerWagner(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("min cut %d, want %d", got, tc.want)
			}
			if w := CutWeight(tc.g, side); w != got {
				t.Fatalf("side cuts %d, value %d", w, got)
			}
		})
	}
}

func TestStoerWagnerErrors(t *testing.T) {
	if _, _, err := StoerWagner(graph.MustFromEdges(1, nil)); err == nil {
		t.Error("single-node graph accepted")
	}
	g := gen.Path(3)
	g.SetWeight(0, 0)
	if _, _, err := StoerWagner(g); err == nil {
		t.Error("zero-weight edge accepted")
	}
	if got, _, err := StoerWagner(twoEdges()); err != nil || got != 0 {
		t.Errorf("disconnected graph: cut=%d err=%v, want 0 nil", got, err)
	}
}

func TestGreedyPackProperties(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Grid(5, 5),
		gen.WithUniqueWeights(gen.Torus(4, 4), 3),
		gen.ErdosRenyi(30, 0.15, 7),
	} {
		const k = 5
		trees, loads, err := GreedyPack(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) != k {
			t.Fatalf("packed %d trees, want %d", len(trees), k)
		}
		recount := make([]int, g.NumEdges())
		member := make([]bool, g.NumEdges())
		for ti, edges := range trees {
			if len(edges) != g.NumNodes()-1 {
				t.Fatalf("tree %d has %d edges, want %d", ti, len(edges), g.NumNodes()-1)
			}
			for e := range member {
				member[e] = false
			}
			for _, e := range edges {
				member[e] = true
				recount[e]++
			}
			if _, err := LiftTree(g, 0, member); err != nil {
				t.Fatalf("tree %d does not span: %v", ti, err)
			}
		}
		if !reflect.DeepEqual(recount, loads) {
			t.Fatalf("loads %v, membership recount %v", loads, recount)
		}
	}
	if _, _, err := GreedyPack(twoEdges(), 2); err == nil {
		t.Error("disconnected graph packed")
	}
}

func TestBestOneRespectingVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		g := gen.WithRandomWeights(gen.ErdosRenyi(n, 0.4, rng.Int63()), rng.Int63(), 7)
		tr := tree.BFSTree(g, rng.Intn(n))
		bestVal, bestEdge := int64(-1), graph.EdgeID(-1)
		for _, e := range tr.TreeEdges() {
			if w := CutWeight(g, SubtreeSide(tr, e)); bestVal < 0 || w < bestVal || (w == bestVal && e < bestEdge) {
				bestVal, bestEdge = w, e
			}
		}
		gotVal, gotEdge := BestOneRespecting(tr)
		if gotVal != bestVal || gotEdge != bestEdge {
			t.Fatalf("trial %d: BestOneRespecting = (%d, edge %d), brute force (%d, edge %d)",
				trial, gotVal, gotEdge, bestVal, bestEdge)
		}
	}
}

func TestCentralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(8)
		g := gen.WithRandomWeights(gen.ErdosRenyi(n, 0.35, rng.Int63()), rng.Int63(), 6)
		out, err := Central(g, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		exact := bruteMinCut(t, g)
		if out.Cut < exact {
			t.Fatalf("trial %d: cut %d below optimum %d", trial, out.Cut, exact)
		}
		if out.Cut > out.MinDeg {
			t.Fatalf("trial %d: cut %d above the degree candidate %d", trial, out.Cut, out.MinDeg)
		}
		if w := CutWeight(g, out.Witness); w != out.Cut {
			t.Fatalf("trial %d: witness recount %d, cut %d", trial, w, out.Cut)
		}
	}
}

// TestRunMatchesCentral is the end-to-end differential: the distributed
// packing must reproduce GreedyPack's trees exactly, so every Outcome field
// except the simulation-only NodeCuts agrees with the centralized driver.
func TestRunMatchesCentral(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid6x6", gen.WithUniqueWeights(gen.Grid(6, 6), 1)},
		{"torus5x5", gen.Torus(5, 5)},
		{"ring16", gen.Ring(16)},
		{"star12", gen.Star(12)},
		{"er24", gen.WithRandomWeights(gen.ErdosRenyi(24, 0.2, 5), 5, 9)},
		{"randtree20", gen.RandomTree(20, 9)},
		{"bridged", bridgeGraph(t, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const k = 3
			got, _, err := Run(tc.g, 0, 7, Config{Trees: k}, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Central(tc.g, 0, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range got.NodeCuts {
				if v != got.Cut {
					t.Fatalf("node learned cut %d, want %d", v, got.Cut)
				}
			}
			got.NodeCuts = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("distributed outcome %+v\ndiverges from centralized %+v", got, want)
			}
		})
	}
}

func TestRunShortcutStrategyPacking(t *testing.T) {
	// The packing MSTs can also run over constructed shortcuts (the Lemma 4
	// configuration); the packed trees are order-determined, so the outcome
	// must not depend on the communication strategy.
	g := gen.WithUniqueWeights(gen.Grid(5, 5), 2)
	canonical, _, err := Run(g, 0, 3, Config{Trees: 2}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shortcut, _, err := Run(g, 0, 3, Config{Trees: 2, Strategy: mst.StrategyShortcut}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	canonical.NodeCuts, shortcut.NodeCuts = nil, nil
	if !reflect.DeepEqual(canonical, shortcut) {
		t.Fatalf("strategy changed the outcome:\ncanonical %+v\nshortcut  %+v", canonical, shortcut)
	}
}

func TestRunFindsPlantedBridge(t *testing.T) {
	g := bridgeGraph(t, 1)
	out, _, err := Run(g, 0, 7, Config{Trees: 3}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cut != 1 {
		t.Fatalf("cut %d, want the planted bridge weight 1", out.Cut)
	}
	if out.WitnessSize != 9 && out.WitnessSize != 18-9 {
		t.Fatalf("witness side has %d vertices, want one of the two grids", out.WitnessSize)
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, err := Run(graph.MustFromEdges(1, nil), 0, 1, Config{}, congest.Options{}); err == nil {
		t.Error("single-node graph accepted")
	}
	g := gen.Path(4)
	g.SetWeight(1, -2)
	if _, _, err := Run(g, 0, 1, Config{}, congest.Options{}); err == nil {
		t.Error("negative weight accepted")
	}
	huge := gen.Path(4)
	huge.SetWeight(0, int64(1)<<61)
	if _, _, err := Run(huge, 0, 1, Config{Trees: 4}, congest.Options{}); err == nil {
		t.Error("packing-key overflow not detected")
	}
}

func TestTreesForSchedule(t *testing.T) {
	if k := TreesFor(1024, 0.25); k < 100 {
		t.Errorf("TreesFor(1024, 0.25) = %d, want the ln n/ε² scale", k)
	}
	if k := TreesFor(1, 0.5); k != 1 {
		t.Errorf("TreesFor(1, 0.5) = %d, want 1", k)
	}
}
