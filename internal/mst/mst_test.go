package mst

import (
	"math/rand"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

func TestKruskalMatchesBoruvkaCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := gen.WithRandomWeights(gen.ErdosRenyi(40, 0.1, rng.Int63()), rng.Int63(), 50)
		wk, ek, err := Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		wb, eb, err := BoruvkaCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		if wk != wb {
			t.Fatalf("trial %d: Kruskal %d != Boruvka %d", trial, wk, wb)
		}
		for e := range ek {
			if ek[e] != eb[e] {
				t.Fatalf("trial %d: edge %d membership differs", trial, e)
			}
		}
	}
}

func TestKruskalRejectsDisconnected(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, _, err := Kruskal(g); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// checkDistributed runs the distributed MST and compares it edge-for-edge
// and weight-for-weight against Kruskal.
func checkDistributed(t *testing.T, g *graph.Graph, cfg Config, seed int64) congest.Stats {
	t.Helper()
	wantW, wantE, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := Run(g, 0, seed, cfg, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	finalFrag := results[0].Fragment
	for v, r := range results {
		if r.Weight != wantW {
			t.Fatalf("node %d: weight %d, want %d", v, r.Weight, wantW)
		}
		if r.Fragment != finalFrag {
			t.Fatalf("node %d: fragment %d, want %d", v, r.Fragment, finalFrag)
		}
		_, eids := g.Arcs(v)
		for _, e := range eids {
			eid := graph.EdgeID(e)
			if r.InMST[eid] != wantE[eid] {
				t.Fatalf("node %d edge %d: inMST %v, want %v", v, eid, r.InMST[eid], wantE[eid])
			}
		}
	}
	return stats
}

func TestMSTShortcutStrategy(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid6x6", gen.WithUniqueWeights(gen.Grid(6, 6), 1)},
		{"torus5x5", gen.WithUniqueWeights(gen.Torus(5, 5), 2)},
		{"ring16", gen.WithUniqueWeights(gen.Ring(16), 3)},
		{"tree30", gen.WithUniqueWeights(gen.RandomTree(30, 4), 4)},
		{"er30", gen.WithRandomWeights(gen.ErdosRenyi(30, 0.12, 5), 5, 40)},
		{"outerplanar24", gen.WithUniqueWeights(gen.OuterplanarTriangulation(24, 6), 6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkDistributed(t, tc.g, Config{Strategy: StrategyShortcut}, 11)
		})
	}
}

func TestMSTAllStrategiesAgree(t *testing.T) {
	g := gen.WithUniqueWeights(gen.Grid(6, 6), 9)
	for _, strat := range []Strategy{StrategyShortcut, StrategyCanonical, StrategyNoShortcut} {
		checkDistributed(t, g, Config{Strategy: strat}, 13)
	}
}

func TestMSTWithDuplicateWeights(t *testing.T) {
	// All-equal weights: the (weight, edge ID) tie-break must still produce
	// the unique Kruskal tree.
	g := gen.Grid(5, 5) // every weight 1
	checkDistributed(t, g, Config{Strategy: StrategyShortcut}, 17)
}

func TestMSTSingleNodeAndEdge(t *testing.T) {
	g1 := graph.MustFromEdges(1, nil)
	results, _, err := Run(g1, 0, 1, Config{Strategy: StrategyShortcut}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Weight != 0 {
		t.Errorf("single node weight %d", results[0].Weight)
	}
	g2 := gen.Path(2)
	results, _, err = Run(g2, 0, 1, Config{Strategy: StrategyNoShortcut}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Weight != 1 || !results[0].InMST[0] {
		t.Errorf("two-node MST wrong: %+v", results[0])
	}
}

func TestMSTSeedsVaryMergePattern(t *testing.T) {
	// Different seeds flip different head/tail coins but the MST is unique.
	g := gen.WithUniqueWeights(gen.Torus(4, 4), 3)
	var phases []int
	for _, seed := range []int64{1, 2, 3} {
		results, _, err := Run(g, 0, seed, Config{Strategy: StrategyShortcut}, congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, results[0].Phases)
	}
	wantW, _, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	_ = wantW
	if phases[0] == 0 {
		t.Error("no phases executed")
	}
}

func TestMSTLowerBoundWorkload(t *testing.T) {
	// The E7 workload: lower-bound graph with cheap row edges and expensive
	// highway edges, forcing fragments to become long paths. All strategies
	// must still agree with Kruskal.
	g := gen.LowerBound(3, 6)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(e)
		base := g.NumNodes() * g.NumNodes()
		if ed.U < 3*6 && ed.V < 3*6 { // row edge
			g.SetWeight(e, int64(e+1))
		} else {
			g.SetWeight(e, int64(base+e))
		}
	}
	checkDistributed(t, g, Config{Strategy: StrategyShortcut}, 7)
	checkDistributed(t, g, Config{Strategy: StrategyNoShortcut}, 7)
}
