package mst

import (
	"strings"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/scenario"
)

// TestMSTStarGraphs covers the hub-degree extreme on every strategy: one
// center adjacent to everything, so a single Boruvka phase must finish and
// the hub's mailbox carries the whole merge traffic.
func TestMSTStarGraphs(t *testing.T) {
	for _, n := range []int{3, 9, 33} {
		g := gen.WithUniqueWeights(gen.Star(n), int64(n))
		for _, strat := range []Strategy{StrategyShortcut, StrategyCanonical, StrategyNoShortcut} {
			checkDistributed(t, g, Config{Strategy: strat}, int64(n))
		}
	}
}

// TestMSTTieBreakByEdgeID pins the unique-MST order on all-equal weights:
// the distributed run must pick exactly Kruskal's lexicographically-first
// tree on every strategy, including the hub shape where every tie collides.
func TestMSTTieBreakByEdgeID(t *testing.T) {
	cases := []*graph.Graph{
		gen.Torus(4, 4), // every weight 1, every vertex degree 4
		gen.Star(12),    // every weight 1, hub ties
		gen.PathPower(12, 3),
	}
	for _, g := range cases {
		for _, strat := range []Strategy{StrategyShortcut, StrategyNoShortcut} {
			checkDistributed(t, g, Config{Strategy: strat}, 3)
		}
	}
}

// TestMSTPhaseBudgetExhausted covers the abort branch: one phase cannot
// finish a 6x6 grid, and the error must name the budget.
func TestMSTPhaseBudgetExhausted(t *testing.T) {
	g := gen.WithUniqueWeights(gen.Grid(6, 6), 1)
	_, _, err := Run(g, 0, 3, Config{Strategy: StrategyCanonical, MaxPhases: 1}, congest.Options{})
	if err == nil || !strings.Contains(err.Error(), "phase budget") {
		t.Fatalf("err = %v, want phase-budget exhaustion", err)
	}
}

// TestMSTExplicitWitnessParams covers the cfg.C/cfg.B branch of
// agreeShortcut: explicit feasible witness parameters skip the doubling
// search, and infeasible ones surface the FindShortcut failure.
func TestMSTExplicitWitnessParams(t *testing.T) {
	g := gen.WithUniqueWeights(gen.Grid(5, 5), 2)
	// The canonical witness congestion of any fragment partition is at most
	// n, so (C, B) = (n, 1) is always feasible.
	checkDistributed(t, g, Config{Strategy: StrategyShortcut, C: g.NumNodes(), B: 1}, 5)
	// On a 16x16 grid some mid-run fragments need congestion > 1, so the
	// explicit (1, 1) guess must fail loudly instead of doubling. (A 12x12
	// grid with these weights finishes at (1, 1).)
	big := gen.WithUniqueWeights(gen.Grid(16, 16), 2)
	_, _, err := Run(big, 0, 5, Config{Strategy: StrategyShortcut, C: 1, B: 1}, congest.Options{})
	if err == nil || !strings.Contains(err.Error(), "FindShortcut failed") {
		t.Fatalf("err = %v, want explicit-parameter FindShortcut failure", err)
	}
}

// TestMSTWeightOfOverride covers the Config.WeightOf hook: reversing the
// weight order must yield the maximum spanning tree (Kruskal on negated
// weights) while NodeResult.Weight still reports the true weight of the
// chosen tree.
func TestMSTWeightOfOverride(t *testing.T) {
	g := gen.WithUniqueWeights(gen.Grid(5, 5), 7)
	const flip = int64(1_000_000)
	results, _, err := Run(g, 0, 9, Config{
		Strategy: StrategyCanonical,
		WeightOf: func(e graph.EdgeID) int64 { return flip - g.Edge(e).W },
	}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Central reference: Kruskal on the flipped weights.
	flipped := g.Clone()
	for e := 0; e < flipped.NumEdges(); e++ {
		flipped.SetWeight(e, flip-flipped.Edge(e).W)
	}
	_, wantE, err := Kruskal(flipped)
	if err != nil {
		t.Fatal(err)
	}
	var wantW int64
	for e, in := range wantE {
		if in {
			wantW += g.Edge(e).W
		}
	}
	for v, r := range results {
		if r.Weight != wantW {
			t.Fatalf("node %d: weight %d, want true weight %d of the flipped-order tree", v, r.Weight, wantW)
		}
		_, eids := g.Arcs(v)
		for _, e := range eids {
			eid := graph.EdgeID(e)
			if r.InMST[eid] != wantE[eid] {
				t.Fatalf("node %d edge %d: membership %v, want %v", v, eid, r.InMST[eid], wantE[eid])
			}
		}
	}
}

// TestBoruvkaCentralRejectsDisconnected covers the central verifier's
// disconnection branch (Kruskal's is covered in mst_test.go).
func TestBoruvkaCentralRejectsDisconnected(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, _, err := BoruvkaCentral(g); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// TestMSTDistVsBoruvkaCentralAllFamilies is the cross-verifier differential
// over the whole scenario registry: on every family, the distributed MST
// (canonical strategy at small sizes) must agree with BoruvkaCentral — the
// second, star-merge-free centralized implementation — edge for edge. It
// also pins that all nodes converge to one fragment.
func TestMSTDistVsBoruvkaCentralAllFamilies(t *testing.T) {
	for _, s := range scenario.All() {
		t.Run(s.Name, func(t *testing.T) {
			g := gen.WithUniqueWeights(s.Build(32, 2), 5)
			wantW, wantE, err := BoruvkaCentral(g)
			if err != nil {
				t.Fatal(err)
			}
			results, _, err := Run(g, 0, 11, Config{Strategy: StrategyCanonical}, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			frag := results[0].Fragment
			for v, r := range results {
				if r.Weight != wantW {
					t.Fatalf("node %d: weight %d, BoruvkaCentral %d", v, r.Weight, wantW)
				}
				if r.Fragment != frag {
					t.Fatalf("node %d: fragment %d, want %d", v, r.Fragment, frag)
				}
				_, eids := g.Arcs(v)
				for _, e := range eids {
					eid := graph.EdgeID(e)
					if r.InMST[eid] != wantE[eid] {
						t.Fatalf("node %d edge %d: membership %v, central %v", v, eid, r.InMST[eid], wantE[eid])
					}
				}
			}
		})
	}
}
