package findshort

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/core"
	"lcshortcut/internal/coredist"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

type instance struct {
	name string
	g    *graph.Graph
	p    *partition.Partition
}

func testInstances(tb testing.TB) []instance {
	tb.Helper()
	out := []instance{
		{"grid8x8/columns", gen.Grid(8, 8), partition.GridColumns(8, 8)},
		{"grid10x10/voronoi7", gen.Grid(10, 10), partition.Voronoi(gen.Grid(10, 10), 7, 1)},
		{"grid12x12/snake3", gen.Grid(12, 12), partition.GridSnake(12, 12, 3)},
		{"torus7x7/voronoi5", gen.Torus(7, 7), partition.Voronoi(gen.Torus(7, 7), 5, 2)},
		{"tree40/voronoi6", gen.RandomTree(40, 4), partition.Voronoi(gen.RandomTree(40, 4), 6, 5)},
		{"grid6x6/whole", gen.Grid(6, 6), partition.Whole(36)},
	}
	lb := gen.LowerBound(4, 6)
	plb, err := partition.FromParts(lb.NumNodes(), gen.LowerBoundPaths(4, 6))
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, instance{"lowerbound4x6/paths", lb, plb})
	return out
}

// protocolTree returns the BFS tree the protocol will deterministically build
// from root 0, so centralized references can replay on the same tree.
func protocolTree(tb testing.TB, g *graph.Graph) *tree.Tree {
	tb.Helper()
	infos, _, err := bfsproto.Run(g, 0, 7, congest.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	parents := make([]graph.NodeID, g.NumNodes())
	for v, info := range infos {
		parents[v] = info.Parent
	}
	tr, err := tree.FromParents(g, 0, parents)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// lift converts per-node results into a core.Shortcut.
func lift(tb testing.TB, g *graph.Graph, p *partition.Partition, results []*Result) *core.Shortcut {
	tb.Helper()
	states := make([]*coredist.NodeShortcut, len(results))
	for v, r := range results {
		states[v] = r.NS
	}
	s, _, err := coredist.ToShortcut(g, p, states)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func sameShortcut(tb testing.TB, got, want *core.Shortcut, g *graph.Graph) {
	tb.Helper()
	for e := 0; e < g.NumEdges(); e++ {
		gp, wp := got.PartsOn(e), want.PartsOn(e)
		if len(gp) != len(wp) {
			tb.Fatalf("edge %d: got %v, want %v", e, gp, wp)
		}
		for k := range gp {
			if gp[k] != wp[k] {
				tb.Fatalf("edge %d: got %v, want %v", e, gp, wp)
			}
		}
	}
}

func TestFindShortcutMatchesCentralized(t *testing.T) {
	for _, in := range testInstances(t) {
		for _, slow := range []bool{true, false} {
			name := in.name + "/fast"
			if slow {
				name = in.name + "/slow"
			}
			t.Run(name, func(t *testing.T) {
				tr := protocolTree(t, in.g)
				cStar := core.WitnessCongestion(tr, in.p)
				cfg := Config{C: cStar, B: 1, Seed: 7, UseSlow: slow}
				results, _, ok, err := Run(in.g, in.p, 0, cfg, congest.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatal("FindShortcut reported failure with the witness parameters")
				}
				got := lift(t, in.g, in.p, results)
				want, err := core.FindShortcut(tr, in.p, core.FindConfig{C: cStar, B: 1, Seed: 7, UseSlow: slow})
				if err != nil {
					t.Fatal(err)
				}
				sameShortcut(t, got, want.S, in.g)
				// Iteration counts must agree too.
				if results[0].Iterations != want.Iterations {
					t.Errorf("iterations %d, central %d", results[0].Iterations, want.Iterations)
				}
			})
		}
	}
}

func TestFindShortcutQuality(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			tr := protocolTree(t, in.g)
			cStar := core.WitnessCongestion(tr, in.p)
			results, _, ok, err := Run(in.g, in.p, 0, Config{C: cStar, B: 1, Seed: 3}, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("failed with witness parameters")
			}
			s := lift(t, in.g, in.p, results)
			if b := s.BlockParameter(); b > 3 {
				t.Errorf("block parameter %d > 3b = 3", b)
			}
			iters := results[0].Iterations
			if got := s.ShortcutCongestion(); got > 8*cStar*iters {
				t.Errorf("congestion %d > 8c·%d iterations", got, iters)
			}
			// Every covered node fixed, within the iteration horizon.
			for v, r := range results {
				if in.p.Part(v) != partition.None && (!r.Fixed || r.FixedAt < 0 || r.FixedAt >= iters) {
					t.Fatalf("node %d: Fixed=%v FixedAt=%d iters=%d", v, r.Fixed, r.FixedAt, iters)
				}
			}
		})
	}
}

func TestFindShortcutFailureSignal(t *testing.T) {
	// (C, B) = (1, 1) on the snake partition cannot finish — with c = 1 the
	// cross-band tree edges go unusable and the snakes shatter into more
	// than 3 blocks, deterministically, every iteration. Every node must
	// report ok=false (and no error), matching the centralized failure.
	g := gen.Grid(12, 12)
	p := partition.GridSnake(12, 12, 3)
	tr := protocolTree(t, g)
	if _, cerr := core.FindShortcut(tr, p, core.FindConfig{C: 1, B: 1, Seed: 1, UseSlow: true, MaxIterations: 5}); cerr == nil {
		t.Fatal("instance unexpectedly feasible centrally; pick a harder one")
	}
	_, _, ok, err := Run(g, p, 0, Config{C: 1, B: 1, Seed: 1, UseSlow: true, MaxIterations: 5}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("expected failure signal")
	}
}

// autoRun runs BFS + AutoPhase with seed 21 and returns every node's result.
func autoRun(tb testing.TB, in instance, useSlow bool) []*AutoResult {
	tb.Helper()
	results := make([]*AutoResult, in.g.NumNodes())
	_, err := congest.Run(in.g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, 0, 21)
		if err != nil {
			return err
		}
		ar, err := AutoPhase(ctx, info, in.p, in.p.NumParts(), 21, useSlow)
		if err != nil {
			return err
		}
		results[ctx.ID()] = ar
		return nil
	}, congest.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return results
}

// TestFindShortcutStall pins the zero-progress rule on both drivers: a run
// whose iteration fixes no part stops right there, well inside its budget,
// and the doubling drivers then move on to the next estimate. At (1, 1)
// under CoreSlow the snakes shatter in the first iteration; the Voronoi
// cells make progress for two iterations and then stall.
func TestFindShortcutStall(t *testing.T) {
	g := gen.Grid(12, 12)
	tr := protocolTree(t, g)
	cases := []struct {
		in       instance
		budget   int
		wantGood []int
	}{
		{instance{"grid12x12/snake3", g, partition.GridSnake(12, 12, 3)}, 5, []int{0}},
		{instance{"grid12x12/voronoi9", g, partition.Voronoi(g, 9, 2)}, 10, []int{4, 2, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.in.name, func(t *testing.T) {
			p := tc.in.p
			iters := len(tc.wantGood)
			fr, err := core.FindShortcut(tr, p, core.FindConfig{C: 1, B: 1, Seed: 1, UseSlow: true, MaxIterations: tc.budget})
			if !errors.Is(err, core.ErrIterationBudget) {
				t.Fatalf("central err = %v, want ErrIterationBudget", err)
			}
			if want := fmt.Sprintf("iteration %d fixed none", iters-1); !strings.Contains(err.Error(), want) {
				t.Errorf("central err %q does not name the stalled iteration (%q)", err, want)
			}
			if fr.S != nil || fr.Iterations != iters || !slices.Equal(fr.GoodPerIteration, tc.wantGood) {
				t.Fatalf("central: S=%v iterations=%d good=%v, want nil, %d, %v",
					fr.S != nil, fr.Iterations, fr.GoodPerIteration, iters, tc.wantGood)
			}

			results, _, ok, err := Run(g, p, 0, Config{C: 1, B: 1, Seed: 1, UseSlow: true, MaxIterations: tc.budget}, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatal("distributed run reported success")
			}
			// Rebuild the per-iteration good counts from the parts' FixedAt.
			good := make([]int, iters)
			counted := make([]bool, p.NumParts())
			for v, r := range results {
				if r.Iterations != iters {
					t.Fatalf("node %d: Iterations = %d, want %d", v, r.Iterations, iters)
				}
				if i := p.Part(v); r.FixedAt >= 0 && !counted[i] {
					counted[i] = true
					good[r.FixedAt]++
				}
			}
			if !slices.Equal(good, tc.wantGood) {
				t.Errorf("distributed good per iteration %v, want %v", good, tc.wantGood)
			}

			// Both doubling drivers fail the stalled estimate-1 probe and
			// double: under CoreSlow that probe is the run above, with a
			// budget of ceil(log2 N)+6 that the stall never reaches.
			want, err := core.FindShortcutAuto(tr, p, 21, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want.Probes < 1 || want.EstC < 2 {
				t.Errorf("central doubling settled at est=%d after %d failed probes, want a failed estimate-1 probe", want.EstC, want.Probes)
			}
			auto := autoRun(t, tc.in, true)
			if auto[0].Est != want.EstC || auto[0].Probes != want.Probes || auto[0].Iterations != want.Iterations {
				t.Errorf("distributed doubling est=%d probes=%d iterations=%d, central est=%d probes=%d iterations=%d",
					auto[0].Est, auto[0].Probes, auto[0].Iterations, want.EstC, want.Probes, want.Iterations)
			}
		})
	}
}

// TestAutoPhaseMatchesCentralized holds the two doubling drivers equal under
// both core subroutines: the settled estimate, the failed probes, the
// settling probe's iterations and the lifted shortcut. The instances after
// the first four are E8's first two and a 16-cell Voronoi grid; failsProbe
// names the runs whose estimate-1 probe fails (on grid16x16/voronoi16,
// CoreFast fixes parts in four iterations before it stalls).
func TestAutoPhaseMatchesCentralized(t *testing.T) {
	g16 := gen.Grid(16, 16)
	ins := append(testInstances(t)[:4],
		instance{"grid12x12/voronoi9", gen.Grid(12, 12), partition.Voronoi(gen.Grid(12, 12), 9, 1)},
		instance{"grid16x16/snake4", g16, partition.GridSnake(16, 16, 4)},
		instance{"grid16x16/voronoi16", g16, partition.Voronoi(g16, 16, 3)},
	)
	failsProbe := map[string]bool{
		"grid12x12/voronoi9/slow":  true,
		"grid16x16/snake4/slow":    true,
		"grid16x16/snake4/fast":    true,
		"grid16x16/voronoi16/slow": true,
		"grid16x16/voronoi16/fast": true,
	}
	for _, in := range ins {
		t.Run(in.name, func(t *testing.T) {
			tr := protocolTree(t, in.g)
			for _, sub := range []string{"slow", "fast"} {
				slow := sub == "slow"
				t.Run(sub, func(t *testing.T) {
					results := autoRun(t, in, slow)
					want, err := core.FindShortcutAuto(tr, in.p, 21, slow, 1)
					if err != nil {
						t.Fatal(err)
					}
					if failsProbe[in.name+"/"+sub] && want.Probes == 0 {
						t.Errorf("central doubling failed no probe; the run no longer covers a failed probe")
					}
					if r := results[0]; r.Est != want.EstC || r.Probes != want.Probes || r.Iterations != want.Iterations {
						t.Errorf("doubling settled at est=%d probes=%d iterations=%d, central est=%d probes=%d iterations=%d",
							r.Est, r.Probes, r.Iterations, want.EstC, want.Probes, want.Iterations)
					}
					sameShortcut(t, lift(t, in.g, in.p, autoResults(results)), want.S, in.g)
				})
			}
		})
	}
}

// autoResults strips the doubling estimate off per-node AutoResults.
func autoResults(ars []*AutoResult) []*Result {
	out := make([]*Result, len(ars))
	for v, ar := range ars {
		out[v] = ar.Result
	}
	return out
}

func TestFindShortcutRoundComplexity(t *testing.T) {
	// Theorem 3: O(D log n log N + bD log N + bc log N) rounds. We check the
	// concrete accounting stays within a generous constant multiple.
	g := gen.Grid(12, 12)
	p := partition.Voronoi(g, 9, 2)
	tr := protocolTree(t, g)
	cStar := core.WitnessCongestion(tr, p)
	results, stats, ok, err := Run(g, p, 0, Config{C: cStar, B: 1, Seed: 5}, congest.Options{})
	if err != nil || !ok {
		t.Fatalf("run failed: ok=%v err=%v", ok, err)
	}
	d := tr.Height()
	iters := results[0].Iterations
	// Per iteration: CoreFast O(D log n + c) + verification O(b(D+8c·logN)).
	// Congestion inside verification is bounded by the tentative shortcut's
	// 8c, so a generous per-iteration budget:
	perIter := 40*(d+2)*congest.BitsForID(g.NumNodes()) + 40*(d+8*cStar+10) + 30*3*(d+8*cStar+10)
	if stats.Rounds > iters*perIter+10*(d+1) {
		t.Errorf("rounds %d exceed budget %d (D=%d c=%d iters=%d)", stats.Rounds, iters*perIter+10*(d+1), d, cStar, iters)
	}
}
