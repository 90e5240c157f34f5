package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

// instance bundles a shortcut-problem input for table-driven tests.
type instance struct {
	name string
	g    *graph.Graph
	t    *tree.Tree
	p    *partition.Partition
}

func mkInstance(name string, g *graph.Graph, p *partition.Partition) instance {
	return instance{name: name, g: g, t: tree.BFSTree(g, 0), p: p}
}

func testInstances(tb testing.TB) []instance {
	tb.Helper()
	var out []instance
	out = append(out,
		mkInstance("grid8x8/columns", gen.Grid(8, 8), partition.GridColumns(8, 8)),
		mkInstance("grid10x10/voronoi7", gen.Grid(10, 10), partition.Voronoi(gen.Grid(10, 10), 7, 1)),
		mkInstance("grid12x12/snake3", gen.Grid(12, 12), partition.GridSnake(12, 12, 3)),
		mkInstance("grid9x6/combs", gen.Grid(9, 6), partition.CombPair(9, 6)),
		mkInstance("torus8x8/voronoi5", gen.Torus(8, 8), partition.Voronoi(gen.Torus(8, 8), 5, 2)),
		mkInstance("ring30/voronoi4", gen.Ring(30), partition.Voronoi(gen.Ring(30), 4, 3)),
		mkInstance("tree50/voronoi6", gen.RandomTree(50, 4), partition.Voronoi(gen.RandomTree(50, 4), 6, 5)),
		mkInstance("outerplanar40/voronoi5", gen.OuterplanarTriangulation(40, 6), partition.Voronoi(gen.OuterplanarTriangulation(40, 6), 5, 7)),
		mkInstance("grid6x6/singletons", gen.Grid(6, 6), partition.Singletons(36)),
		mkInstance("grid7x7/whole", gen.Grid(7, 7), partition.Whole(49)),
	)
	lb := gen.LowerBound(5, 8)
	plb, err := partition.FromParts(lb.NumNodes(), gen.LowerBoundPaths(5, 8))
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, mkInstance("lowerbound5x8/paths", lb, plb))
	return out
}

func TestCanonicalWitnessInvariants(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			s, c := CanonicalWitness(in.t, in.p)
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := WitnessCongestion(in.t, in.p); got != c {
				t.Errorf("WitnessCongestion = %d, CanonicalWitness congestion = %d", got, c)
			}
			if got := s.ShortcutCongestion(); got != c {
				t.Errorf("materialized congestion = %d, want %d", got, c)
			}
			if b := s.BlockParameter(); b != 1 {
				t.Errorf("block parameter = %d, want 1 (full-ancestor shortcut)", b)
			}
			if c < 1 || c > in.p.NumParts() {
				t.Errorf("c* = %d outside [1, N=%d]", c, in.p.NumParts())
			}
		})
	}
}

func TestCanonicalWitnessExactSmall(t *testing.T) {
	// Path 0-1-2-3, parts {0},{1},{2},{3}, BFS tree from 0 is the path
	// itself. Edge (2,3) sees part {3} only; edge (0,1) sees parts 1,2,3.
	g := gen.Path(4)
	tr := tree.BFSTree(g, 0)
	p := partition.Singletons(4)
	s, c := CanonicalWitness(tr, p)
	if c != 3 {
		t.Errorf("c* = %d, want 3", c)
	}
	// H_0 = {} (part {0} is the root: no ancestor edges).
	if len(s.EdgesOf(0)) != 0 {
		t.Errorf("H_0 = %v, want empty", s.EdgesOf(0))
	}
	// H_3 = the full path: 3 edges.
	if len(s.EdgesOf(3)) != 3 {
		t.Errorf("|H_3| = %d, want 3", len(s.EdgesOf(3)))
	}
}

func TestLemma1DilationBound(t *testing.T) {
	// Lemma 1: dilation ≤ b(2D+1) where D = depth of T.
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			s, _ := CanonicalWitness(in.t, in.p)
			q := s.Measure()
			bound := q.BlockParameter * (2*in.t.Height() + 1)
			if q.Dilation > bound {
				t.Errorf("dilation %d > Lemma 1 bound %d (b=%d, D=%d)",
					q.Dilation, bound, q.BlockParameter, in.t.Height())
			}
		})
	}
}

func TestCoreSlowGuarantees(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			cStar := WitnessCongestion(in.t, in.p)
			res := CoreSlow(in.t, in.p, cStar, nil)
			if err := res.S.Validate(); err != nil {
				t.Fatal(err)
			}
			// Lemma 7 i): congestion at most 2c.
			if got := res.S.ShortcutCongestion(); got > 2*cStar {
				t.Errorf("congestion %d > 2c = %d", got, 2*cStar)
			}
			// Lemma 7 ii): at least N/2 parts with block count ≤ 3b, b = 1.
			good := 0
			for i := 0; i < in.p.NumParts(); i++ {
				if res.S.BlockCount(i) <= 3 {
					good++
				}
			}
			if 2*good < in.p.NumParts() {
				t.Errorf("good parts %d < N/2 (N=%d)", good, in.p.NumParts())
			}
		})
	}
}

func TestCoreFastGuarantees(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			cStar := WitnessCongestion(in.t, in.p)
			for seed := int64(0); seed < 3; seed++ {
				res := CoreFast(in.t, in.p, FastConfig{C: cStar, Seed: seed})
				if err := res.S.Validate(); err != nil {
					t.Fatal(err)
				}
				if got := res.S.ShortcutCongestion(); got > 8*cStar {
					t.Errorf("seed %d: congestion %d > 8c = %d", seed, got, 8*cStar)
				}
				good := 0
				for i := 0; i < in.p.NumParts(); i++ {
					if res.S.BlockCount(i) <= 3 {
						good++
					}
				}
				if 2*good < in.p.NumParts() {
					t.Errorf("seed %d: good parts %d < N/2 (N=%d)", seed, good, in.p.NumParts())
				}
			}
		})
	}
}

func TestBlockCountFastPathMatchesGeneral(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			cStar := WitnessCongestion(in.t, in.p)
			for _, res := range []*CoreResult{
				CoreSlow(in.t, in.p, cStar, nil),
				CoreFast(in.t, in.p, FastConfig{C: cStar, Seed: 7}),
			} {
				fast := blockCountsCoreOutput(res.S, nil)
				for i := 0; i < in.p.NumParts(); i++ {
					if want := res.S.BlockCount(i); fast[i] != want {
						t.Fatalf("part %d: fast count %d, general %d", i, fast[i], want)
					}
				}
			}
		})
	}
}

func TestFindShortcutTheorem3(t *testing.T) {
	for _, in := range testInstances(t) {
		for _, slow := range []bool{false, true} {
			name := in.name + "/fast"
			if slow {
				name = in.name + "/slow"
			}
			t.Run(name, func(t *testing.T) {
				cStar := WitnessCongestion(in.t, in.p)
				fr, err := FindShortcut(in.t, in.p, FindConfig{C: cStar, B: 1, Seed: 11, UseSlow: slow})
				if err != nil {
					t.Fatal(err)
				}
				if err := fr.S.Validate(); err != nil {
					t.Fatal(err)
				}
				// Block parameter ≤ 3b.
				if b := fr.S.BlockParameter(); b > 3 {
					t.Errorf("block parameter %d > 3b = 3", b)
				}
				// Congestion ≤ (per-iteration cap)·iterations.
				perIter := 8 * cStar
				if slow {
					perIter = 2 * cStar
				}
				if got := fr.S.ShortcutCongestion(); got > perIter*fr.Iterations {
					t.Errorf("congestion %d > %d·%d iterations", got, perIter, fr.Iterations)
				}
				// O(log N) iterations (deterministic halving for slow).
				if slow {
					budget := ceilLog2(in.p.NumParts()) + 1
					if fr.Iterations > budget {
						t.Errorf("iterations %d > log bound %d", fr.Iterations, budget)
					}
				}
				// Every part is covered: union of GoodPerIteration = N.
				total := 0
				for _, g := range fr.GoodPerIteration {
					total += g
				}
				if total != in.p.NumParts() {
					t.Errorf("good parts total %d, want N = %d", total, in.p.NumParts())
				}
			})
		}
	}
}

func TestFindShortcutIterationBudgetFailure(t *testing.T) {
	// With C, B forced to 1 on the lower-bound instance the run must report
	// ErrIterationBudget rather than looping forever: shortcutting a
	// horizontal path needs the highway, whose edges see many parts and go
	// unusable at c = 1, leaving all paths but one shattered into > 3
	// blocks — deterministically, every iteration. The second iteration
	// fixes nothing, so the zero-progress rule stops the run there, inside
	// its budget of 6.
	g := gen.LowerBound(8, 8)
	tr := tree.BFSTree(g, 0)
	p, err := partition.FromParts(g.NumNodes(), gen.LowerBoundPaths(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := FindShortcut(tr, p, FindConfig{C: 1, B: 1, Seed: 1, UseSlow: true, MaxIterations: 6})
	if !errors.Is(err, ErrIterationBudget) {
		t.Fatalf("err = %v, want ErrIterationBudget", err)
	}
	if fr.S != nil || !slices.Equal(fr.GoodPerIteration, []int{1, 0}) || fr.Iterations != 2 {
		t.Errorf("stalled run: S=%v iterations=%d good=%v, want no shortcut after 2 iterations [1 0]",
			fr.S != nil, fr.Iterations, fr.GoodPerIteration)
	}
	if !strings.Contains(err.Error(), "iteration 1 fixed none") {
		t.Errorf("err %q does not name the stalled iteration 1", err)
	}
}

func TestFindShortcutBudgetWithoutStall(t *testing.T) {
	// A run that fixes parts in every iteration is ended by the budget
	// alone: on the torus at (1, 1) CoreSlow needs four iterations, each
	// fixing parts ([7 3 4 2]), so a budget of three trips.
	g := gen.Torus(10, 10)
	tr := tree.BFSTree(g, 0)
	p := partition.Voronoi(g, 16, 3)
	full, err := FindShortcut(tr, p, FindConfig{C: 1, B: 1, UseSlow: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations < 2 {
		t.Fatalf("instance finishes in %d iteration(s); pick one that needs several", full.Iterations)
	}
	budget := full.Iterations - 1
	fr, err := FindShortcut(tr, p, FindConfig{C: 1, B: 1, UseSlow: true, MaxIterations: budget})
	if !errors.Is(err, ErrIterationBudget) {
		t.Fatalf("err = %v, want ErrIterationBudget", err)
	}
	if fr.S != nil || fr.Iterations != budget || !slices.Equal(fr.GoodPerIteration, full.GoodPerIteration[:budget]) {
		t.Errorf("budget run: S=%v iterations=%d good=%v, want no shortcut after %d iterations %v",
			fr.S != nil, fr.Iterations, fr.GoodPerIteration, budget, full.GoodPerIteration[:budget])
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("after %d iterations", budget)) {
		t.Errorf("err %q does not report the exhausted budget", err)
	}
}

func TestFindShortcutAuto(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			ar, err := FindShortcutAuto(in.t, in.p, 21, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			cStar := WitnessCongestion(in.t, in.p)
			if ar.EstC > 2*cStar {
				t.Errorf("doubling settled at %d > 2c* = %d", ar.EstC, 2*cStar)
			}
			if b := ar.S.BlockParameter(); b > 3*ar.EstB {
				t.Errorf("block parameter %d > 3·%d", b, ar.EstB)
			}
			if err := ar.S.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCongestionCountsInducedEdges(t *testing.T) {
	// A part's interior edge counts toward congestion even without being in
	// any H_i.
	g := gen.Path(3)
	tr := tree.BFSTree(g, 0)
	p := partition.Whole(3)
	s, err := NewShortcut(tr, p, make([][]int, g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Congestion(); got != 1 {
		t.Errorf("empty shortcut congestion = %d, want 1 (induced edges)", got)
	}
	if got := s.ShortcutCongestion(); got != 0 {
		t.Errorf("empty shortcut-congestion = %d, want 0", got)
	}
}

func TestBlocksStructure(t *testing.T) {
	// Path 0-1-2-3-4 rooted at 0; part = {1, 3}; H = {edge(3,4)... } built by
	// hand: assign edge (2,3) only. Blocks: component {2,3} (root 2,
	// contains part vertex 3) and isolated part vertex {1}.
	g := gen.Path(5)
	tr := tree.BFSTree(g, 0)
	p, err := partition.FromParts(5, [][]graph.NodeID{{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// part {1,3} is disconnected in G — fine for block mechanics testing;
	// Validate on the partition would fail but Shortcut.Blocks doesn't care.
	e, ok := g.FindEdge(2, 3)
	if !ok || !tr.IsTreeEdge(e) {
		t.Fatal("edge (2,3) should be a tree edge")
	}
	edgeParts := make([][]int, g.NumEdges())
	edgeParts[e] = []int{0}
	s, err := NewShortcut(tr, p, edgeParts)
	if err != nil {
		t.Fatal(err)
	}
	blocks := s.Blocks(0)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2: %+v", len(blocks), blocks)
	}
	// Sorted by root depth: {1} (depth 1) then {2,3} (depth 2).
	if blocks[0].Root != 1 || len(blocks[0].Nodes) != 1 {
		t.Errorf("block 0 = %+v, want isolated {1}", blocks[0])
	}
	if blocks[1].Root != 2 || len(blocks[1].Nodes) != 2 {
		t.Errorf("block 1 = %+v, want {2,3} rooted at 2", blocks[1])
	}
}

func TestMeasureOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := gen.ErdosRenyi(40, 0.08, rng.Int63())
		p := partition.Voronoi(g, 1+rng.Intn(8), rng.Int63())
		tr := tree.BFSTree(g, rng.Intn(40))
		cStar := WitnessCongestion(tr, p)
		fr, err := FindShortcut(tr, p, FindConfig{C: cStar, B: 1, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		q := fr.S.Measure()
		if q.BlockParameter > 3 {
			t.Errorf("trial %d: block parameter %d", trial, q.BlockParameter)
		}
		if q.Dilation > q.BlockParameter*(2*tr.Height()+1) {
			t.Errorf("trial %d: Lemma 1 violated: dil %d, b %d, D %d", trial, q.Dilation, q.BlockParameter, tr.Height())
		}
		if q.Congestion < 1 {
			t.Errorf("trial %d: congestion %d", trial, q.Congestion)
		}
	}
}
