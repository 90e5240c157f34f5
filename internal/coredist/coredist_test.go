package coredist

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/core"
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
		{"grid8x6/combs", gen.Grid(8, 6), partition.CombPair(8, 6)},
		{"torus7x7/voronoi5", gen.Torus(7, 7), partition.Voronoi(gen.Torus(7, 7), 5, 2)},
		{"ring24/voronoi4", gen.Ring(24), partition.Voronoi(gen.Ring(24), 4, 3)},
		{"tree40/voronoi6", gen.RandomTree(40, 4), partition.Voronoi(gen.RandomTree(40, 4), 6, 5)},
		{"grid5x5/singletons", gen.Grid(5, 5), partition.Singletons(25)},
		{"grid6x6/whole", gen.Grid(6, 6), partition.Whole(36)},
		{"path15/whole", gen.Path(15), partition.Whole(15)},
	}
	lb := gen.LowerBound(4, 6)
	plb, err := partition.FromParts(lb.NumNodes(), gen.LowerBoundPaths(4, 6))
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, instance{"lowerbound4x6/paths", lb, plb})
	return out
}

// runCoreSlow executes BFS + CoreSlowPhase on every node and lifts the
// result.
func runCoreSlow(tb testing.TB, g *graph.Graph, p *partition.Partition, c int) (*core.Shortcut, []*NodeShortcut, congest.Stats) {
	tb.Helper()
	states := make([]*NodeShortcut, g.NumNodes())
	stats, err := congest.Run(g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, 0, 42)
		if err != nil {
			return err
		}
		ns, err := CoreSlowPhase(ctx, info, p, c, false)
		if err != nil {
			return err
		}
		states[ctx.ID()] = ns
		return nil
	}, congest.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s, _, err := ToShortcut(g, p, states)
	if err != nil {
		tb.Fatal(err)
	}
	return s, states, stats
}

func runCoreFast(tb testing.TB, g *graph.Graph, p *partition.Partition, c int, seed int64) (*core.Shortcut, congest.Stats) {
	tb.Helper()
	states := make([]*NodeShortcut, g.NumNodes())
	stats, err := congest.Run(g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, 0, seed)
		if err != nil {
			return err
		}
		ns, err := CoreFastPhase(ctx, info, p, FastParams{C: c, ActSeed: info.Seed})
		if err != nil {
			return err
		}
		states[ctx.ID()] = ns
		return nil
	}, congest.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s, _, err := ToShortcut(g, p, states)
	if err != nil {
		tb.Fatal(err)
	}
	return s, stats
}

func shortcutsEqual(tb testing.TB, name string, got, want *core.Shortcut, g *graph.Graph) {
	tb.Helper()
	for e := 0; e < g.NumEdges(); e++ {
		gp, wp := got.PartsOn(e), want.PartsOn(e)
		if len(gp) != len(wp) {
			tb.Fatalf("%s: edge %d: got %v, want %v", name, e, gp, wp)
		}
		for k := range gp {
			if gp[k] != wp[k] {
				tb.Fatalf("%s: edge %d: got %v, want %v", name, e, gp, wp)
			}
		}
	}
}

func TestCoreSlowMatchesCentralized(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			// The distributed run fixes the tree; replay centrally on it.
			states := make([]*NodeShortcut, in.g.NumNodes())
			var cStar int
			_, err := congest.Run(in.g, func(ctx *congest.Ctx) error {
				info, err := bfsproto.Phase(ctx, 0, 42)
				if err != nil {
					return err
				}
				states[ctx.ID()] = newNodeShortcut(info) // placeholder for tree extraction
				return nil
			}, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := ToShortcut(in.g, in.p, states)
			if err != nil {
				t.Fatal(err)
			}
			cStar = core.WitnessCongestion(tr, in.p)

			got, _, _ := runCoreSlow(t, in.g, in.p, cStar)
			want := core.CoreSlow(tr, in.p, cStar, nil)
			shortcutsEqual(t, in.name, got, want.S, in.g)
		})
	}
}

func TestCoreFastMatchesCentralized(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			states := make([]*NodeShortcut, in.g.NumNodes())
			_, err := congest.Run(in.g, func(ctx *congest.Ctx) error {
				info, err := bfsproto.Phase(ctx, 0, 42)
				if err != nil {
					return err
				}
				states[ctx.ID()] = newNodeShortcut(info)
				return nil
			}, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := ToShortcut(in.g, in.p, states)
			if err != nil {
				t.Fatal(err)
			}
			cStar := core.WitnessCongestion(tr, in.p)

			for _, seed := range []int64{1, 99} {
				got, _ := runCoreFast(t, in.g, in.p, cStar, seed)
				want := core.CoreFast(tr, in.p, core.FastConfig{C: cStar, Seed: seed})
				shortcutsEqual(t, in.name, got, want.S, in.g)
			}
		})
	}
}

func TestCoreSlowGuaranteesDistributed(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			s0, states, _ := runCoreSlow(t, in.g, in.p, 1) // probe run to get the tree
			_ = s0
			_, tr, err := ToShortcut(in.g, in.p, states)
			if err != nil {
				t.Fatal(err)
			}
			cStar := core.WitnessCongestion(tr, in.p)
			s, _, _ := runCoreSlow(t, in.g, in.p, cStar)
			if got := s.ShortcutCongestion(); got > 2*cStar {
				t.Errorf("congestion %d > 2c = %d", got, 2*cStar)
			}
			good := 0
			for i := 0; i < in.p.NumParts(); i++ {
				if s.BlockCount(i) <= 3 {
					good++
				}
			}
			if 2*good < in.p.NumParts() {
				t.Errorf("good parts %d < N/2", good)
			}
		})
	}
}

func TestCoreSlowRoundComplexity(t *testing.T) {
	// O(D·c): rounds ≤ BFS + (depth+1)(2c+2) + 1.
	g := gen.Grid(10, 10)
	p := partition.GridColumns(10, 10)
	states := make([]*NodeShortcut, g.NumNodes())
	_, err := congest.Run(g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, 0, 42)
		if err != nil {
			return err
		}
		states[ctx.ID()] = newNodeShortcut(info)
		return nil
	}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := ToShortcut(g, p, states)
	if err != nil {
		t.Fatal(err)
	}
	c := core.WitnessCongestion(tr, p)
	_, _, stats := runCoreSlow(t, g, p, c)
	depth := tr.Height()
	bound := (3*depth + 5) + (depth+1)*(2*c+2) + 2
	if stats.Rounds > bound {
		t.Errorf("rounds %d > bound %d (D=%d, c=%d)", stats.Rounds, bound, depth, c)
	}
}

func TestCoreFastBitBudget(t *testing.T) {
	// Every CoreFast message stays within O(log n) bits.
	g := gen.Grid(9, 9)
	p := partition.Voronoi(g, 6, 3)
	states := make([]*NodeShortcut, g.NumNodes())
	limit := 3*congest.BitsForID(g.NumNodes()) + 64
	_, err := congest.Run(g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, 0, 5)
		if err != nil {
			return err
		}
		ns, err := CoreFastPhase(ctx, info, p, FastParams{C: 4, ActSeed: 5})
		if err != nil {
			return err
		}
		states[ctx.ID()] = ns
		return nil
	}, congest.Options{MaxMessageBits: limit})
	if err != nil {
		t.Fatal(err)
	}
}

func TestToShortcutDetectsCorruption(t *testing.T) {
	g := gen.Grid(4, 4)
	p := partition.GridColumns(4, 4)
	_, states, _ := runCoreSlow(t, g, p, 4)
	// Corrupt one child's view of its parent edge by dropping an entry.
	corrupted := false
	for v, ns := range states {
		if len(ns.ParentParts) > 0 {
			states[v].ParentParts = ns.ParentParts[1:]
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no node with a non-empty parent part list")
	}
	if _, _, err := ToShortcut(g, p, states); err == nil {
		t.Error("corrupted states passed consistency check")
	}

	// Both endpoints agreeing on a part that does not exist is caught by
	// core.NewShortcut's validation.
	_, states, _ = runCoreSlow(t, g, p, 4)
	for v, ns := range states {
		if par := ns.Info.Parent; par != -1 && len(ns.ParentParts) > 0 {
			bogus := []int{p.NumParts()}
			states[v].ParentParts = bogus
			states[par].ChildParts[states[par].ChildIndex(v)] = bogus
			break
		}
	}
	if _, _, err := ToShortcut(g, p, states); err == nil || !strings.Contains(err.Error(), "invalid part") {
		t.Errorf("agreed out-of-range part: err = %v, want an invalid-part error", err)
	}
}

// TestLiftedShortcutConcurrentReaders pins that a shortcut lifted from
// distributed state is safe to share: readers start on a freshly lifted
// shortcut, call every accessor concurrently (run under -race), and must
// see what a single-threaded reader sees on a second lift of the same states.
func TestLiftedShortcutConcurrentReaders(t *testing.T) {
	const readers = 4
	g := gen.Grid(10, 10)
	p := partition.Voronoi(g, 7, 1)
	_, states, _ := runCoreSlow(t, g, p, core.WitnessCongestion(tree.BFSTree(g, 0), p))
	view := func(s *core.Shortcut) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%+v sc=%d\n", s.Measure(), s.ShortcutCongestion())
		for i := 0; i < p.NumParts(); i++ {
			fmt.Fprintf(&b, "%d: %v %d %d %v\n", i, s.Blocks(i), s.BlockCount(i), s.PartDiameter(i), s.EdgesOf(i))
		}
		for e := 0; e < g.NumEdges(); e++ {
			fmt.Fprintf(&b, "%v", s.PartsOn(e))
		}
		return b.String()
	}
	lift := func() *core.Shortcut {
		s, _, err := ToShortcut(g, p, states)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := view(lift())
	shared := lift()
	var wg sync.WaitGroup
	got := make([]string, readers)
	for r := range got {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r] = view(shared)
		}(r)
	}
	wg.Wait()
	for r, v := range got {
		if v != want {
			t.Errorf("reader %d saw a different shortcut than a single-threaded read", r)
		}
	}
}

func TestCanonicalPhaseMatchesWitness(t *testing.T) {
	for _, in := range testInstances(t)[:6] {
		t.Run(in.name, func(t *testing.T) {
			states := make([]*NodeShortcut, in.g.NumNodes())
			_, err := congest.Run(in.g, func(ctx *congest.Ctx) error {
				info, err := bfsproto.Phase(ctx, 0, 42)
				if err != nil {
					return err
				}
				ns, err := CanonicalPhase(ctx, info, in.p)
				states[ctx.ID()] = ns
				return err
			}, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s, tr, err := ToShortcut(in.g, in.p, states)
			if err != nil {
				t.Fatal(err)
			}
			want, cStar := core.CanonicalWitness(tr, in.p)
			shortcutsEqual(t, in.name, s, want, in.g)
			if got := s.ShortcutCongestion(); got != cStar {
				t.Errorf("congestion %d, want c* = %d", got, cStar)
			}
			if b := s.BlockParameter(); b != 1 {
				t.Errorf("block parameter %d, want 1", b)
			}
		})
	}
}
