package partops

import (
	"slices"
	"sync"
	"testing"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/core"
	"lcshortcut/internal/coredist"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
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
		{"grid5x5/singletons", gen.Grid(5, 5), partition.Singletons(25)},
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

// pipeline runs BFS + CoreSlow(c*) + membership + annotation on every node
// of a run cut into shards shards, then the supplied continuation, and
// returns the per-node memberships plus the centralized view of the
// computed shortcut for cross-checking.
func pipeline(tb testing.TB, in instance, shards int, cont func(ctx *congest.Ctx, m *Membership) error) ([]*Membership, *core.Shortcut, congest.Stats) {
	tb.Helper()
	return pipelineAt(tb, in, shards, cstarOf(tb, in), cont)
}

// pipelineAt is pipeline with CoreSlow run at congestion parameter c.
func pipelineAt(tb testing.TB, in instance, shards, c int, cont func(ctx *congest.Ctx, m *Membership) error) ([]*Membership, *core.Shortcut, congest.Stats) {
	tb.Helper()
	n := in.g.NumNodes()
	states := make([]*coredist.NodeShortcut, n)
	members := make([]*Membership, n)
	stats, err := congest.Run(in.g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, 0, 7)
		if err != nil {
			return err
		}
		ns, err := coredist.CoreSlowPhase(ctx, info, in.p, c, false)
		if err != nil {
			return err
		}
		states[ctx.ID()] = ns
		m, err := BuildMembership(ctx, ns, in.p)
		if err != nil {
			return err
		}
		members[ctx.ID()] = m
		if cont != nil {
			return cont(ctx, m)
		}
		return nil
	}, congest.Options{Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	s, _, err := coredist.ToShortcut(in.g, in.p, states)
	if err != nil {
		tb.Fatal(err)
	}
	return members, s, stats
}

// cstarOf caches witness congestion per instance (computed on the
// protocol-built tree). Every node goroutine of a simulation calls it, so the
// cache is mutex-guarded; the lock is held across the computation to do it
// once per instance.
var (
	cstarMu    sync.Mutex
	cstarCache = map[string]int{}
)

func cstarOf(tb testing.TB, in instance) int {
	cstarMu.Lock()
	defer cstarMu.Unlock()
	if c, ok := cstarCache[in.name]; ok {
		return c
	}
	infos, _, err := bfsproto.Run(in.g, 0, 7, congest.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	states := make([]*coredist.NodeShortcut, in.g.NumNodes())
	for v, info := range infos {
		ns := &coredist.NodeShortcut{Info: info}
		states[v] = ns
	}
	_, tr, err := coredist.ToShortcut(in.g, in.p, states)
	if err != nil {
		tb.Fatal(err)
	}
	c := core.WitnessCongestion(tr, in.p)
	cstarCache[in.name] = c
	return c
}

func TestAnnotateMatchesCentralBlocks(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			members, s, _ := pipeline(t, in, 1, nil)
			for i := 0; i < in.p.NumParts(); i++ {
				for _, blk := range s.Blocks(i) {
					for _, v := range blk.Nodes {
						m := members[v]
						k := m.Index(i)
						if k < 0 {
							t.Errorf("part %d node %d: block member without a membership entry", i, v)
							continue
						}
						if m.RootID[k] != blk.Root {
							t.Errorf("part %d node %d: RootID %d, want %d", i, v, m.RootID[k], blk.Root)
						}
						if m.RootDepth[k] != s.Tree().Depth(blk.Root) {
							t.Errorf("part %d node %d: RootDepth %d, want %d", i, v, m.RootDepth[k], s.Tree().Depth(blk.Root))
						}
					}
				}
			}
		})
	}
}

func TestMembershipPartsMatchBlocks(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			members, s, _ := pipeline(t, in, 1, nil)
			// Every block node must list the part in its membership and
			// vice versa.
			inBlock := make(map[[2]int]bool)
			for i := 0; i < in.p.NumParts(); i++ {
				for _, blk := range s.Blocks(i) {
					for _, v := range blk.Nodes {
						inBlock[[2]int{v, i}] = true
					}
				}
			}
			for v, m := range members {
				for _, i := range m.Parts {
					if !inBlock[[2]int{v, i}] {
						t.Errorf("node %d claims membership in part %d without a block", v, i)
					}
					delete(inBlock, [2]int{v, i})
				}
			}
			for key := range inBlock {
				t.Errorf("node %d in a block of part %d but not in membership", key[0], key[1])
			}
		})
	}
}

// TestElectLeaders runs exactly b supersteps, where b is the largest block
// count of the instance's CoreSlow(c*) shortcut, and requires every block
// member to know its part's leader: the minimum block-root ID.
func TestElectLeaders(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			_, s, _ := pipeline(t, in, 1, nil)
			steps := blockBound(in, s)
			leaders := make([][]int64, in.g.NumNodes())
			members, _, _ := pipeline(t, in, 1, func(ctx *congest.Ctx, m *Membership) error {
				l, err := m.ElectLeaders(ctx, steps)
				leaders[ctx.ID()] = l
				return err
			})
			for i := 0; i < in.p.NumParts(); i++ {
				blocks := s.Blocks(i)
				want := int64(blocks[0].Root)
				for _, blk := range blocks {
					want = min(want, int64(blk.Root))
				}
				for _, blk := range blocks {
					for _, v := range blk.Nodes {
						if got := leaders[v][members[v].Index(i)]; got != want {
							t.Fatalf("part %d node %d: leader %d after %d supersteps, want %d", i, v, got, steps, want)
						}
					}
				}
			}
		})
	}
}

// blockBound returns the instance's block parameter b: the largest block
// count over the parts of the CoreSlow(c*) shortcut s.
func blockBound(in instance, s *core.Shortcut) int {
	b := 1
	for i := 0; i < in.p.NumParts(); i++ {
		b = max(b, s.BlockCount(i))
	}
	return b
}

// singletonPipeline runs BFS, membership and annotation over the empty
// shortcut, where every vertex is its own block and a part's supergraph is
// G[P_i], then cont on every node; it returns the memberships.
func singletonPipeline(tb testing.TB, in instance, cont func(ctx *congest.Ctx, m *Membership) error) []*Membership {
	tb.Helper()
	members := make([]*Membership, in.g.NumNodes())
	if _, err := congest.Run(in.g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, 0, 7)
		if err != nil {
			return err
		}
		m, err := BuildMembership(ctx, &coredist.NodeShortcut{Info: info}, in.p)
		if err != nil {
			return err
		}
		members[ctx.ID()] = m
		return cont(ctx, m)
	}, congest.Options{}); err != nil {
		tb.Fatal(err)
	}
	return members
}

// maxPartSize is the largest part size: the block parameter of the empty
// shortcut.
func maxPartSize(in instance) int {
	b := 1
	for i := 0; i < in.p.NumParts(); i++ {
		b = max(b, in.p.Size(i))
	}
	return b
}

// TestVerifyBlockCountSingletonBlocks verifies block counts on the empty
// shortcut, where a part has one block per vertex: a part of at most bLimit
// vertices must be certified with its exact size at every member, and a
// larger part reported bad at every member. Unlike the CoreSlow(c*)
// instances (block parameter 1), this reaches multi-layer supergraph BFS
// forests and parts with more blocks than bLimit.
func TestVerifyBlockCountSingletonBlocks(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			bad := 0
			for _, bLimit := range []int{1, 3, maxPartSize(in)} {
				results := make([][]SumResult, in.g.NumNodes())
				members := singletonPipeline(t, in, func(ctx *congest.Ctx, m *Membership) error {
					r, err := m.VerifyBlockCount(ctx, bLimit)
					results[ctx.ID()] = r
					return err
				})
				for i := 0; i < in.p.NumParts(); i++ {
					size := in.p.Size(i)
					wantOK := size <= bLimit
					for _, v := range in.p.Nodes(i) {
						r := results[v][members[v].Index(i)]
						if r.OK != wantOK {
							t.Fatalf("bLimit=%d part %d (%d blocks) node %d: OK=%v, want %v", bLimit, i, size, v, r.OK, wantOK)
						}
						if r.OK && r.Sum != int64(size) {
							t.Fatalf("bLimit=%d part %d node %d: count %d, want %d", bLimit, i, v, r.Sum, size)
						}
						if !r.OK {
							bad++
						}
					}
				}
			}
			t.Logf("%d member verdicts bad", bad)
		})
	}
}

func TestVerifyBlockCountExact(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			checkVerifyBlockCount(t, in, cstarOf(t, in))
		})
	}
}

// TestVerifyBlockCountShattered repeats the exact check on CoreSlow at
// c = 1, where parts shatter into many blocks and the leader election of a
// shattered part disagrees across its blocks. Such a part's members also sit
// in other parts' blocks as Steiner vertices; the conflict they see in their
// own part must not turn those other parts' verdicts bad.
func TestVerifyBlockCountShattered(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			checkVerifyBlockCount(t, in, 1)
		})
	}
}

// checkVerifyBlockCount checks VerifyBlockCount against the true block
// counts of CoreSlow's shortcut at congestion parameter c: every block
// member of a part with at most bLimit blocks must learn OK and the exact
// count, and every member of a larger part must learn not-OK.
func checkVerifyBlockCount(t *testing.T, in instance, c int) {
	t.Helper()
	// First pass to learn the true block counts.
	_, s, _ := pipelineAt(t, in, 1, c, nil)
	bMax := blockBound(in, s)
	counts := make([]int, in.p.NumParts())
	for i := range counts {
		counts[i] = s.BlockCount(i)
	}
	for _, bLimit := range []int{1, 2, 3, bMax} {
		results := make([][]SumResult, in.g.NumNodes())
		members, _, _ := pipelineAt(t, in, 1, c, func(ctx *congest.Ctx, m *Membership) error {
			r, err := m.VerifyBlockCount(ctx, bLimit)
			results[ctx.ID()] = r
			return err
		})
		for i := 0; i < in.p.NumParts(); i++ {
			wantOK := counts[i] <= bLimit
			for v := 0; v < in.g.NumNodes(); v++ {
				k := members[v].Index(i)
				if k < 0 {
					continue // not a member of any block of part i
				}
				r := results[v][k]
				if r.OK != wantOK {
					t.Fatalf("c=%d bLimit=%d part %d (true count %d) node %d: OK=%v, want %v",
						c, bLimit, i, counts[i], v, r.OK, wantOK)
				}
				if r.OK && r.Sum != int64(counts[i]) {
					t.Fatalf("c=%d bLimit=%d part %d node %d: count %d, want %d",
						c, bLimit, i, v, r.Sum, counts[i])
				}
			}
		}
	}
}

func TestPartSumCountsMembers(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			_, s, _ := pipeline(t, in, 1, nil)
			steps := blockBound(in, s)
			results := make([][]SumResult, in.g.NumNodes())
			members, _, _ := pipeline(t, in, 1, func(ctx *congest.Ctx, m *Membership) error {
				r, err := m.PartSum(ctx, func(i int) int64 {
					if i == m.OwnPart {
						return 1
					}
					return 0
				}, steps)
				results[ctx.ID()] = r
				return err
			})
			for i := 0; i < in.p.NumParts(); i++ {
				want := int64(in.p.Size(i))
				v := in.p.Nodes(i)[0]
				r := results[v][members[v].Index(i)]
				if !r.OK {
					t.Fatalf("part %d: PartSum not OK with steps=%d", i, steps)
				}
				if r.Sum != want {
					t.Fatalf("part %d: sum %d, want %d", i, r.Sum, want)
				}
			}
		})
	}
}

func TestMinToAllAndBroadcast(t *testing.T) {
	in := testInstances(t)[1] // grid10x10/voronoi7
	_, s, _ := pipeline(t, in, 1, nil)
	steps := blockBound(in, s)
	n := in.g.NumNodes()
	value := func(i int) int64 { return int64(1000 + i) }
	minGot := make([][]Value, n)
	bcGot := make([][]BroadcastResult, n)
	members, _, _ := pipeline(t, in, 1, func(ctx *congest.Ctx, m *Membership) error {
		top := IDVal{V: int64(n + 10), N: 4 * n}
		mins, err := m.MinToAll(ctx, func(i int) Value {
			return IDVal{V: int64(ctx.ID()), N: 4 * n}
		}, top, lessID, steps)
		if err != nil {
			return err
		}
		minGot[ctx.ID()] = mins
		leaders, err := m.ElectLeaders(ctx, steps)
		if err != nil {
			return err
		}
		bcGot[ctx.ID()], err = m.BroadcastValue(ctx, leaders, value, steps)
		return err
	})
	for i := 0; i < in.p.NumParts(); i++ {
		// Min member ID per part.
		want := int64(in.p.Nodes(i)[0])
		for _, v := range in.p.Nodes(i) {
			want = min(want, int64(v))
		}
		for _, v := range in.p.Nodes(i) {
			k := members[v].Index(i)
			if got := minGot[v][k].(IDVal).V; got != want {
				t.Fatalf("part %d node %d: min %d, want %d", i, v, got, want)
			}
			if got := bcGot[v][k]; !got.Arrived || got.Value != value(i) {
				t.Fatalf("part %d node %d: broadcast %+v, want value %d", i, v, got, value(i))
			}
		}
	}

	// A horizon shorter than a part's supergraph: on the empty shortcut
	// every vertex is its own block, so the supergraph is G[P_i], and a
	// horizon of 0 (one superstep) carries the leader's value one hop.
	// Members farther away must report it undelivered, never a wrong value.
	short := make([][]BroadcastResult, n)
	singles := singletonPipeline(t, in, func(ctx *congest.Ctx, m *Membership) error {
		leaders, err := m.ElectLeaders(ctx, maxPartSize(in))
		if err != nil {
			return err
		}
		short[ctx.ID()], err = m.BroadcastValue(ctx, leaders, value, 0)
		return err
	})
	undelivered := 0
	for i := 0; i < in.p.NumParts(); i++ {
		leader := in.p.Nodes(i)[0]
		for _, v := range in.p.Nodes(i) {
			leader = min(leader, v)
		}
		for _, v := range in.p.Nodes(i) {
			switch got := short[v][singles[v].Index(i)]; {
			case !got.Arrived && v == leader:
				t.Fatalf("part %d: the leader %d reports its own value undelivered", i, v)
			case !got.Arrived:
				undelivered++
			case got.Value != value(i):
				t.Fatalf("part %d node %d: horizon-0 broadcast delivered %d, want %d", i, v, got.Value, value(i))
			}
		}
	}
	if undelivered == 0 {
		t.Fatal("horizon-0 broadcast reached every member; the undelivered path went unchecked")
	}
	t.Logf("horizon 0 on singleton blocks: %d of %d members report the value undelivered", undelivered, n)
}

func TestVerifyRoundComplexity(t *testing.T) {
	// Lemma 3: O(b(D+c)) rounds. Assert the concrete budget accounting:
	// rounds ≤ pipeline prefix + (4b+2)·(2·CastBudget+1) + slack.
	in := instance{"grid9x9/voronoi5", gen.Grid(9, 9), partition.Voronoi(gen.Grid(9, 9), 5, 4)}
	_, s, _ := pipeline(t, in, 1, nil)
	b := blockBound(in, s)
	_, _, statsBase := pipeline(t, in, 1, nil)
	var stats congest.Stats
	_, _, stats = pipeline(t, in, 1, func(ctx *congest.Ctx, m *Membership) error {
		_, err := m.VerifyBlockCount(ctx, b)
		return err
	})
	extra := stats.Rounds - statsBase.Rounds
	castBudget := 0
	pipeline(t, in, 1, func(ctx *congest.Ctx, m *Membership) error {
		// The budget is the same at every node; only node 0 records it so the
		// closure stays race-free under -race.
		if ctx.ID() == 0 {
			castBudget = m.CastBudget()
		}
		return nil
	})
	limit := (4*b + 6) * (2*(castBudget+1) + 3)
	if extra > limit {
		t.Errorf("verification rounds %d > budget %d (b=%d, castBudget=%d)", extra, limit, b, castBudget)
	}
}

// TestResultsOutliveLaterCalls pins the result lifetime: the casts reuse the
// Membership's scratch, but every exported call returns slices of its own,
// so later casts on the same Membership leave earlier results intact.
func TestResultsOutliveLaterCalls(t *testing.T) {
	in := testInstances(t)[1] // grid10x10/voronoi7
	n := in.g.NumNodes()
	bad := make([]string, n)
	pipeline(t, in, 1, func(ctx *congest.Ctx, m *Membership) error {
		top := IDVal{V: int64(n), N: n}
		mins, err := m.MinToAll(ctx, func(int) Value { return IDVal{V: int64(ctx.ID()), N: n} }, top, lessID, 1)
		if err != nil {
			return err
		}
		leaders, err := m.ElectLeaders(ctx, 1)
		if err != nil {
			return err
		}
		gathered, err := m.Gather(ctx, func(int) Value { return IDVal{V: 1, N: n} }, minID, 0)
		if err != nil {
			return err
		}
		sums, err := m.VerifyBlockCount(ctx, 1)
		if err != nil {
			return err
		}
		wantMins, wantLeaders := slices.Clone(mins), slices.Clone(leaders)
		wantGathered, wantSums := slices.Clone(gathered), slices.Clone(sums)
		// Casts with other values over the same scratch.
		if _, err := m.MinToAll(ctx, func(int) Value { return IDVal{V: 0, N: n} }, top, lessID, 1); err != nil {
			return err
		}
		if _, err := m.Scatter(ctx, func(int) Value { return IDVal{V: 7, N: n} }, 0); err != nil {
			return err
		}
		if _, err := m.PartSum(ctx, func(int) int64 { return 5 }, 1); err != nil {
			return err
		}
		switch {
		case !slices.Equal(mins, wantMins):
			bad[ctx.ID()] = "MinToAll"
		case !slices.Equal(leaders, wantLeaders):
			bad[ctx.ID()] = "ElectLeaders"
		case !slices.Equal(gathered, wantGathered):
			bad[ctx.ID()] = "Gather"
		case !slices.Equal(sums, wantSums):
			bad[ctx.ID()] = "VerifyBlockCount"
		}
		return nil
	})
	for v, op := range bad {
		if op != "" {
			t.Errorf("node %d: a later cast overwrote the %s result", v, op)
		}
	}
}
