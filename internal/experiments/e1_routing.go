package experiments

import (
	"fmt"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/core"
	"lcshortcut/internal/coredist"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/partops"
)

type e1Size struct{ w, h, parts int }

func e1Sizes(short bool) []e1Size {
	all := []e1Size{{8, 8, 6}, {12, 12, 10}, {16, 16, 14}, {20, 10, 8}}
	if short {
		return all[:2]
	}
	return all
}

var expE1 = &Experiment{
	ID:    "E1",
	Title: "Lemma 2 — pipelined tree routing in ≤ D + c + 2 rounds per direction",
	Ref:   "Lemma 2",
	Bound: "one gather+scatter pair over the shortcut blocks completes within 2(D+c+1)+2 rounds",
	Grid: func(short bool) []GridAxis {
		a := GridAxis{Name: "graph/parts"}
		for _, sz := range e1Sizes(short) {
			a.Values = append(a.Values, fmt.Sprintf("grid%dx%d/N=%d", sz.w, sz.h, sz.parts))
		}
		return []GridAxis{a}
	},
	Run: runE1,
}

// runE1 measures Lemma 2: multi-subtree convergecast+broadcast over the
// blocks of a constructed shortcut completes within the D + c budget.
func runE1(rc *RunContext) (*Table, error) {
	t := &Table{
		Header: []string{"graph", "n", "N", "depth", "cMax", "budget", "gather+scatter_rounds", "within_bound"},
	}
	for _, sz := range e1Sizes(rc.Short) {
		g := gen.Grid(sz.w, sz.h)
		p := partition.Voronoi(g, sz.parts, 3)
		base, casted, meta, err := measureCastRounds(rc, g, p)
		if err != nil {
			return nil, err
		}
		rounds := casted - base
		bound := 2*(meta.castBudget+1) + 2
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("grid%dx%d", sz.w, sz.h), itoa(g.NumNodes()), itoa(sz.parts),
			itoa(meta.depth), itoa(meta.cMax), itoa(meta.castBudget),
			itoa(rounds), okStr(rounds <= bound),
		})
	}
	return t, nil
}

type castMeta struct{ depth, cMax, castBudget int }

// measureCastRounds runs the standard pipeline once without and once with a
// gather+scatter pair, returning both round counts.
func measureCastRounds(rc *RunContext, g *graph.Graph, p *partition.Partition) (int, int, castMeta, error) {
	tr, err := protocolTree(rc, g)
	if err != nil {
		return 0, 0, castMeta{}, err
	}
	cStar := core.WitnessCongestion(tr, p)
	var meta castMeta
	run := func(withCast bool) (int, error) {
		stats, err := rc.Run(g, func(ctx *congest.Ctx) error {
			info, err := bfsproto.Phase(ctx, 0, 7)
			if err != nil {
				return err
			}
			ns, err := coredist.CoreSlowPhase(ctx, info, p, cStar, false)
			if err != nil {
				return err
			}
			m, err := partops.BuildMembership(ctx, ns, p)
			if err != nil {
				return err
			}
			// The values are globally agreed; only node 0 records them so the
			// per-node closure stays race-free.
			if ctx.ID() == 0 {
				meta = castMeta{depth: info.Height, cMax: m.CMax, castBudget: m.CastBudget()}
			}
			if !withCast {
				return nil
			}
			res, err := m.Gather(ctx, func(i int) partops.Value {
				return partops.IDVal{V: 1, N: info.Count}
			}, func(a, b partops.Value) partops.Value {
				return partops.IDVal{V: a.(partops.IDVal).V + b.(partops.IDVal).V, N: info.Count}
			}, 0)
			if err != nil {
				return err
			}
			_, err = m.Scatter(ctx, func(i int) partops.Value { return res[m.Index(i)] }, 0)
			return err
		}, congest.Options{})
		return stats.Rounds, err
	}
	base, err := run(false)
	if err != nil {
		return 0, 0, meta, err
	}
	casted, err := run(true)
	if err != nil {
		return 0, 0, meta, err
	}
	return base, casted, meta, nil
}
