package experiments

import (
	"fmt"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/core"
	"lcshortcut/internal/findshort"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/partops"
)

type e6Size struct{ w, h, parts int }

func e6Sizes(short bool) []e6Size {
	all := []e6Size{{10, 10, 7}, {14, 14, 10}}
	if short {
		return all[:1]
	}
	return all
}

var expE6 = &Experiment{
	ID:    "E6",
	Title: "Theorem 2 — part-parallel leader election / broadcast / convergecast in O(b(D+c)) rounds",
	Ref:   "Theorem 2",
	Bound: "three routing ops complete within 3·(3b+2)·(2(D+cMax+2)+1) rounds",
	Grid: func(short bool) []GridAxis {
		a := GridAxis{Name: "graph/parts"}
		for _, sz := range e6Sizes(short) {
			a.Values = append(a.Values, fmt.Sprintf("grid%dx%d/N=%d", sz.w, sz.h, sz.parts))
		}
		return []GridAxis{a}
	},
	Run: runE6,
}

// runE6 reproduces Theorem 2: leader election + broadcast + convergecast
// over a constructed shortcut in O(b(D+c)) rounds.
func runE6(rc *RunContext) (*Table, error) {
	t := &Table{
		Header: []string{"graph", "n", "N", "b", "D", "cMax", "op_rounds", "b(D+cMax)·k bound", "within"},
	}
	for _, sz := range e6Sizes(rc.Short) {
		g := gen.Grid(sz.w, sz.h)
		p := partition.Voronoi(g, sz.parts, 6)
		tr, err := protocolTree(rc, g)
		if err != nil {
			return nil, err
		}
		cStar := core.WitnessCongestion(tr, p)
		var opRounds, d, cMax, bUsed int
		runOnce := func(withOps bool) (int, error) {
			stats, err := rc.Run(g, func(ctx *congest.Ctx) error {
				info, err := bfsproto.Phase(ctx, 0, 7)
				if err != nil {
					return err
				}
				m, steps, err := findshort.Route(ctx, info, p, p.NumParts(), 7, cStar, 1, false)
				if err != nil {
					return err
				}
				// Globally agreed values; only node 0 records them so the
				// per-node closure stays race-free.
				if ctx.ID() == 0 {
					d, cMax, bUsed = info.Height, m.CMax, steps
				}
				if !withOps {
					return nil
				}
				leaders, err := m.ElectLeaders(ctx, steps)
				if err != nil {
					return err
				}
				if _, err := m.BroadcastValue(ctx, leaders, func(i int) int64 { return int64(i) }, steps); err != nil {
					return err
				}
				top := partops.IDVal{V: int64(1) << 61, N: g.NumNodes()}
				_, err = m.MinToAll(ctx, func(i int) partops.Value {
					return partops.IDVal{V: int64(ctx.ID()), N: g.NumNodes()}
				}, top, func(a, b partops.Value) bool { return a.(partops.IDVal).V < b.(partops.IDVal).V }, steps)
				return err
			}, congest.Options{})
			return stats.Rounds, err
		}
		base, err := runOnce(false)
		if err != nil {
			return nil, err
		}
		full, err := runOnce(true)
		if err != nil {
			return nil, err
		}
		opRounds = full - base
		// Three ops, each ≈ (3b+2) supersteps of (2(D+cMax+2)+1) rounds.
		bound := 3 * (3*bUsed + 2) * (2*(d+cMax+2) + 1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("grid%dx%d", sz.w, sz.h), itoa(g.NumNodes()), itoa(sz.parts),
			itoa(bUsed), itoa(d), itoa(cMax), itoa(opRounds), itoa(bound), okStr(opRounds <= bound),
		})
	}
	return t, nil
}
