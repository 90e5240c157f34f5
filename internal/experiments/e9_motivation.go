package experiments

import (
	"fmt"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/findshort"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/partops"
)

type e9Size struct{ w, h, parts int }

func e9Sizes(short bool) []e9Size {
	all := []e9Size{{12, 12, 3}, {16, 16, 2}, {20, 20, 2}, {26, 26, 2}}
	if short {
		return all[:2]
	}
	return all
}

var expE9 = &Experiment{
	ID:    "E9",
	Title: "§1.2 motivation — per-part aggregation: shortcut blockcast (≈2(D+c*)) vs intra-part flooding (≥ part diameter)",
	Ref:   "§1.2",
	Bound: "the shortcut blockcast beats intra-part flooding once part diameter exceeds graph diameter",
	Grid: func(short bool) []GridAxis {
		a := GridAxis{Name: "grid/snakes"}
		for _, sz := range e9Sizes(short) {
			a.Values = append(a.Values, fmt.Sprintf("%dx%d/N=%d", sz.w, sz.h, sz.parts))
		}
		return []GridAxis{a}
	},
	Run: runE9,
}

// runE9 reproduces the §1.2 scenario: snake parts have internal diameter far
// above the graph diameter. One per-part min-aggregation over the canonical
// shortcut costs one gather+scatter pair ≈ 2(D+c*) rounds, while intra-part
// flooding needs ≥ part-diameter rounds — the gap that motivates shortcuts,
// with the crossover visible as the snakes lengthen.
func runE9(rc *RunContext) (*Table, error) {
	t := &Table{
		Header: []string{"grid", "N", "graph_D", "part_diam", "pd/D", "blockcast_rounds", "flood_rounds", "shortcut_wins"},
	}
	for _, sz := range e9Sizes(rc.Short) {
		g := gen.Grid(sz.w, sz.h)
		p := partition.GridSnake(sz.w, sz.h, sz.parts)
		d := g.Diameter()
		pd := p.MaxPartDiameter(g)
		blockcast, err := measureCanonicalBlockcast(rc, g, p)
		if err != nil {
			return nil, err
		}
		flood, err := measurePartFlood(rc, g, p)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", sz.w, sz.h), itoa(sz.parts), itoa(d), itoa(pd),
			f2(float64(pd) / float64(d)), itoa(blockcast), itoa(flood),
			okStr(blockcast < flood),
		})
	}
	return t, nil
}

// measureCanonicalBlockcast returns the rounds of one per-part min
// aggregation (gather to block root + scatter) over the canonical b = 1
// shortcut, construction excluded.
func measureCanonicalBlockcast(rc *RunContext, g *graph.Graph, p *partition.Partition) (int, error) {
	run := func(withCast bool) (int, error) {
		stats, err := rc.Run(g, func(ctx *congest.Ctx) error {
			info, err := bfsproto.Phase(ctx, 0, 13)
			if err != nil {
				return err
			}
			m, _, err := findshort.Route(ctx, info, p, p.NumParts(), 13, 0, 0, true)
			if err != nil {
				return err
			}
			if !withCast {
				return nil
			}
			minC := func(a, b partops.Value) partops.Value {
				if b.(partops.IDVal).V < a.(partops.IDVal).V {
					return b
				}
				return a
			}
			res, err := m.Gather(ctx, func(i int) partops.Value {
				return partops.IDVal{V: int64(ctx.ID() % 97), N: info.Count}
			}, minC, 0)
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
		return 0, err
	}
	full, err := run(true)
	if err != nil {
		return 0, err
	}
	return full - base, nil
}

// measurePartFlood returns the rounds the naive strategy needs for the same
// per-part min aggregation: min-propagation restricted to G[P_i] edges until
// globally stable (checked every chunk rounds via a global OR).
func measurePartFlood(rc *RunContext, g *graph.Graph, p *partition.Partition) (int, error) {
	const chunk = 8
	stats, err := rc.Run(g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, 0, 13)
		if err != nil {
			return err
		}
		// Learn neighbor parts (one announce round via membership build is
		// overkill here; a plain announce suffices).
		ctx.SendAll(partops.IDVal{V: int64(p.Part(ctx.ID())), N: info.Count})
		nbrPart := make(map[graph.NodeID]int64)
		for _, m := range ctx.StepRound() {
			nbrPart[m.From] = m.Payload.(partops.IDVal).V
		}
		mine := int64(p.Part(ctx.ID()))
		cur := int64(ctx.ID() % 97)
		changed := mine != int64(partition.None) // uncovered nodes never transmit
		for {
			changedInChunk := false
			for r := 0; r < chunk; r++ {
				if changed && mine != int64(partition.None) {
					for _, a := range ctx.Neighbors() {
						if nbrPart[a.To] == mine {
							ctx.Send(a.To, partops.IDVal{V: cur, N: info.Count})
						}
					}
					changed = false
				}
				for _, m := range ctx.StepRound() {
					if v := m.Payload.(partops.IDVal).V; v < cur {
						cur = v
						changed = true
						changedInChunk = true
					}
				}
			}
			more, err := bfsproto.OrPhase(ctx, info, changedInChunk || changed)
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
	}, congest.Options{})
	if err != nil {
		return 0, err
	}
	// Subtract the BFS prefix and announce round so the figure is the
	// aggregation cost alone (the OR checks are part of the naive scheme's
	// termination cost and stay included).
	prefix, err := bfsOnlyRounds(rc, g)
	if err != nil {
		return 0, err
	}
	return stats.Rounds - prefix - 1, nil
}

func bfsOnlyRounds(rc *RunContext, g *graph.Graph) (int, error) {
	_, stats, err := bfsproto.Run(g, 0, 13, congest.Options{})
	rc.Record(stats)
	return stats.Rounds, err
}
