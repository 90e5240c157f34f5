// Package partagg is the third application: the paper's §1.2 recurring
// scenario in its purest form — "a graph is partitioned into disjoint
// connected parts and we need to compute a (typically simple) function for
// each part in isolation". It composes shortcut construction with the
// Theorem 2 routing primitives to compute, for every part in parallel, its
// leader, size, value sum and value minimum; the naive alternative (flooding
// inside G[P_i]) needs rounds proportional to the part diameter, which the
// snake-partition experiment (E9) shows can vastly exceed the graph
// diameter.
package partagg

import (
	"fmt"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/findshort"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/partops"
)

// Report is what every covered node learns about its own part.
type Report struct {
	Part   int
	Leader int64
	Size   int64
	Sum    int64
	Min    int64
}

// Config parameterizes the aggregation run.
type Config struct {
	// C and B: witness shortcut parameters; zero means the Appendix A
	// doubling search.
	C, B int
	// Canonical skips FindShortcut and routes over the canonical
	// full-ancestor shortcut (b = 1, congestion c*).
	Canonical bool
	// Seed drives shared randomness.
	Seed int64
}

// Phase computes per-part aggregates of value on one node, starting from a
// completed BFS phase. Uncovered nodes participate in routing (as Steiner
// vertices) and return a nil report.
func Phase(ctx *congest.Ctx, info *bfsproto.Info, p *partition.Partition, value int64, cfg Config) (*Report, error) {
	m, steps, err := findshort.Route(ctx, info, p, p.NumParts(), cfg.Seed, cfg.C, cfg.B, cfg.Canonical)
	if err != nil {
		return nil, fmt.Errorf("partagg: %w", err)
	}
	leaders, err := m.ElectLeaders(ctx, steps)
	if err != nil {
		return nil, err
	}
	sums, err := m.PartSum(ctx, func(i int) int64 {
		if i == m.OwnPart {
			return value
		}
		return 0
	}, steps)
	if err != nil {
		return nil, err
	}
	sizes, err := m.PartSum(ctx, func(i int) int64 {
		if i == m.OwnPart {
			return 1
		}
		return 0
	}, steps)
	if err != nil {
		return nil, err
	}
	top := partops.IDVal{V: int64(1) << 62, N: info.Count}
	mins, err := m.MinToAll(ctx, func(i int) partops.Value {
		return partops.IDVal{V: value, N: info.Count}
	}, top, func(a, b partops.Value) bool {
		return a.(partops.IDVal).V < b.(partops.IDVal).V
	}, steps)
	if err != nil {
		return nil, err
	}
	if m.OwnPart == partition.None {
		return nil, nil
	}
	k := m.Index(m.OwnPart)
	if !sums[k].OK || !sizes[k].OK {
		return nil, fmt.Errorf("partagg: node %d part %d: aggregation not certified", ctx.ID(), m.OwnPart)
	}
	return &Report{
		Part:   m.OwnPart,
		Leader: leaders[k],
		Size:   sizes[k].Sum,
		Sum:    sums[k].Sum,
		Min:    mins[k].(partops.IDVal).V,
	}, nil
}

// Run executes BFS + Phase on every node of g. values holds each node's
// input value.
func Run(g *graph.Graph, p *partition.Partition, values []int64, root graph.NodeID, cfg Config, opts congest.Options) ([]*Report, congest.Stats, error) {
	reports := make([]*Report, g.NumNodes())
	stats, err := congest.Run(g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, root, cfg.Seed)
		if err != nil {
			return err
		}
		rep, err := Phase(ctx, info, p, values[ctx.ID()], cfg)
		if err != nil {
			return err
		}
		reports[ctx.ID()] = rep
		return nil
	}, opts)
	if err != nil {
		return nil, stats, err
	}
	return reports, stats, nil
}
