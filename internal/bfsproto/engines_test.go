package bfsproto

import (
	"errors"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// aggregateOut is one node's result of the BFS phase followed by the three
// aggregate phases.
type aggregateOut struct {
	Info     *Info
	Sum, Max int64
	Or       bool
}

// TestBfsprotoEnginesIdentical pins the shard-count contract for the BFS
// phase (whose waits sleep) and the aggregates run after it: per-node
// results and Stats must be identical at one shard and at three.
func TestBfsprotoEnginesIdentical(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid9x7", gen.Grid(9, 7)},
		{"er60", gen.ErdosRenyi(60, 0.08, 3)},
		{"star12", gen.Star(12)},
		{"tree50", gen.RandomTree(50, 2)},
		{"single", gen.Path(1)},
	}
	for _, gr := range graphs {
		t.Run(gr.name, func(t *testing.T) {
			_, _, err := congesttest.Identical(t, func(shards int) (any, congest.Stats, error) {
				outs := make([]aggregateOut, gr.g.NumNodes())
				stats, err := congest.Run(gr.g, func(ctx *congest.Ctx) error {
					info, err := Phase(ctx, 0, 99)
					if err != nil {
						return err
					}
					o := aggregateOut{Info: info}
					if o.Sum, err = SumPhase(ctx, info, int64(ctx.ID())); err != nil {
						return err
					}
					if o.Max, err = MaxPhase(ctx, info, int64(ctx.Degree())); err != nil {
						return err
					}
					if o.Or, err = OrPhase(ctx, info, ctx.ID()%7 == 3); err != nil {
						return err
					}
					outs[ctx.ID()] = o
					return nil
				}, congest.Options{Shards: shards})
				return outs, stats, err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBfsprotoEnginesIdenticalWatchdog runs the BFS phase on a disconnected
// graph: the far component never hears an offer and waits for mail until
// the watchdog fires, through a round jump. One shard and three must report
// ErrMaxRounds with identical Stats.
func TestBfsprotoEnginesIdenticalWatchdog(t *testing.T) {
	g := graph.MustFromEdges(7, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1}})
	const maxRounds = 40
	_, stats, err := congesttest.Identical(t, func(shards int) (any, congest.Stats, error) {
		infos, stats, err := Run(g, 0, 7, congest.Options{MaxRounds: maxRounds, Shards: shards})
		return infos, stats, err
	})
	if !errors.Is(err, congest.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	if stats.Rounds != maxRounds+1 {
		t.Fatalf("Rounds = %d, want %d", stats.Rounds, maxRounds+1)
	}
}
