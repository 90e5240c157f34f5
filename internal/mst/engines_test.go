package mst

import (
	"fmt"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// TestMstEnginesIdentical pins the shard-count contract for the distributed
// MST under all three strategies (the no-shortcut flood chunks and every
// shortcut phase sleep): every node's result and the Stats must be
// identical at one shard and at three.
func TestMstEnginesIdentical(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid7x7", gen.WithUniqueWeights(gen.Grid(7, 7), 3)},
		{"er40", gen.WithRandomWeights(gen.ErdosRenyi(40, 0.12, 5), 6, 9)},
	}
	for _, gr := range graphs {
		for _, s := range []Strategy{StrategyShortcut, StrategyCanonical, StrategyNoShortcut} {
			t.Run(fmt.Sprintf("%s/strategy%d", gr.name, s), func(t *testing.T) {
				_, _, err := congesttest.Identical(t, func(shards int) (any, congest.Stats, error) {
					results, stats, err := Run(gr.g, 0, 11, Config{Strategy: s}, congest.Options{Shards: shards})
					return results, stats, err
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
