package mst

import (
	"fmt"
	"os"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// TestMain installs a default shard count of 3 for the whole test binary, so
// every EngineSharded run cuts its graph into three shards and exercises
// cross-shard relays even where GOMAXPROCS is 1.
func TestMain(m *testing.M) {
	congest.SetDefaultShards(3)
	os.Exit(m.Run())
}

// TestMstEnginesIdentical pins the cross-engine contract for the distributed
// MST under all three strategies (the no-shortcut flood chunks and every
// shortcut phase sleep on the event-loop engine): every node's result and
// the Stats must be identical on both engines.
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
				_, _, err := congesttest.Identical(t, func() (any, congest.Stats, error) {
					results, stats, err := Run(gr.g, 0, 11, Config{Strategy: s}, congest.Options{})
					return results, stats, err
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
