package findshort

import (
	"os"
	"testing"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
)

// TestMain installs a default shard count of 3 for the whole test binary, so
// every EngineSharded run cuts its graph into three shards and exercises
// cross-shard relays even where GOMAXPROCS is 1.
func TestMain(m *testing.M) {
	congest.SetDefaultShards(3)
	os.Exit(m.Run())
}

// TestFindshortEnginesIdentical pins the cross-engine contract for the
// doubling FindShortcut (AutoPhase), which composes every converted wait —
// the BFS phase, CoreFast, the casts and the aggregates: every node's result
// and the Stats must be identical on both engines.
func TestFindshortEnginesIdentical(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			_, _, err := congesttest.Identical(t, func() (any, congest.Stats, error) {
				results := make([]*AutoResult, in.g.NumNodes())
				stats, err := congest.Run(in.g, func(ctx *congest.Ctx) error {
					info, err := bfsproto.Phase(ctx, 0, 21)
					if err != nil {
						return err
					}
					ar, err := AutoPhase(ctx, info, in.p, in.p.NumParts(), 21, true)
					results[ctx.ID()] = ar
					return err
				}, congest.Options{})
				return results, stats, err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
