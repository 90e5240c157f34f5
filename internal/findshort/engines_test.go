package findshort

import (
	"testing"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
)

// TestFindshortEnginesIdentical pins the shard-count contract for the
// doubling FindShortcut (AutoPhase), which composes every converted wait —
// the BFS phase, CoreFast, the casts and the aggregates: every node's result
// and the Stats must be identical at one shard and at three.
func TestFindshortEnginesIdentical(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			_, _, err := congesttest.Identical(t, func(shards int) (any, congest.Stats, error) {
				results := make([]*AutoResult, in.g.NumNodes())
				stats, err := congest.Run(in.g, func(ctx *congest.Ctx) error {
					info, err := bfsproto.Phase(ctx, 0, 21)
					if err != nil {
						return err
					}
					ar, err := AutoPhase(ctx, info, in.p, in.p.NumParts(), 21, true)
					results[ctx.ID()] = ar
					return err
				}, congest.Options{Shards: shards})
				return results, stats, err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
