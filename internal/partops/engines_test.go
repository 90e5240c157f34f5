package partops

import (
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
)

// castOut is one node's result of the annotated membership followed by a
// block count verification and a part-wide minimum.
type castOut struct {
	Membership *Membership
	Verify     []SumResult
	Min        []Value
}

// TestPartopsEnginesIdentical pins the shard-count contract for Annotate
// and the Lemma 2 casts behind VerifyBlockCount and MinToAll, which sleep:
// every node's membership, verdicts, minima and the Stats must be identical
// at one shard and at three.
func TestPartopsEnginesIdentical(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			const bLimit = 3
			congesttest.Identical(t, func(shards int) (any, congest.Stats, error) {
				outs := make([]castOut, in.g.NumNodes())
				members, _, stats := pipeline(t, in, shards, func(ctx *congest.Ctx, m *Membership) error {
					verify, err := m.VerifyBlockCount(ctx, bLimit)
					if err != nil {
						return err
					}
					mins, err := m.MinToAll(ctx, func(i int) Value {
						return IDVal{V: int64(ctx.ID()*7919%101 + i), N: m.Info.Count}
					}, IDVal{V: 1 << 40, N: m.Info.Count}, lessID, bLimit)
					outs[ctx.ID()] = castOut{Verify: verify, Min: mins}
					return err
				})
				for v := range outs {
					outs[v].Membership = members[v]
				}
				return outs, stats, nil
			})
		})
	}
}
