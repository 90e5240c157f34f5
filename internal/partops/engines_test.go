package partops

import (
	"os"
	"testing"

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

// castOut is one node's result of the annotated membership followed by a
// block count verification and a part-wide minimum.
type castOut struct {
	Membership *Membership
	Verify     []SumResult
	Min        []Value
}

// TestPartopsEnginesIdentical pins the cross-engine contract for Annotate
// and the Lemma 2 casts behind VerifyBlockCount and MinToAll, which sleep
// on the event-loop engine: every node's membership, verdicts, minima and
// the Stats must be identical on both engines.
func TestPartopsEnginesIdentical(t *testing.T) {
	for _, in := range testInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			const bLimit = 3
			congesttest.Identical(t, func() (any, congest.Stats, error) {
				outs := make([]castOut, in.g.NumNodes())
				members, _, stats := pipeline(t, in, func(ctx *congest.Ctx, m *Membership) error {
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
