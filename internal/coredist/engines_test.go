package coredist

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

// TestCoredistEnginesIdentical pins the cross-engine contract for CoreSlow,
// CoreFast and the canonical shortcut, whose upward sweeps, routing chunks
// and completion checks sleep on the event-loop engine: every node's
// shortcut state and the Stats must be identical on both engines.
func TestCoredistEnginesIdentical(t *testing.T) {
	algos := []struct {
		name  string
		phase func(ctx *congest.Ctx, info *bfsproto.Info, in instance) (*NodeShortcut, error)
	}{
		{"coreslow", func(ctx *congest.Ctx, info *bfsproto.Info, in instance) (*NodeShortcut, error) {
			return CoreSlowPhase(ctx, info, in.p, 2, false)
		}},
		{"corefast", func(ctx *congest.Ctx, info *bfsproto.Info, in instance) (*NodeShortcut, error) {
			return CoreFastPhase(ctx, info, in.p, FastParams{C: 2, ActSeed: info.Seed})
		}},
		{"canonical", func(ctx *congest.Ctx, info *bfsproto.Info, in instance) (*NodeShortcut, error) {
			return CanonicalPhase(ctx, info, in.p)
		}},
	}
	for _, in := range testInstances(t) {
		for _, algo := range algos {
			t.Run(in.name+"/"+algo.name, func(t *testing.T) {
				_, _, err := congesttest.Identical(t, func() (any, congest.Stats, error) {
					states := make([]*NodeShortcut, in.g.NumNodes())
					stats, err := congest.Run(in.g, func(ctx *congest.Ctx) error {
						info, err := bfsproto.Phase(ctx, 0, 42)
						if err != nil {
							return err
						}
						ns, err := algo.phase(ctx, info, in)
						states[ctx.ID()] = ns
						return err
					}, congest.Options{})
					return states, stats, err
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
