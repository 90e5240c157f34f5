package partops

import (
	"testing"

	"lcshortcut/internal/congest"
)

// TestAllocGuardPartops holds the Lemma 2/3 casts to the allocations their
// messages need. The casts run on scratch the Membership owns, so a run
// that calls VerifyBlockCount twice may allocate, beyond a run that calls it
// once, at most two objects per message the second call sends (the boxed
// payload and the value it carries) plus a few per node (the result slice).
// Per-call maps of per-part state cost far more per node than that.
func TestAllocGuardPartops(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds run nodes on goroutines whose bookkeeping allocates; the guard runs in the non-race engine-bench job")
	}
	in := testInstances(t)[1] // grid10x10/voronoi7
	const bLimit = 3
	run := func(calls int) congest.Stats {
		_, _, stats := pipeline(t, in, 1, func(ctx *congest.Ctx, m *Membership) error {
			for c := 0; c < calls; c++ {
				if _, err := m.VerifyBlockCount(ctx, bLimit); err != nil {
					return err
				}
			}
			return nil
		})
		return stats
	}
	once, twice := run(1), run(2)
	a1 := testing.AllocsPerRun(5, func() { run(1) })
	a2 := testing.AllocsPerRun(5, func() { run(2) })
	msgs := float64(twice.Messages - once.Messages)
	n := float64(in.g.NumNodes())
	const perMsg, perNode = 2, 4
	extra := a2 - a1
	if limit := perMsg*msgs + perNode*n; extra > limit {
		t.Errorf("a second VerifyBlockCount allocates %.0f objects for %.0f messages on %.0f nodes, want <= %.0f (%d per message + %d per node)",
			extra, msgs, n, limit, perMsg, perNode)
	}
	t.Logf("second VerifyBlockCount: %.0f allocs, %.0f messages, %.0f nodes (%.2f allocs/message)", extra, msgs, n, extra/msgs)
}
