package congest_test

import (
	"fmt"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/engbench"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// perRoundAllocs isolates the engine's steady-state (per-round) allocation
// count: run the same protocol for r1 and r2 rounds on the same
// graph and divide the allocation delta by the extra rounds. Per-run setup
// (goroutine spawns, pool misses) is identical on both sides and cancels;
// any genuine per-round allocation shows up ≥ (r2-r1) times.
func perRoundAllocs(t *testing.T, g *graph.Graph, opts congest.Options, procFor func(rounds int) congest.Proc) float64 {
	t.Helper()
	const r1, r2 = 32, 1032
	run := func(rounds int) {
		if _, err := congest.Run(g, procFor(rounds), opts); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the run-state pool and per-node buffers at both sizes.
	run(r2)
	run(r1)
	a1 := testing.AllocsPerRun(5, func() { run(r1) })
	a2 := testing.AllocsPerRun(5, func() { run(r2) })
	return (a2 - a1) / float64(r2-r1)
}

// TestAllocGuardBroadcast is the CI benchmark-regression guard for the
// maximum-traffic path: flooding every edge every round must allocate
// nothing per round in the steady state.
func TestAllocGuardBroadcast(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	if per := perRoundAllocs(t, gen.Grid(16, 16), congest.Options{Seed: 3}, engbench.BroadcastProc); per > 0.02 {
		t.Errorf("broadcast steady state allocates %.3f allocs/round, want 0", per)
	}
}

// TestAllocGuardSharded extends the steady-state guard to runs of several
// shards: local arena writes, cross-shard relay appends/drains and the
// drivers' round barrier are all pooled and preallocated, so a flooded round
// must allocate nothing at any shard count (per-run setup — the shard cut,
// ring sizing, the driver goroutines — cancels between the two run
// lengths).
func TestAllocGuardSharded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	for _, shards := range []int{1, 4} {
		opts := congest.Options{Seed: 3, Shards: shards}
		if per := perRoundAllocs(t, gen.Grid(16, 16), opts, engbench.BroadcastProc); per > 0.02 {
			t.Errorf("sharded broadcast steady state (shards=%d) allocates %.3f allocs/round, want 0", shards, per)
		}
	}
}

// TestAllocGuardEmptyFaultPlan pins that the fault layer's disabled branches
// are free: an explicit empty FaultPlan (every fault check compiled in and
// evaluated, none firing) must keep the broadcast steady state at zero
// allocations per round, same as the nil-plan fast path.
func TestAllocGuardEmptyFaultPlan(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	opts := congest.Options{Seed: 3, Faults: &congest.FaultPlan{}}
	if per := perRoundAllocs(t, gen.Grid(16, 16), opts, engbench.BroadcastProc); per > 0.02 {
		t.Errorf("broadcast with empty fault plan allocates %.3f allocs/round, want 0", per)
	}
}

// TestAllocGuardLossyAdversary is the faulty-path bound: a lossy run with the
// rotating adversary stamps dropped slots with a nil payload and rotates
// each inbox in place, so even the fully faulty steady state must not
// allocate per round.
func TestAllocGuardLossyAdversary(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	opts := congest.Options{Seed: 3, Faults: &congest.FaultPlan{
		DropProb:  0.3,
		Adversary: congest.AdversaryRotate,
		Seed:      9,
	}}
	if per := perRoundAllocs(t, gen.Grid(16, 16), opts, engbench.BroadcastProc); per > 0.02 {
		t.Errorf("lossy+adversary steady state allocates %.3f allocs/round, want 0", per)
	}
}

// pulse is a zero-size payload: boxing it allocates nothing, so the guard
// below measures engine allocations only.
type pulse struct{}

func (pulse) Bits() int { return 2 }

// packingTrafficProc mimics the round-level traffic shape of the min-cut
// packing protocol without its per-phase bookkeeping: announce rounds
// (SendAll + StepRound, every arc loaded), convergecast rounds (one SendArc
// up a fixed arc + Step/InboxArc scan) and silent barrier rounds, cycled.
// The protocol itself allocates per phase; this guard pins that the engine
// underneath it stays at zero steady-state allocations per round.
func packingTrafficProc(rounds int) congest.Proc {
	return func(ctx *congest.Ctx) error {
		for r := 0; r < rounds; r++ {
			switch r % 3 {
			case 0: // fragment announce: every edge loaded both ways
				ctx.SendAll(pulse{})
				ctx.StepRound()
			case 1: // convergecast step: one uplink send, fast-path inbox scan
				ctx.SendArc(0, pulse{})
				ctx.Step()
				for k := range ctx.Neighbors() {
					ctx.InboxArc(k)
				}
			default: // alignment barrier: no traffic
				ctx.Step()
			}
		}
		return nil
	}
}

// TestAllocGuardPackingTraffic extends the steady-state guard to the
// min-cut protocol's traffic shape: mixed announce floods, arc-indexed
// convergecast steps and silent barriers must all run at zero engine
// allocations per round.
func TestAllocGuardPackingTraffic(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	if per := perRoundAllocs(t, gen.Grid(12, 12), congest.Options{Seed: 3}, packingTrafficProc); per > 0.02 {
		t.Errorf("packing-traffic steady state allocates %.3f allocs/round, want 0", per)
	}
}

// radioBroadcastProc saturates the radio channel: every node transmits every
// round and polls the receiver — maximum traffic through the tx arenas.
func radioBroadcastProc(rounds int) congest.Proc {
	return func(ctx *congest.Ctx) error {
		for r := 0; r < rounds; r++ {
			ctx.Transmit(pulse{})
			ctx.Step()
			ctx.RadioRecv()
		}
		return nil
	}
}

// TestAllocGuardRadio pins the radio model's steady state: Transmit is one
// arena store and RadioRecv a scan, so a saturated radio round must allocate
// nothing — and, since the tx arenas are pooled with the run state, neither
// may repeated radio runs beyond the first.
func TestAllocGuardRadio(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	opts := congest.Options{Seed: 3, Model: congest.ModelRadio}
	if per := perRoundAllocs(t, gen.Grid(16, 16), opts, radioBroadcastProc); per > 0.02 {
		t.Errorf("radio broadcast steady state allocates %.3f allocs/round, want 0", per)
	}
}

// TestAllocGuardCrashStop pins that crashes cost only their events, not the
// steady state: a plan whose crashes all fall inside a fixed prefix window,
// identical at both run lengths, must keep the per-round delta at zero.
func TestAllocGuardCrashStop(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	g := gen.Grid(16, 16)
	opts := congest.Options{Seed: 3, Faults: &congest.FaultPlan{
		Crashes: congest.RandomCrashes(g.NumNodes(), 0.1, 8, 0, 5),
		Seed:    9,
	}}
	if per := perRoundAllocs(t, g, opts, engbench.BroadcastProc); per > 0.02 {
		t.Errorf("crash-stop steady state allocates %.3f allocs/round, want 0", per)
	}
}

// TestAllocGuardTokenRing is the sparse-traffic guard: a single circulating
// token must not make idle mailboxes allocate (the pre-rewrite engine's
// per-round inbox sweep allocated regardless of traffic).
func TestAllocGuardTokenRing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	const n = 64
	g := gen.Ring(n)
	if per := perRoundAllocs(t, g, congest.Options{Seed: 3}, func(rounds int) congest.Proc { return engbench.TokenRingProc(n, rounds) }); per > 0.02 {
		t.Errorf("token ring steady state allocates %.3f allocs/round, want 0", per)
	}
}

// sleepyConvergecastProc repeats an aggregate-shaped wait on a path
// 0-1-…-(n-1) rooted at 0: in each (n+1)-round period node v sleeps in
// StepUntil until its report round n-1-v, when its child's report arrives,
// reports to its parent and idles to the period's end. Most node-rounds are
// spent asleep; the run lasts exactly `rounds` rounds.
func sleepyConvergecastProc(rounds int) congest.Proc {
	return func(ctx *congest.Ctx) error {
		id, n := ctx.ID(), ctx.N()
		parent := ctx.ArcIndex(id - 1)
		for ctx.Round()+n+1 <= rounds {
			start := ctx.Round()
			if report := start + n - 1 - id; report > ctx.Round() {
				ctx.StepUntil(report)
			}
			if parent >= 0 {
				ctx.SendArc(parent, pulse{})
			}
			ctx.Idle(start + n + 1 - ctx.Round())
		}
		ctx.Idle(rounds - ctx.Round())
		return nil
	}
}

// TestAllocGuardSleep is the sleeping-barrier guard: nodes filed in the wake
// heap, woken by mail marks and by their wake round, must not allocate per
// round, at one shard and at four. On the 32-node path the four shards are
// consecutive stretches, so the convergecast's reports cross shard
// boundaries and relayed mail wakes sleepers in another shard.
func TestAllocGuardSleep(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	for _, shards := range []int{1, 4} {
		opts := congest.Options{Seed: 3, Shards: shards}
		if per := perRoundAllocs(t, gen.Path(32), opts, sleepyConvergecastProc); per > 0.02 {
			t.Errorf("sleeping steady state (shards=%d) allocates %.3f allocs/round, want 0", shards, per)
		}
	}
}

// mailWakeRingProc passes one token around a ring for `rounds` rounds. A
// node waits for it in StepUntil with the run's last round as the bound, so
// in every round one node is woken by mail alone, reads its inbox and passes
// the token on, and every other node sleeps.
func mailWakeRingProc(rounds int) congest.Proc {
	return func(ctx *congest.Ctx) error {
		next := ctx.ArcIndex((ctx.ID() + 1) % ctx.N())
		if ctx.ID() == 0 {
			ctx.SendArc(next, pulse{})
		}
		for {
			in := ctx.StepUntil(rounds)
			if ctx.Round() >= rounds {
				return nil
			}
			if len(in) != 1 {
				return fmt.Errorf("node %d woke in round %d with %d messages, want the token", ctx.ID(), ctx.Round(), len(in))
			}
			ctx.SendArc(next, in[0].Payload)
		}
	}
}

// TestAllocGuardMailWake is the guard for a StepUntil loop woken by mail:
// marking the sleeping receiver, waking it, filing the sender as a sleeper
// and materializing the woken node's inbox must not allocate per round, at
// one shard and at four, where the token crosses shard boundaries.
func TestAllocGuardMailWake(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	for _, shards := range []int{1, 4} {
		opts := congest.Options{Seed: 3, Shards: shards}
		if per := perRoundAllocs(t, gen.Ring(64), opts, mailWakeRingProc); per > 0.02 {
			t.Errorf("mail-wake steady state (shards=%d) allocates %.3f allocs/round, want 0", shards, per)
		}
	}
}

// TestAllocGuardPerRun bounds what one run costs to set up once its state
// is pooled: each node's coroutine (iter.Pull's state, about a dozen small
// objects) plus a fixed term of 16 and 4 per driver past the first (each is
// a goroutine). It checks one shard and four. The
// per-round guards above cancel this cost out; this one pins it.
func TestAllocGuardPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	const perNode, fixed, perShard = 12, 16, 4
	g := gen.Grid(16, 16)
	n := g.NumNodes()
	proc := engbench.BroadcastProc(1)
	for _, shards := range []int{1, 4} {
		run := func() {
			if _, err := congest.Run(g, proc, congest.Options{Seed: 3, Shards: shards}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		limit := perNode*n + fixed + perShard*(shards-1)
		if got := testing.AllocsPerRun(20, run); got > float64(limit) {
			t.Errorf("one %d-node run at %d shards allocates %.0f times, want at most %d per node + %d + %d per extra shard = %d",
				n, shards, got, perNode, fixed, perShard, limit)
		}
	}
}
