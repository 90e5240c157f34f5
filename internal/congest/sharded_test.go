package congest

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// TestMain installs a default shard count of 3 for the whole test binary:
// every table-driven run of EngineSharded (the shared `engines` table, the
// fault/radio/recovery differentials) then cuts its graph into three shards,
// so cross-shard relays, the sender-side double-send stamps and the round
// barrier between three drivers are exercised even on single-core CI boxes
// where the GOMAXPROCS default would collapse to one shard.
func TestMain(m *testing.M) {
	SetDefaultShards(3)
	os.Exit(m.Run())
}

// shardedDiffProc is a messy randomized protocol — uneven lifetimes, mixed
// SendArc/SendAll, random payload sizes — whose per-node outputs are highly
// sensitive to delivery content and order.
func shardedDiffProc(out []int) Proc {
	return func(ctx *Ctx) error {
		acc := ctx.ID() * 7
		lifetime := 1 + ctx.Rand().Intn(14)
		for r := 0; r < lifetime; r++ {
			switch ctx.Rand().Intn(3) {
			case 0:
				ctx.SendAll(intMsg{v: acc, bits: 4 + ctx.Rand().Intn(12)})
			case 1:
				for k, a := range ctx.Neighbors() {
					if ctx.Rand().Intn(2) == 0 {
						ctx.SendArc(k, intMsg{v: acc ^ a.To, bits: 8})
					}
				}
			}
			for _, m := range ctx.StepRound() {
				acc = acc*31 + m.Payload.(intMsg).v*(m.From+1)
			}
		}
		out[ctx.ID()] = acc
		return nil
	}
}

// TestShardedByteIdenticalAcrossShardCounts is the engine's core contract:
// on every graph and seed, the sharded engine must produce per-node outputs
// and Stats byte-identical to the event-loop engine at every shard count —
// shards change wall-clock, never results.
func TestShardedByteIdenticalAcrossShardCounts(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":  gen.Path(9),
		"ring":  gen.Ring(16),
		"grid":  gen.Grid(6, 7),
		"star":  gen.Star(11), // all arcs on vertex 0: maximally skewed cut
		"er":    gen.ErdosRenyi(48, 0.12, 3),
		"ba":    gen.BarabasiAlbert(60, 3, 5),
		"pair":  gen.Path(2),
		"singl": gen.Path(1),
	}
	for name, g := range graphs {
		for _, seed := range []int64{1, 42} {
			ref := make([]int, g.NumNodes())
			refStats, err := RunOn(EngineEventLoop, g, shardedDiffProc(ref), Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d eventloop: %v", name, seed, err)
			}
			for _, shards := range []int{1, 2, 3, 4, 8, 64} {
				out := make([]int, g.NumNodes())
				stats, err := RunOn(EngineSharded, g, shardedDiffProc(out), Options{Seed: seed, Shards: shards})
				if err != nil {
					t.Fatalf("%s seed %d shards %d: %v", name, seed, shards, err)
				}
				for v := range out {
					if out[v] != ref[v] {
						t.Fatalf("%s seed %d shards %d node %d: %d, eventloop %d", name, seed, shards, v, out[v], ref[v])
					}
				}
				if stats != refStats {
					t.Fatalf("%s seed %d shards %d: stats %+v, eventloop %+v", name, seed, shards, stats, refStats)
				}
			}
		}
	}
}

// TestShardedFaultDifferential runs the full fault stack — crash-stop,
// crash-recovery, message loss, the rotating adversary — and requires the
// sharded engine to agree exactly with the event-loop engine at several
// shard counts. Dropped cross-shard messages are never relayed and dropped
// local ones are stamped with a nil payload, so this pins both paths.
func TestShardedFaultDifferential(t *testing.T) {
	g := gen.Grid(8, 8)
	n := g.NumNodes()
	plan := &FaultPlan{
		Crashes: append(RandomCrashes(n, 0.15, 12, 11, 21),
			RandomRecoveries(n, 0.1, 3, 9, 2, 4)...),
		DropProb:  0.25,
		Adversary: AdversaryRotate,
		Seed:      99,
	}
	proc := func(out []int) Proc {
		return func(ctx *Ctx) error {
			acc := 0
			for r := 0; r < 10; r++ {
				ctx.SendAll(intMsg{v: acc ^ ctx.ID(), bits: 8})
				for _, m := range ctx.StepRound() {
					acc = acc*31 + m.Payload.(intMsg).v*(m.From+1)
				}
			}
			out[ctx.ID()] += acc << uint(ctx.Incarnation())
			return nil
		}
	}
	ref := make([]int, n)
	refStats, err := RunOn(EngineEventLoop, g, proc(ref), Options{Seed: 7, Faults: plan})
	if err != nil {
		t.Fatalf("eventloop: %v", err)
	}
	for _, shards := range []int{1, 3, 8} {
		out := make([]int, n)
		stats, err := RunOn(EngineSharded, g, proc(out), Options{Seed: 7, Faults: plan, Shards: shards})
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		for v := range out {
			if out[v] != ref[v] {
				t.Fatalf("shards %d node %d: %d, eventloop %d", shards, v, out[v], ref[v])
			}
		}
		if stats != refStats {
			t.Fatalf("shards %d: stats %+v, eventloop %+v", shards, stats, refStats)
		}
	}
}

// TestShardedCrossShardViolations pins model-violation detection across a
// shard boundary, where the receiver slot is not inspectable and double
// sends are caught by the sender-side stamp: a straight double send, a
// SendAll after a SendArc, and — the subtle one — a resend whose first copy
// the lossy network dropped (the drop must not erase the violation).
func TestShardedCrossShardViolations(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		proc Proc
	}{
		{"double-send-arc", Options{Shards: 2}, func(ctx *Ctx) error {
			if ctx.ID() == 0 {
				ctx.SendArc(0, intMsg{bits: 1})
				ctx.SendArc(0, intMsg{bits: 1})
			}
			ctx.StepRound()
			return nil
		}},
		{"sendall-after-sendarc", Options{Shards: 2}, func(ctx *Ctx) error {
			if ctx.ID() == 0 {
				ctx.SendArc(0, intMsg{bits: 1})
				ctx.SendAll(intMsg{bits: 1})
			}
			ctx.StepRound()
			return nil
		}},
		{"double-send-after-drop", Options{Shards: 2, Faults: &FaultPlan{DropProb: 1, Seed: 5}}, func(ctx *Ctx) error {
			if ctx.ID() == 0 {
				ctx.SendArc(0, intMsg{bits: 1})
				ctx.SendArc(0, intMsg{bits: 1})
			}
			ctx.StepRound()
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Path(2) at two shards puts the endpoints in different shards,
			// so every send crosses the boundary.
			_, err := RunOn(EngineSharded, gen.Path(2), tc.proc, tc.opts)
			if !errors.Is(err, ErrModelViolation) {
				t.Fatalf("err = %v, want ErrModelViolation", err)
			}
		})
	}
}

// TestShardedNegativeShardsRejected pins the Options.Shards contract.
func TestShardedNegativeShardsRejected(t *testing.T) {
	_, err := RunOn(EngineSharded, gen.Path(3), func(ctx *Ctx) error { return nil }, Options{Shards: -2})
	if err == nil {
		t.Fatal("Shards: -2 accepted")
	}
}

// TestShardedRetiredShardTraffic keeps sending into a shard whose nodes all
// finished rounds earlier: its driver keeps meeting the barrier and draining
// its rings until the run ends, so the traffic neither wedges nor corrupts
// the run.
func TestShardedRetiredShardTraffic(t *testing.T) {
	// Ring(9) at 3 shards cuts [0,3) [3,6) [6,9); nodes 0-2 exit after one
	// round, then both their ring neighbors (8 and 3, in other shards) keep
	// flooding for many more rounds.
	g := gen.Ring(9)
	stats, err := RunOn(EngineSharded, g, func(ctx *Ctx) error {
		if ctx.ID() < 3 {
			ctx.StepRound()
			return nil
		}
		for r := 0; r < 12; r++ {
			ctx.SendAll(intMsg{v: r, bits: 8})
			ctx.StepRound()
		}
		return nil
	}, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 12 {
		t.Fatalf("rounds = %d, want 12", stats.Rounds)
	}
}

// TestShardedAbortNoGoroutineLeak checks that watchdog, proc-error and
// violation aborts unwind every node coroutine and end every driver, with
// three drivers meeting at the round barrier.
func TestShardedAbortNoGoroutineLeak(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		opts    Options
		proc    Proc
		wantErr error
	}{
		{"watchdog", Options{MaxRounds: 25, Shards: 3}, func(ctx *Ctx) error {
			for {
				ctx.SendAll(intMsg{bits: 4})
				ctx.StepRound()
			}
		}, ErrMaxRounds},
		{"proc-error", Options{Shards: 3}, func(ctx *Ctx) error {
			if ctx.ID() == 5 {
				ctx.StepRound()
				return boom
			}
			for {
				ctx.StepRound()
			}
		}, boom},
		{"violation", Options{Shards: 3}, func(ctx *Ctx) error {
			for {
				if ctx.ID() == 5 && ctx.Round() == 2 {
					ctx.SendArc(0, intMsg{bits: 1})
					ctx.SendArc(0, intMsg{bits: 1})
				}
				ctx.StepRound()
			}
		}, ErrModelViolation},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := RunOn(EngineSharded, gen.Ring(12), tc.proc, tc.opts)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestShardedCrashNoGoroutineLeak aborts a run while crashed nodes are inside
// their downtime windows and other shards are still stepping: the unwind must
// reach every node, including crashed ones asleep through their downtime.
func TestShardedCrashNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	g := gen.Grid(6, 6)
	plan := &FaultPlan{Crashes: append(
		RandomCrashes(g.NumNodes(), 0.2, 8, 3, 13),
		Crash{Node: 17, Round: 2, Downtime: 1 << 30}, // down essentially forever
	), Seed: 4}
	_, err := RunOn(EngineSharded, g, func(ctx *Ctx) error {
		for {
			ctx.SendAll(intMsg{bits: 4})
			ctx.StepRound()
		}
	}, Options{MaxRounds: 30, Faults: plan, Shards: 3})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	waitGoroutines(t, base)
}

// TestShardedPoolReuseAcrossShardCounts reruns pooled state at shrinking and
// growing shard counts and graph sizes: no stale stamp, relay entry or stat
// may survive an acquire/release cycle.
func TestShardedPoolReuseAcrossShardCounts(t *testing.T) {
	heavy := gen.Grid(9, 9)
	dist := make([]int, heavy.NumNodes())
	if _, err := RunOn(EngineSharded, heavy, floodProc(0, heavy.Diameter()+1, dist), Options{Shards: 5}); err != nil {
		t.Fatal(err)
	}
	for trial, tc := range []struct {
		g      *graph.Graph
		shards int
	}{
		{heavy, 2},
		{gen.Path(5), 7},
		{heavy, 8},
	} {
		stats, err := RunOn(EngineSharded, tc.g, func(ctx *Ctx) error {
			for r := 0; r < 4; r++ {
				if n := len(ctx.StepRound()); n != 0 {
					return fmt.Errorf("node %d round %d: %d ghost messages", ctx.ID(), r, n)
				}
			}
			return nil
		}, Options{Shards: tc.shards})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if stats.Messages != 0 || stats.TotalBits != 0 || stats.MaxMessageBits != 0 {
			t.Fatalf("trial %d: stale stats %+v", trial, stats)
		}
		if stats.Rounds != 4 {
			t.Fatalf("trial %d: rounds = %d, want 4", trial, stats.Rounds)
		}
	}
}

// TestShardedRadioDifferential pins the radio model on the sharded engine
// against the event-loop engine: transmissions, collisions and fading links
// go through the global per-node tx arenas regardless of sharding.
func TestShardedRadioDifferential(t *testing.T) {
	g := gen.Grid(7, 7)
	plan := &FaultPlan{DropProb: 0.2, Seed: 31}
	proc := func(out []int) Proc {
		return func(ctx *Ctx) error {
			acc := 0
			for r := 0; r < 8; r++ {
				if ctx.Rand().Intn(3) == 0 {
					ctx.Transmit(intMsg{v: ctx.ID(), bits: 8})
				}
				ctx.Step()
				p, from, status := ctx.RadioRecv()
				switch status {
				case RadioMessage:
					acc = acc*31 + p.(intMsg).v*(from+2)
				case RadioCollision:
					acc = acc*31 + 1
				}
			}
			out[ctx.ID()] = acc
			return nil
		}
	}
	ref := make([]int, g.NumNodes())
	refStats, err := RunOn(EngineEventLoop, g, proc(ref), Options{Seed: 11, Model: ModelRadio, Faults: plan})
	if err != nil {
		t.Fatalf("eventloop: %v", err)
	}
	for _, shards := range []int{1, 3, 6} {
		out := make([]int, g.NumNodes())
		stats, err := RunOn(EngineSharded, g, proc(out), Options{Seed: 11, Model: ModelRadio, Faults: plan, Shards: shards})
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		for v := range out {
			if out[v] != ref[v] {
				t.Fatalf("shards %d node %d: %d, eventloop %d", shards, v, out[v], ref[v])
			}
		}
		if stats != refStats {
			t.Fatalf("shards %d: stats %+v, eventloop %+v", shards, stats, refStats)
		}
	}
}

// TestSetDefaultShards pins the process-default plumbing Run-path sharded
// runs use when Options.Shards is 0.
func TestSetDefaultShards(t *testing.T) {
	prev := SetDefaultShards(5)
	if got := DefaultShards(); got != 5 {
		t.Fatalf("DefaultShards() = %d, want 5", got)
	}
	if got := SetDefaultShards(prev); got != 5 {
		t.Fatalf("SetDefaultShards returned %d, want 5", got)
	}
	if got := DefaultShards(); got != prev {
		t.Fatalf("DefaultShards() = %d, want restored %d", got, prev)
	}
}
