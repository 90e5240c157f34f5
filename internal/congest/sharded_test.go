package congest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

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
// on every graph and seed, every shard count must produce per-node outputs
// and Stats byte-identical to one shard — shards change wall-clock, never
// results.
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
			refStats, err := Run(g, shardedDiffProc(ref), Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d eventloop: %v", name, seed, err)
			}
			for _, shards := range []int{2, 3, 4, 8, 64} {
				out := make([]int, g.NumNodes())
				stats, err := Run(g, shardedDiffProc(out), Options{Seed: seed, Shards: shards})
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

// TestShardedFaultDifferential runs the full fault stack — crashes, message
// loss, the rotating adversary — and requires several shard counts to agree
// exactly with one shard. Dropped cross-shard messages are never relayed and
// dropped local ones are stamped with a nil payload, so this pins both
// paths.
func TestShardedFaultDifferential(t *testing.T) {
	g := gen.Grid(8, 8)
	n := g.NumNodes()
	plan := &FaultPlan{
		Crashes: append(RandomCrashes(n, 0.15, 12, 11, 21),
			RandomCrashes(n, 0.1, 3, 2, 4)...),
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
			out[ctx.ID()] = acc
			return nil
		}
	}
	ref := make([]int, n)
	refStats, err := Run(g, proc(ref), Options{Seed: 7, Faults: plan})
	if err != nil {
		t.Fatalf("eventloop: %v", err)
	}
	for _, shards := range []int{3, 8} {
		out := make([]int, n)
		stats, err := Run(g, proc(out), Options{Seed: 7, Faults: plan, Shards: shards})
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
			_, err := Run(gen.Path(2), tc.proc, tc.opts)
			if !errors.Is(err, ErrModelViolation) {
				t.Fatalf("err = %v, want ErrModelViolation", err)
			}
		})
	}
}

// TestShardedNegativeShardsRejected pins the Options.Shards contract: a
// negative count is an error from Run before any node starts.
func TestShardedNegativeShardsRejected(t *testing.T) {
	started := false
	_, err := Run(gen.Path(3), func(ctx *Ctx) error {
		started = true
		return nil
	}, Options{Shards: -2})
	if err == nil {
		t.Fatal("Shards: -2 accepted")
	}
	if started {
		t.Fatal("Shards: -2 started a node")
	}
}

// TestRunHonoursShards pins Options.Shards as the one per-run selector: a
// Proc sees the shard count its options name, or, when they name none, the
// SetDefaultShards count, itself one unless set; the count is clamped to the
// node count.
func TestRunHonoursShards(t *testing.T) {
	g := gen.Grid(4, 4)
	cases := []struct {
		name     string
		opts     Options
		defaults int
		want     int
	}{
		{"options", Options{Shards: 3}, 0, 3},
		{"options-over-default", Options{Shards: 1}, 2, 1},
		{"default-unset", Options{}, 0, 1},
		{"default-set", Options{}, 2, 2},
		{"clamped", Options{Shards: 64}, 0, g.NumNodes()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev := SetDefaultShards(tc.defaults)
			defer SetDefaultShards(prev)
			got := 0
			if _, err := Run(g, func(ctx *Ctx) error {
				if ctx.ID() == 0 { // on shard 0, driven by this goroutine
					got = len(ctx.run.shards)
				}
				return nil
			}, tc.opts); err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("a Proc saw %d shards, want %d", got, tc.want)
			}
		})
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
	stats, err := Run(g, func(ctx *Ctx) error {
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
			_, err := Run(gen.Ring(12), tc.proc, tc.opts)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestShardedCrashNoGoroutineLeak aborts a run after nodes of every shard
// have crashed while the other nodes are still stepping: the unwind must
// reach every node.
func TestShardedCrashNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	g := gen.Grid(6, 6)
	plan := &FaultPlan{Crashes: append(
		RandomCrashes(g.NumNodes(), 0.2, 8, 3, 13),
		Crash{Node: 17, Round: 2},
	), Seed: 4}
	_, err := Run(g, func(ctx *Ctx) error {
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
	if _, err := Run(heavy, floodProc(0, heavy.Diameter()+1, dist), Options{Shards: 5}); err != nil {
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
		stats, err := Run(tc.g, func(ctx *Ctx) error {
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

// TestShardedRadioDifferential pins the radio model at several shard counts
// against one shard: transmissions, collisions and fading links
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
	refStats, err := Run(g, proc(ref), Options{Seed: 11, Model: ModelRadio, Faults: plan})
	if err != nil {
		t.Fatalf("eventloop: %v", err)
	}
	for _, shards := range []int{3, 6} {
		out := make([]int, g.NumNodes())
		stats, err := Run(g, proc(out), Options{Seed: 11, Model: ModelRadio, Faults: plan, Shards: shards})
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

// TestSetDefaultShards pins the process-default plumbing runs use when
// Options.Shards is 0: k <= 0 restores one shard.
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
	SetDefaultShards(-4)
	defer SetDefaultShards(prev)
	if got := DefaultShards(); got != 1 {
		t.Fatalf("DefaultShards() = %d after SetDefaultShards(-4), want 1", got)
	}
}
