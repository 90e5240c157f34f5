package reliable_test

import (
	"errors"
	"fmt"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
	"lcshortcut/internal/elect"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/reliable"
	"lcshortcut/internal/scenario"
)

// floodOver runs the flood-max election over the reliable transport.
func floodOver(g *graph.Graph, rounds int, cfg reliable.Config, opts congest.Options) ([]elect.Outcome, congest.Stats, reliable.Stats, error) {
	out := make([]elect.Outcome, g.NumNodes())
	cs, rs, err := reliable.Run(g, func(ctx *reliable.Ctx) error {
		return elect.FloodNet(ctx, rounds, out)
	}, cfg, opts)
	return out, cs, rs, err
}

// floodRaw runs the same election directly on the engine.
func floodRaw(g *graph.Graph, rounds int, opts congest.Options) ([]elect.Outcome, error) {
	out := make([]elect.Outcome, g.NumNodes())
	_, err := congest.Run(g, elect.Flood(rounds, out), opts)
	return out, err
}

// TestReliableFaultFreeExactCost pins the transport's fault-free fast path:
// every logical round costs exactly two physical rounds (one data frame and
// one pure-ACK frame per arc direction), the FIN drain costs one more, and
// nothing is ever retransmitted — so the initial resend delay provably never
// fires spuriously.
func TestReliableFaultFreeExactCost(t *testing.T) {
	g := gen.Grid(5, 5)
	const rounds = 12
	out, cs, rs, err := floodOver(g, rounds, reliable.Config{}, congest.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rs.LogicalRounds != rounds {
		t.Errorf("LogicalRounds = %d, want %d", rs.LogicalRounds, rounds)
	}
	if want := 2*rounds + 1; rs.PhysicalRounds != want {
		t.Errorf("PhysicalRounds = %d, want %d (2 per logical round + 1 drain)", rs.PhysicalRounds, want)
	}
	if int(cs.Rounds) != rs.PhysicalRounds {
		t.Errorf("engine rounds %d != transport physical rounds %d", cs.Rounds, rs.PhysicalRounds)
	}
	if rs.Retransmits != 0 || rs.DeadArcs != 0 {
		t.Errorf("fault-free run retransmitted %d frames, killed %d arcs; want 0, 0", rs.Retransmits, rs.DeadArcs)
	}
	arcDirs := int64(2 * g.NumEdges())
	if want := arcDirs * rounds; rs.DataFrames != want {
		t.Errorf("DataFrames = %d, want %d (one per arc direction per round)", rs.DataFrames, want)
	}
	// One pure ACK per arc direction per round, plus one FIN per direction.
	if want := arcDirs*rounds + arcDirs; rs.AckFrames != want {
		t.Errorf("AckFrames = %d, want %d", rs.AckFrames, want)
	}
	// And the protocol outcome matches the raw fault-free run bit for bit.
	ref, err := floodRaw(g, rounds, congest.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != fmt.Sprint(ref) {
		t.Error("fault-free reliable outcome differs from raw engine outcome")
	}
}

// TestReliableLossyOutcomeIdentity is the wrapper's headline contract: a
// protocol over the reliable transport on a LOSSY network produces the exact
// outcome of the fault-free raw run — loss costs physical rounds, never
// correctness, and the transport consumes none of the protocol's randomness.
func TestReliableLossyOutcomeIdentity(t *testing.T) {
	graphs := []*graph.Graph{gen.Path(7), gen.Ring(12), gen.Grid(5, 6), gen.ErdosRenyi(30, 0.15, 2)}
	for gi, g := range graphs {
		ref, err := floodRaw(g, 15, congest.Options{Seed: int64(gi)})
		if err != nil {
			t.Fatal(err)
		}
		for _, drop := range []float64{0.1, 0.3, 0.5} {
			opts := congest.Options{Seed: int64(gi), Faults: &congest.FaultPlan{DropProb: drop, Seed: 77}}
			out, _, rs, err := floodOver(g, 15, reliable.Config{}, opts)
			if err != nil {
				t.Fatalf("graph %d drop %.1f: %v", gi, drop, err)
			}
			if fmt.Sprint(out) != fmt.Sprint(ref) {
				t.Errorf("graph %d drop %.1f: outcome diverged from fault-free raw run", gi, drop)
			}
			if rs.Retransmits == 0 {
				t.Errorf("graph %d drop %.1f: no retransmissions recorded — the loss was not real", gi, drop)
			}
			if rs.DeadArcs != 0 {
				t.Errorf("graph %d drop %.1f: %d arcs died under pure loss (budget too small)", gi, drop, rs.DeadArcs)
			}
		}
	}
}

// TestReliableCoverageAllFamilies is the ISSUE's acceptance criterion:
// reliable broadcast reaches 100% of nodes at DropProb=0.5 on every
// registered scenario family, with the retransmission count in Stats.
func TestReliableCoverageAllFamilies(t *testing.T) {
	for _, s := range scenario.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			g := s.Build(s.Sizes[0], 1)
			rounds := 2*g.ApproxDiameter(0) + 4
			informed := make([]bool, g.NumNodes())
			_, rs, err := reliable.Run(g, func(ctx *reliable.Ctx) error {
				have := ctx.ID() == 0
				for r := 0; r < rounds; r++ {
					if have {
						ctx.SendAll(pulse{})
					}
					if len(ctx.StepRound()) > 0 {
						have = true
					}
				}
				informed[ctx.ID()] = have
				return nil
			}, reliable.Config{}, congest.Options{Seed: 5, Faults: &congest.FaultPlan{DropProb: 0.5, Seed: 9}})
			if err != nil {
				t.Fatal(err)
			}
			for v, ok := range informed {
				if !ok {
					t.Fatalf("node %d uninformed at drop=0.5 (coverage < 100%%)", v)
				}
			}
			if rs.Retransmits == 0 {
				t.Error("drop=0.5 run recorded zero retransmissions")
			}
		})
	}
}

// TestReliableCrossEngineIdentity requires the transport's behavior — the
// protocol outcome, the transport counters and the engine stats — to be
// identical at one shard and at three under loss and crash-stop failures.
func TestReliableCrossEngineIdentity(t *testing.T) {
	g := gen.Grid(6, 6)
	plans := []*congest.FaultPlan{
		{DropProb: 0.3, Seed: 4},
		{Crashes: []congest.Crash{{Node: 7, Round: 3}, {Node: 20, Round: 5}}, DropProb: 0.2, Seed: 6},
	}
	cfg := reliable.Config{RetryBudget: 10, BackoffCap: 4, DrainRounds: 32}
	for pi, plan := range plans {
		var refOut []elect.Outcome
		var refCS congest.Stats
		var refRS reliable.Stats
		for ei, sh := range congesttest.Shardings {
			out, cs, rs, err := floodOver(g, 12, cfg, congest.Options{Seed: 2, Faults: plan, Shards: sh.Shards})
			if err != nil {
				t.Fatalf("plan %d %s: %v", pi, sh.Name, err)
			}
			if ei == 0 {
				refOut, refCS, refRS = out, cs, rs
				continue
			}
			if fmt.Sprint(out) != fmt.Sprint(refOut) {
				t.Errorf("plan %d: outcomes diverged across shard counts", pi)
			}
			if cs != refCS {
				t.Errorf("plan %d: engine stats %+v vs %+v", pi, cs, refCS)
			}
			if rs != refRS {
				t.Errorf("plan %d: transport stats %+v vs %+v", pi, rs, refRS)
			}
		}
	}
}

// TestReliableCrashStopDeadArcs pins the failure detector: arcs to a
// crash-stopped node exhaust their retry budget, are declared dead
// (deterministically, and counted in Stats), and the survivors then finish
// their logical rounds without them.
func TestReliableCrashStopDeadArcs(t *testing.T) {
	g := gen.Path(3)
	plan := &congest.FaultPlan{Crashes: []congest.Crash{{Node: 1, Round: 2}}}
	cfg := reliable.Config{RetryBudget: 6, BackoffCap: 2, DrainRounds: 16}
	out, _, rs, err := floodOver(g, 8, cfg, congest.Options{Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if rs.DeadArcs < 2 {
		t.Errorf("DeadArcs = %d, want ≥ 2 (both survivor arcs into the crashed node)", rs.DeadArcs)
	}
	// The survivors completed all 8 logical rounds and report a leader.
	for _, v := range []int{0, 2} {
		if out[v].Leader < 0 {
			t.Errorf("survivor %d reported no leader", v)
		}
	}
}

// TestReliableModelViolations checks that the wrapper enforces the Net
// contract like the raw engine does: double sends, non-neighbor sends and
// bad arc indices surface as ErrModelViolation run errors.
func TestReliableModelViolations(t *testing.T) {
	g := gen.Path(3)
	cases := []struct {
		name string
		proc reliable.Proc
	}{
		{"double-send", func(ctx *reliable.Ctx) error {
			if ctx.ID() == 0 {
				ctx.SendArc(0, pulse{})
				ctx.SendArc(0, pulse{})
			}
			ctx.Step()
			return nil
		}},
		{"non-neighbor", func(ctx *reliable.Ctx) error {
			if ctx.ID() == 0 {
				ctx.Send(2, pulse{})
			}
			ctx.Step()
			return nil
		}},
		{"bad-arc-index", func(ctx *reliable.Ctx) error {
			ctx.SendArc(5, pulse{})
			return nil
		}},
		{"bad-inbox-index", func(ctx *reliable.Ctx) error {
			ctx.Step()
			ctx.InboxArc(-1)
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := reliable.Run(g, tc.proc, reliable.Config{}, congest.Options{})
			if !errors.Is(err, congest.ErrModelViolation) {
				t.Fatalf("err = %v, want ErrModelViolation", err)
			}
		})
	}
}

// pulse is a zero-size payload so alloc measurements see only the transport.
type pulse struct{}

func (pulse) Bits() int { return 2 }

// TestAllocGuardReliable pins the wrapper's steady state at zero allocations
// per logical round on the fault-free path: frames rotate through
// preallocated buffers, the inbox slice is reused, and the engine below is
// already guarded at zero.
func TestAllocGuardReliable(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per round; the guard runs in the non-race engine-bench job")
	}
	g := gen.Grid(8, 8)
	run := func(rounds int) {
		_, _, err := reliable.Run(g, func(ctx *reliable.Ctx) error {
			for r := 0; r < rounds; r++ {
				ctx.SendAll(pulse{})
				ctx.StepRound()
			}
			return nil
		}, reliable.Config{}, congest.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
	}
	const r1, r2 = 32, 532
	run(r2)
	run(r1)
	a1 := testing.AllocsPerRun(5, func() { run(r1) })
	a2 := testing.AllocsPerRun(5, func() { run(r2) })
	if per := (a2 - a1) / float64(r2-r1); per > 0.02 {
		t.Errorf("reliable wrapper steady state allocates %.3f allocs/logical round, want 0", per)
	}
}

// FuzzReliableTransport drives random (family, drop, seed) triples through
// the flood election over the transport and checks the two invariants the
// transport promises: outcome and stats identity across shard counts, and — since pure
// loss never kills arcs — exact agreement with the fault-free raw outcome.
func FuzzReliableTransport(f *testing.F) {
	f.Add(uint8(0), uint8(3), int64(1))
	f.Add(uint8(5), uint8(5), int64(99))
	f.Add(uint8(12), uint8(0), int64(-7))
	f.Fuzz(func(t *testing.T, famIdx, dropBits uint8, seed int64) {
		fams := scenario.All()
		s := fams[int(famIdx)%len(fams)]
		g := s.Build(24, 2)
		drop := float64(dropBits%7) / 10 // 0.0 .. 0.6
		rounds := 2*g.ApproxDiameter(0) + 4
		ref, err := floodRaw(g, rounds, congest.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var plan *congest.FaultPlan
		if drop > 0 {
			plan = &congest.FaultPlan{DropProb: drop, Seed: seed ^ 0x5eed}
		}
		var refOut []elect.Outcome
		var refRS reliable.Stats
		for ei, sh := range congesttest.Shardings {
			out, _, rs, err := floodOver(g, rounds, reliable.Config{}, congest.Options{Seed: seed, Faults: plan, Shards: sh.Shards})
			if err != nil {
				t.Fatal(err)
			}
			if rs.DeadArcs != 0 {
				t.Fatalf("pure loss at %.1f killed %d arcs", drop, rs.DeadArcs)
			}
			if fmt.Sprint(out) != fmt.Sprint(ref) {
				t.Fatalf("%s: outcome over reliable+loss diverged from fault-free raw outcome", sh.Name)
			}
			if ei == 0 {
				refOut, refRS = out, rs
				continue
			}
			if fmt.Sprint(out) != fmt.Sprint(refOut) || rs != refRS {
				t.Fatalf("divergence across shard counts: stats %+v vs %+v", rs, refRS)
			}
		}
	})
}
