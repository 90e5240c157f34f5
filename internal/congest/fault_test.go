package congest

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// collectProc has node 0 send its round number to node 1 every round; node 1
// records what arrives per round. The cleanest probe for crash-stop timing.
func collectProc(rounds int, got *[][]int) Proc {
	return func(ctx *Ctx) error {
		for r := 0; r < rounds; r++ {
			if ctx.ID() == 0 {
				ctx.Send(1, intMsg{v: r, bits: 8})
			}
			in := ctx.StepRound()
			if ctx.ID() == 1 {
				var vs []int
				for _, m := range in {
					vs = append(vs, m.Payload.(intMsg).v)
				}
				*got = append(*got, vs)
			}
		}
		return nil
	}
}

// TestFaultCrashStopSemantics pins the crash boundary at one shard and at
// three: a node crashing at round R completes rounds 0..R-1 — its
// round-(R-1) sends are still delivered — and is never heard from again.
func TestFaultCrashStopSemantics(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Path(2)
			var got [][]int
			plan := &FaultPlan{Crashes: []Crash{{Node: 0, Round: 3}}}
			if _, err := runAt(sh.shards, g, collectProc(6, &got), Options{Faults: plan}); err != nil {
				t.Fatal(err)
			}
			want := [][]int{{0}, {1}, {2}, nil, nil, nil}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("received per round: %v, want %v", got, want)
			}
		})
	}
}

// TestFaultCrashRoundZero checks the R=0 ghost round: the node's local code
// runs until the first barrier but every send is suppressed, so the network
// sees a node that was dead from the start.
func TestFaultCrashRoundZero(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Path(2)
			var got [][]int
			plan := &FaultPlan{Crashes: []Crash{{Node: 0, Round: 0}}}
			stats, err := runAt(sh.shards, g, collectProc(4, &got), Options{Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			for r, vs := range got {
				if len(vs) != 0 {
					t.Errorf("round %d: dead-from-start node delivered %v", r, vs)
				}
			}
			if stats.Messages != 0 {
				t.Errorf("stats counted %d messages from a node dead at round 0", stats.Messages)
			}
		})
	}
}

// TestFaultCrashScheduling pins the schedule algebra at one shard and at
// three: a crash round past the run's end — or past the round stamp space —
// is a no-op, and among several entries for one node the earliest crash
// round wins, whatever the entries' order.
func TestFaultCrashScheduling(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name+"/beyond-run-noop", func(t *testing.T) {
			g := gen.Ring(6)
			run := func(plan *FaultPlan) ([]int, Stats) {
				out := make([]int, g.NumNodes())
				stats, err := runAt(sh.shards, g, faultyMessyProc(out), Options{Seed: 5, Faults: plan})
				if err != nil {
					t.Fatal(err)
				}
				return out, stats
			}
			ref, refStats := run(nil)
			for _, round := range []int{500, math.MaxInt} {
				out, stats := run(&FaultPlan{Crashes: []Crash{{Node: 2, Round: round}}})
				if fmt.Sprint(out) != fmt.Sprint(ref) || stats != refStats {
					t.Errorf("crash scheduled at round %d, past the run's end, changed the outcome", round)
				}
			}
		})
		t.Run(sh.name+"/earliest-entry-wins", func(t *testing.T) {
			g := gen.Path(2)
			var got [][]int
			plan := &FaultPlan{Crashes: []Crash{{Node: 0, Round: 5}, {Node: 0, Round: 2}, {Node: 0, Round: 4}}}
			if _, err := runAt(sh.shards, g, collectProc(6, &got), Options{Faults: plan}); err != nil {
				t.Fatal(err)
			}
			want := [][]int{{0}, {1}, nil, nil, nil, nil}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("received per round: %v, want %v (the round-2 entry wins)", got, want)
			}
		})
	}
}

// TestFaultDropAll checks DropProb=1: nothing is ever delivered, but the
// sender is still charged — Stats count messages sent, the model's cost.
func TestFaultDropAll(t *testing.T) {
	const rounds = 5
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Ring(8)
			perNode := make([]int, g.NumNodes()) // one slot per node: procs run concurrently
			plan := &FaultPlan{DropProb: 1}
			stats, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				for r := 0; r < rounds; r++ {
					ctx.SendAll(intMsg{v: r, bits: 8})
					perNode[ctx.ID()] += len(ctx.StepRound())
					for k := range ctx.Neighbors() {
						if _, ok := ctx.InboxArc(k); ok {
							return fmt.Errorf("node %d: InboxArc surfaced a dropped message", ctx.ID())
						}
					}
				}
				return nil
			}, Options{Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			received := 0
			for _, c := range perNode {
				received += c
			}
			if received != 0 {
				t.Errorf("received %d messages under DropProb=1", received)
			}
			want := int64(rounds * 2 * g.NumEdges())
			if stats.Messages != want {
				t.Errorf("stats.Messages = %d, want %d (senders are charged for dropped messages)", stats.Messages, want)
			}
		})
	}
}

// TestFaultDropPartialDeterministic runs a lossy flood twice per shard count
// and across shard counts: the surviving message set must be a strict
// subset, nonempty, and identical everywhere — drops are a pure function of
// the plan.
func TestFaultDropPartialDeterministic(t *testing.T) {
	g := gen.Grid(6, 6)
	const rounds = 4
	run := func(shards int) ([]int, Stats) {
		got := make([]int, g.NumNodes())
		plan := &FaultPlan{DropProb: 0.4, Seed: 99}
		stats, err := runAt(shards, g, func(ctx *Ctx) error {
			acc := 0
			for r := 0; r < rounds; r++ {
				ctx.SendAll(intMsg{v: ctx.ID()*10 + r, bits: 10})
				for _, m := range ctx.StepRound() {
					acc = acc*31 + m.Payload.(intMsg).v*(m.From+1)
				}
			}
			got[ctx.ID()] = acc
			return nil
		}, Options{Seed: 7, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return got, stats
	}
	ref, refStats := run(1)
	for _, sh := range shardings {
		for trial := 0; trial < 2; trial++ {
			got, stats := run(sh.shards)
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("%s trial %d: outcomes diverged", sh.name, trial)
			}
			if stats != refStats {
				t.Fatalf("%s trial %d: stats %+v, want %+v", sh.name, trial, stats, refStats)
			}
		}
	}
	// Sanity: the loss is real but not total.
	all := 0
	for _, v := range ref {
		if v != 0 {
			all++
		}
	}
	if all == 0 {
		t.Error("DropProb=0.4 killed every message (accumulators all zero)")
	}
}

// TestFaultAdversaryRotatePermutes checks the adversary's powers and limits:
// inbox order changes for at least one (node, round), but the multiset of
// messages per round is untouched, and InboxArc is unaffected.
func TestFaultAdversaryRotatePermutes(t *testing.T) {
	g := gen.Star(9)
	const rounds = 3
	type inboxKey struct{ node, round int }
	run := func(plan *FaultPlan) map[inboxKey][]int {
		// Procs run concurrently: collect into per-node slots, then fold
		// into the map after Run returns.
		perNode := make([][rounds][]int, g.NumNodes())
		if _, err := Run(g, func(ctx *Ctx) error {
			for r := 0; r < rounds; r++ {
				ctx.SendAll(intMsg{v: ctx.ID() + 100*r, bits: 10})
				var vs []int
				for _, m := range ctx.StepRound() {
					vs = append(vs, m.Payload.(intMsg).v)
				}
				perNode[ctx.ID()][r] = vs
			}
			return nil
		}, Options{Faults: plan}); err != nil {
			t.Fatal(err)
		}
		got := map[inboxKey][]int{}
		for v := range perNode {
			for r := 0; r < rounds; r++ {
				got[inboxKey{v, r}] = perNode[v][r]
			}
		}
		return got
	}
	plain := run(nil)
	rotated := run(&FaultPlan{Adversary: AdversaryRotate, Seed: 5})
	changed := false
	for k, want := range plain {
		gotVs := rotated[k]
		if len(gotVs) != len(want) {
			t.Fatalf("node %d round %d: adversary changed inbox size %d -> %d", k.node, k.round, len(want), len(gotVs))
		}
		sum, wantSum := 0, 0
		for i := range want {
			sum += gotVs[i]
			wantSum += want[i]
			if gotVs[i] != want[i] {
				changed = true
			}
		}
		if sum != wantSum {
			t.Fatalf("node %d round %d: adversary altered message contents: %v vs %v", k.node, k.round, gotVs, want)
		}
	}
	if !changed {
		t.Error("AdversaryRotate never reordered any inbox (hub has 8 senders; rotation should hit)")
	}
}

// TestFaultEmptyPlanNoOp pins the contract that an empty (but non-nil) plan
// is byte-identical to no plan at all, with the disabled fault branches still
// compiled in and exercised.
func TestFaultEmptyPlanNoOp(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.ErdosRenyi(30, 0.15, 2)
			run := func(plan *FaultPlan) ([]int, Stats) {
				out := make([]int, g.NumNodes())
				stats, err := runAt(sh.shards, g, func(ctx *Ctx) error {
					acc := 0
					for r := 0; r < 5; r++ {
						for k := range ctx.Neighbors() {
							if ctx.Rand().Intn(2) == 0 {
								ctx.SendArc(k, intMsg{v: acc ^ r, bits: 6})
							}
						}
						for _, m := range ctx.StepRound() {
							acc = acc*31 + m.Payload.(intMsg).v*(m.From+1)
						}
					}
					out[ctx.ID()] = acc
					return nil
				}, Options{Seed: 11, Faults: plan})
				if err != nil {
					t.Fatal(err)
				}
				return out, stats
			}
			refOut, refStats := run(nil)
			out, stats := run(&FaultPlan{})
			if fmt.Sprint(out) != fmt.Sprint(refOut) || stats != refStats {
				t.Errorf("empty plan diverged from nil plan: stats %+v vs %+v", stats, refStats)
			}
		})
	}
}

// TestFaultPlanValidate checks that malformed plans are rejected before any
// goroutine spawns, at one shard and at three.
func TestFaultPlanValidate(t *testing.T) {
	g := gen.Path(4)
	bad := []struct {
		name string
		plan *FaultPlan
	}{
		{"drop-negative", &FaultPlan{DropProb: -0.1}},
		{"drop-above-one", &FaultPlan{DropProb: 1.5}},
		{"drop-nan", &FaultPlan{DropProb: math.NaN()}},
		{"unknown-adversary", &FaultPlan{Adversary: Adversary(7)}},
		{"crash-node-negative", &FaultPlan{Crashes: []Crash{{Node: -1, Round: 1}}}},
		{"crash-node-out-of-range", &FaultPlan{Crashes: []Crash{{Node: 4, Round: 1}}}},
		{"crash-round-negative", &FaultPlan{Crashes: []Crash{{Node: 0, Round: -2}}}},
	}
	for _, sh := range shardings {
		for _, tc := range bad {
			t.Run(sh.name+"/"+tc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				if _, err := runAt(sh.shards, g, func(ctx *Ctx) error { return nil }, Options{Faults: tc.plan}); err == nil {
					t.Fatal("malformed plan accepted")
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// TestSetDefaultFaults checks the chaos injection point: a process-wide
// default plan applies to runs without an explicit plan and is overridden by
// Options.Faults.
func TestSetDefaultFaults(t *testing.T) {
	g := gen.Path(2)
	prev := SetDefaultFaults(&FaultPlan{DropProb: 1})
	defer SetDefaultFaults(prev)
	countProc := func(got []int) Proc {
		return func(ctx *Ctx) error {
			if ctx.ID() == 0 {
				ctx.Send(1, intMsg{v: 1, bits: 4})
			}
			got[ctx.ID()] = len(ctx.StepRound())
			return nil
		}
	}
	got := make([]int, 2)
	if _, err := Run(g, countProc(got), Options{}); err != nil {
		t.Fatal(err)
	}
	if n := got[0] + got[1]; n != 0 {
		t.Errorf("default lossy plan ignored: %d messages delivered", n)
	}
	got[0], got[1] = 0, 0
	if _, err := Run(g, countProc(got), Options{Faults: &FaultPlan{}}); err != nil {
		t.Fatal(err)
	}
	if n := got[0] + got[1]; n != 1 {
		t.Errorf("explicit empty plan should override the default: got %d deliveries, want 1", n)
	}
}

// TestRandomCrashes checks the seeded schedule builder: pure function of its
// arguments, rounds inside [1, window], the spared node exempt.
func TestRandomCrashes(t *testing.T) {
	const n, window = 200, 5
	a := RandomCrashes(n, 0.3, window, 7, 42)
	b := RandomCrashes(n, 0.3, window, 7, 42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same arguments produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("frac=0.3 over 200 nodes produced no crashes")
	}
	for _, cr := range a {
		if cr.Node == 7 {
			t.Errorf("spared node %d crashed", cr.Node)
		}
		if cr.Round < 1 || cr.Round > window {
			t.Errorf("crash round %d outside [1, %d]", cr.Round, window)
		}
	}
	if diff := RandomCrashes(n, 0.3, window, 7, 43); fmt.Sprint(a) == fmt.Sprint(diff) {
		t.Error("different seeds produced identical schedules")
	}
	if RandomCrashes(n, 0, window, -1, 42) != nil {
		t.Error("frac=0 should produce no schedule")
	}
}

// faultyMessyProc is the differential workhorse: random lifetimes, random
// sparse sends, an order-dependent accumulator (so adversarial reordering is
// observable) and occasional arc-indexed reads (so InboxArc's dropped-slot
// path is exercised).
func faultyMessyProc(out []int) Proc {
	return func(ctx *Ctx) error {
		acc := 0
		lifetime := 1 + ctx.Rand().Intn(10)
		for r := 0; r < lifetime; r++ {
			for k, a := range ctx.Neighbors() {
				if ctx.Rand().Intn(3) == 0 {
					ctx.SendArc(k, intMsg{v: acc ^ a.To ^ r, bits: 4 + ctx.Rand().Intn(10)})
				}
			}
			if r%2 == 0 {
				for _, m := range ctx.StepRound() {
					acc = acc*31 + m.Payload.(intMsg).v*(m.From+1)
				}
			} else {
				ctx.Step()
				for k := range ctx.Neighbors() {
					if p, ok := ctx.InboxArc(k); ok {
						acc = acc*17 + p.(intMsg).v
					}
				}
			}
		}
		out[ctx.ID()] = acc
		return nil
	}
}

// TestFaultCrossEngineDifferential is the faulty-run identity acceptance
// test: for a grid of (graph, plan) pairs spanning crashes, loss and the
// adversary, one shard and three must produce identical per-node outcomes
// and identical Stats.
func TestFaultCrossEngineDifferential(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(9),
		gen.Ring(16),
		gen.Grid(6, 7),
		gen.Star(11),
		gen.ErdosRenyi(40, 0.12, 3),
	}
	plans := []*FaultPlan{
		{Crashes: []Crash{{Node: 1, Round: 2}, {Node: 3, Round: 0}, {Node: 1, Round: 5}}, Seed: 1},
		{DropProb: 0.25, Seed: 2},
		{Adversary: AdversaryRotate, Seed: 3},
		{Crashes: []Crash{{Node: 2, Round: 1}, {Node: 5, Round: 3}}, DropProb: 0.2, Adversary: AdversaryRotate, Seed: 4},
	}
	for gi, g := range graphs {
		for pi, plan := range plans {
			var ref []int
			var refStats Stats
			for _, sh := range shardings {
				out := make([]int, g.NumNodes())
				stats, err := runAt(sh.shards, g, faultyMessyProc(out), Options{Seed: int64(100*gi + pi)})
				_ = stats
				if err != nil {
					t.Fatalf("graph %d plan %d engine %s: %v", gi, pi, sh.name, err)
				}
				// Re-run with the plan (the first run above warms pools
				// fault-free so pooled-arena reuse is also covered).
				out = make([]int, g.NumNodes())
				stats, err = runAt(sh.shards, g, faultyMessyProc(out), Options{Seed: int64(100*gi + pi), Faults: plan})
				if err != nil {
					t.Fatalf("graph %d plan %d engine %s (faulty): %v", gi, pi, sh.name, err)
				}
				if sh.shards == 1 {
					ref, refStats = out, stats
					continue
				}
				for v := range out {
					if out[v] != ref[v] {
						t.Fatalf("graph %d plan %d node %d: %s=%d, eventloop=%d", gi, pi, v, sh.name, out[v], ref[v])
					}
				}
				if stats != refStats {
					t.Fatalf("graph %d plan %d stats differ: %s=%+v, eventloop=%+v", gi, pi, sh.name, stats, refStats)
				}
			}
		}
	}
}

// TestFaultCrashMidProtocolNoGoroutineLeak extends the abort-mid-protocol
// leak pattern to crash-stop: nodes dying mid-run must unwind cleanly at one
// shard and at three, whether the survivors finish normally or the watchdog
// fires because they wait forever for a dead sender.
func TestFaultCrashMidProtocolNoGoroutineLeak(t *testing.T) {
	g := gen.Grid(8, 8)
	plan := &FaultPlan{Crashes: RandomCrashes(g.NumNodes(), 0.4, 8, 0, 17)}
	for _, sh := range shardings {
		t.Run(sh.name+"/survivors-finish", func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				for r := 0; r < 20; r++ {
					ctx.SendAll(intMsg{v: r, bits: 6})
					ctx.StepRound()
				}
				return nil
			}, Options{Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
		})
		t.Run(sh.name+"/survivors-hang", func(t *testing.T) {
			base := runtime.NumGoroutine()
			// Every node waits for a round-r message from its arc-0 neighbor
			// before advancing past r; crashed senders starve the survivors
			// and the watchdog must fire.
			_, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				for {
					ctx.SendAll(intMsg{v: ctx.Round(), bits: 8})
					ctx.Step()
					if _, ok := ctx.InboxArc(0); !ok {
						// Dead neighbor: spin forever (the realistic failure
						// mode of a protocol with no failure detector).
						continue
					}
				}
			}, Options{Faults: plan, MaxRounds: 30})
			if !errors.Is(err, ErrMaxRounds) {
				t.Fatalf("err = %v, want ErrMaxRounds", err)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestFaultCrashEveryNode checks the degenerate plan that kills the entire
// network: the run terminates cleanly with no deliveries.
func TestFaultCrashEveryNode(t *testing.T) {
	g := gen.Ring(10)
	crashes := make([]Crash, g.NumNodes())
	for v := range crashes {
		crashes[v] = Crash{Node: v, Round: v % 3}
	}
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			stats, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				for {
					ctx.SendAll(intMsg{bits: 2})
					ctx.StepRound()
				}
			}, Options{Faults: &FaultPlan{Crashes: crashes}, MaxRounds: 50})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Rounds > 3 {
				t.Errorf("all nodes dead by round 2, but run lasted %d rounds", stats.Rounds)
			}
			waitGoroutines(t, base)
		})
	}
}
