package congest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// TestRecoverRejoinTiming pins the crash-recovery window at one shard and at
// three: a node with Crash{Round: R, Downtime: D} completes rounds 0..R-1,
// is silent through rounds R..R+D-1, and rejoins at round R+D running its
// procedure from scratch (zeroed protocol state, Incarnation()==1) — so its
// sends resume surfacing at the neighbor's round R+D.
func TestRecoverRejoinTiming(t *testing.T) {
	const rounds = 10
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Path(2)
			var got [][]int
			var incs []int
			var rejoinRound int
			plan := &FaultPlan{Crashes: []Crash{{Node: 0, Round: 3, Downtime: 4}}}
			proc := func(ctx *Ctx) error {
				if ctx.ID() == 0 {
					incs = append(incs, ctx.Incarnation())
					if ctx.Incarnation() == 1 {
						rejoinRound = ctx.Round()
					}
				}
				for r := 0; r < rounds; r++ {
					if ctx.ID() == 0 {
						ctx.Send(1, intMsg{v: ctx.Round(), bits: 8})
					}
					in := ctx.StepRound()
					if ctx.ID() == 1 {
						var vs []int
						for _, m := range in {
							vs = append(vs, m.Payload.(intMsg).v)
						}
						got = append(got, vs)
					}
				}
				return nil
			}
			if _, err := runAt(sh.shards, g, proc, Options{Faults: plan}); err != nil {
				t.Fatal(err)
			}
			want := [][]int{{0}, {1}, {2}, nil, nil, nil, nil, {7}, {8}, {9}}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("received per round: %v, want %v", got, want)
			}
			if fmt.Sprint(incs) != "[0 1]" {
				t.Errorf("incarnations observed: %v, want [0 1]", incs)
			}
			if rejoinRound != 7 {
				t.Errorf("second incarnation started at round %d, want 7 (crash 3 + downtime 4)", rejoinRound)
			}
		})
	}
}

// TestRecoverInboxAtRejoin pins the state-sync hook's raw material: messages
// sent to a down node in its FINAL down round are delivered at the rejoin
// barrier, so the restarted incarnation can read them via InboxArc before
// its first own barrier — identically at one shard and at three.
func TestRecoverInboxAtRejoin(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Path(2)
			gotV, gotOK := -1, false
			plan := &FaultPlan{Crashes: []Crash{{Node: 0, Round: 3, Downtime: 4}}}
			proc := func(ctx *Ctx) error {
				if ctx.ID() == 0 {
					if ctx.Incarnation() == 1 {
						// Rejoin hook: the last down round's delivery is visible
						// before this incarnation's first barrier.
						if p, ok := ctx.InboxArc(0); ok {
							gotV, gotOK = p.(intMsg).v, true
						}
						return nil
					}
					for {
						ctx.StepRound() // runs until the crash unwinds it
					}
				}
				for r := 0; r < 8; r++ {
					ctx.Send(0, intMsg{v: ctx.Round(), bits: 8})
					ctx.StepRound()
				}
				return nil
			}
			if _, err := runAt(sh.shards, g, proc, Options{Faults: plan}); err != nil {
				t.Fatal(err)
			}
			if !gotOK || gotV != 6 {
				t.Errorf("rejoin inbox = (%d, %v), want the final down round's send (6, true)", gotV, gotOK)
			}
		})
	}
}

// TestRecoverRNGIndependentOfFirstIncarnation pins the reseed contract: the
// restarted incarnation's random stream is a pure function of (seed, node,
// incarnation), NOT of how many draws the first incarnation made before
// dying — two runs whose first incarnations consume different amounts of
// randomness see identical second incarnations.
func TestRecoverRNGIndependentOfFirstIncarnation(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Path(2)
			run := func(draws int) uint64 {
				var second uint64
				plan := &FaultPlan{Crashes: []Crash{{Node: 0, Round: 2, Downtime: 2}}}
				proc := func(ctx *Ctx) error {
					if ctx.ID() == 0 && ctx.Incarnation() == 1 {
						second = ctx.Rand().Uint64()
						return nil
					}
					if ctx.ID() == 0 {
						for i := 0; i < draws; i++ {
							ctx.Rand().Uint64()
						}
					}
					for r := 0; r < 6; r++ {
						ctx.StepRound()
					}
					return nil
				}
				if _, err := runAt(sh.shards, g, proc, Options{Seed: 42, Faults: plan}); err != nil {
					t.Fatal(err)
				}
				return second
			}
			a, b := run(1), run(17)
			if a != b {
				t.Errorf("second incarnation's first draw depends on the first incarnation's draw count: %d vs %d", a, b)
			}
			if a == 0 {
				t.Error("second incarnation never ran")
			}
		})
	}
}

// TestRecoverScheduling pins the schedule algebra: a crash round past the
// run's end is a no-op, and among multiple entries for one node the earliest
// crash round wins — including its Downtime.
func TestRecoverScheduling(t *testing.T) {
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
			out, stats := run(&FaultPlan{Crashes: []Crash{{Node: 2, Round: 500, Downtime: 3}}})
			if fmt.Sprint(out) != fmt.Sprint(ref) || stats != refStats {
				t.Errorf("crash scheduled past the run's end changed the outcome")
			}
		})
		t.Run(sh.name+"/earliest-entry-wins", func(t *testing.T) {
			g := gen.Path(2)
			run := func(plan *FaultPlan) [][]int {
				var got [][]int
				proc := func(ctx *Ctx) error {
					for r := 0; r < 10; r++ {
						if ctx.ID() == 0 {
							ctx.Send(1, intMsg{v: ctx.Round(), bits: 8})
						}
						in := ctx.StepRound()
						if ctx.ID() == 1 {
							var vs []int
							for _, m := range in {
								vs = append(vs, m.Payload.(intMsg).v)
							}
							got = append(got, vs)
						}
					}
					return nil
				}
				if _, err := runAt(sh.shards, g, proc, Options{Faults: plan}); err != nil {
					t.Fatal(err)
				}
				return got
			}
			ref := run(&FaultPlan{Crashes: []Crash{{Node: 0, Round: 2, Downtime: 3}}})
			both := run(&FaultPlan{Crashes: []Crash{
				{Node: 0, Round: 5, Downtime: 2},
				{Node: 0, Round: 2, Downtime: 3},
			}})
			if fmt.Sprint(both) != fmt.Sprint(ref) {
				t.Errorf("earliest entry should win wholesale: %v, want %v", both, ref)
			}
		})
	}
}

// TestRecoverValidate extends the malformed-plan gate to recovery fields.
func TestRecoverValidate(t *testing.T) {
	g := gen.Path(4)
	for _, sh := range shardings {
		t.Run(sh.name+"/negative-downtime", func(t *testing.T) {
			base := runtime.NumGoroutine()
			plan := &FaultPlan{Crashes: []Crash{{Node: 0, Round: 1, Downtime: -1}}}
			if _, err := runAt(sh.shards, g, func(ctx *Ctx) error { return nil }, Options{Faults: plan}); err == nil {
				t.Fatal("negative Downtime accepted")
			}
			waitGoroutines(t, base)
		})
	}
}

// TestRandomRecoveries checks the seeded recovery-schedule builder: node
// selection identical to RandomCrashes under the same arguments, downtimes
// in [1, maxDown], and the documented edge cases (frac=0, frac=1, spare).
func TestRandomRecoveries(t *testing.T) {
	const n, window, maxDown = 200, 5, 7
	a := RandomRecoveries(n, 0.3, window, maxDown, 7, 42)
	if fmt.Sprint(a) != fmt.Sprint(RandomRecoveries(n, 0.3, window, maxDown, 7, 42)) {
		t.Fatal("same arguments produced different schedules")
	}
	crashes := RandomCrashes(n, 0.3, window, 7, 42)
	if len(a) != len(crashes) {
		t.Fatalf("RandomRecoveries selected %d nodes, RandomCrashes %d — selection must match", len(a), len(crashes))
	}
	for i, cr := range a {
		if cr.Node != crashes[i].Node || cr.Round != crashes[i].Round {
			t.Fatalf("entry %d: (node %d, round %d) vs RandomCrashes (node %d, round %d)",
				i, cr.Node, cr.Round, crashes[i].Node, crashes[i].Round)
		}
		if cr.Downtime < 1 || cr.Downtime > maxDown {
			t.Errorf("downtime %d outside [1, %d]", cr.Downtime, maxDown)
		}
		if cr.Node == 7 {
			t.Errorf("spared node %d crashed", cr.Node)
		}
	}
	if RandomRecoveries(n, 0, window, maxDown, -1, 42) != nil {
		t.Error("frac=0 should produce no schedule")
	}
	all := RandomRecoveries(n, 1, window, maxDown, 7, 42)
	if len(all) != n-1 {
		t.Errorf("frac=1 with a spare crashed %d nodes, want %d", len(all), n-1)
	}
	allNoSpare := RandomRecoveries(n, 1, window, maxDown, -1, 42)
	if len(allNoSpare) != n {
		t.Errorf("frac=1 without a spare crashed %d nodes, want %d", len(allNoSpare), n)
	}
	if fmt.Sprint(a) == fmt.Sprint(RandomRecoveries(n, 0.3, window, maxDown, 7, 43)) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestRecoverCrossEngineDifferential is the crash-recovery identity
// acceptance test: recovery plans — alone and composed with loss and the
// adversary — must produce identical per-node outcomes and Stats at one
// shard and at three, including multi-incarnation reruns of a randomized
// protocol.
func TestRecoverCrossEngineDifferential(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(9),
		gen.Ring(16),
		gen.Grid(6, 7),
		gen.ErdosRenyi(40, 0.12, 3),
	}
	plans := []*FaultPlan{
		{Crashes: []Crash{{Node: 1, Round: 2, Downtime: 3}, {Node: 3, Round: 0, Downtime: 1}}, Seed: 1},
		{Crashes: RandomRecoveries(9, 0.4, 6, 4, 0, 21), Seed: 2},
		{Crashes: []Crash{{Node: 2, Round: 1, Downtime: 5}, {Node: 5, Round: 3}}, DropProb: 0.2, Adversary: AdversaryRotate, Seed: 4},
	}
	for gi, g := range graphs {
		for pi, plan := range plans {
			var ref []int
			var refStats Stats
			for _, sh := range shardings {
				out := make([]int, g.NumNodes())
				stats, err := runAt(sh.shards, g, faultyMessyProc(out), Options{Seed: int64(100*gi + pi), Faults: plan})
				if err != nil {
					t.Fatalf("graph %d plan %d engine %s: %v", gi, pi, sh.name, err)
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

// TestRecoverNoGoroutineLeak extends the leak guard to rejoin paths: runs
// where recovering nodes are mid-downtime when the watchdog aborts, and runs
// where later incarnations outlive every other node, must both unwind fully.
func TestRecoverNoGoroutineLeak(t *testing.T) {
	g := gen.Grid(6, 6)
	plan := &FaultPlan{Crashes: RandomRecoveries(g.NumNodes(), 0.4, 8, 30, 0, 17)}
	for _, sh := range shardings {
		t.Run(sh.name+"/watchdog-during-downtime", func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				for {
					ctx.SendAll(intMsg{v: ctx.Round(), bits: 8})
					ctx.StepRound()
				}
			}, Options{Faults: plan, MaxRounds: 20})
			if !errors.Is(err, ErrMaxRounds) {
				t.Fatalf("err = %v, want ErrMaxRounds", err)
			}
			waitGoroutines(t, base)
		})
		t.Run(sh.name+"/incarnations-outlive-run", func(t *testing.T) {
			base := runtime.NumGoroutine()
			if _, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				for r := 0; r < 12; r++ {
					ctx.SendAll(intMsg{v: r, bits: 6})
					ctx.StepRound()
				}
				return nil
			}, Options{Faults: plan}); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
		})
	}
}
