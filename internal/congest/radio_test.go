package congest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// TestRadioBasicSemantics pins the three reception outcomes on a star
// (center 0, leaves 1..4), at one shard and at three: zero transmitters = silence,
// one = the decoded message, two or more = collision — and a transmitter
// never hears itself.
func TestRadioBasicSemantics(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Star(5)
			type heard struct {
				st   RadioStatus
				v    int
				from graph.NodeID
			}
			got := make([][]heard, g.NumNodes())
			// Per-round transmitter sets: round 0 nobody, round 1 leaf 2,
			// round 2 leaves 1 and 3, round 3 the center.
			transmitters := [][]int{{}, {2}, {1, 3}, {0}}
			proc := func(ctx *Ctx) error {
				for r := 0; r < len(transmitters); r++ {
					for _, v := range transmitters[r] {
						if ctx.ID() == v {
							ctx.Transmit(intMsg{v: 100*r + v, bits: 10})
						}
					}
					ctx.Step()
					p, from, st := ctx.RadioRecv()
					h := heard{st: st, v: -1, from: from}
					if st == RadioMessage {
						h.v = p.(intMsg).v
					}
					got[ctx.ID()] = append(got[ctx.ID()], h)
				}
				return nil
			}
			stats, err := runAt(sh.shards, g, proc, Options{Model: ModelRadio})
			if err != nil {
				t.Fatal(err)
			}
			center := got[0]
			want := []heard{
				{RadioSilence, -1, -1},
				{RadioMessage, 102, 2},
				{RadioCollision, -1, -1},
				{RadioSilence, -1, -1}, // center transmitted; doesn't hear itself
			}
			if fmt.Sprint(center) != fmt.Sprint(want) {
				t.Errorf("center heard %v, want %v", center, want)
			}
			// Leaves hear only the center: silence except round 3.
			for v := 1; v < 5; v++ {
				for r, h := range got[v] {
					wantSt := RadioSilence
					if r == 3 {
						wantSt = RadioMessage
					}
					if h.st != wantSt {
						t.Errorf("leaf %d round %d heard %v, want %v", v, r, h.st, wantSt)
					}
					if r == 3 && (h.v != 300 || h.from != 0) {
						t.Errorf("leaf %d round 3 decoded (%d, from %d), want (300, from 0)", v, h.v, h.from)
					}
				}
			}
			// Each transmission is charged once to its transmitter.
			if stats.Messages != 4 {
				t.Errorf("stats.Messages = %d, want 4 (one per transmission)", stats.Messages)
			}
			if stats.MaxMessageBits != 10 {
				t.Errorf("stats.MaxMessageBits = %d, want 10", stats.MaxMessageBits)
			}
		})
	}
}

// TestRadioDropFadesTransmissions pins drop composition: under DropProb=1
// every reception is silence (though transmitters are still charged), and a
// partial drop can fade one arm of a collision into a clean message —
// deterministically, keyed on the receiver's arc slot.
func TestRadioDropFadesTransmissions(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name+"/drop-all", func(t *testing.T) {
			g := gen.Star(5)
			heardAny := false
			stats, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				for r := 0; r < 4; r++ {
					ctx.Transmit(intMsg{v: ctx.ID(), bits: 8})
					ctx.Step()
					if _, _, st := ctx.RadioRecv(); st != RadioSilence {
						heardAny = true
					}
				}
				return nil
			}, Options{Model: ModelRadio, Faults: &FaultPlan{DropProb: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if heardAny {
				t.Error("DropProb=1 let a transmission through")
			}
			if want := int64(4 * g.NumNodes()); stats.Messages != want {
				t.Errorf("stats.Messages = %d, want %d (transmitters are charged for faded transmissions)", stats.Messages, want)
			}
		})
	}
	// Partial drop: run a collision-heavy protocol under DropProb=0.5 and
	// require at least one receiver to decode a message in a round where two
	// neighbors transmitted (a faded collision arm) — plus determinism via
	// the shard-count differential below.
	g := gen.Star(3)
	decodedUnderCollision := false
	_, err := Run(g, func(ctx *Ctx) error {
		for r := 0; r < 16; r++ {
			if ctx.ID() != 0 {
				ctx.Transmit(intMsg{v: ctx.ID(), bits: 8})
			}
			ctx.Step()
			if _, _, st := ctx.RadioRecv(); ctx.ID() == 0 && st == RadioMessage {
				decodedUnderCollision = true
			}
		}
		return nil
	}, Options{Model: ModelRadio, Faults: &FaultPlan{DropProb: 0.5, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if !decodedUnderCollision {
		t.Error("2 simultaneous transmitters over 16 rounds at DropProb=0.5 never faded down to one — drops are not composing with collisions")
	}
}

// TestRadioModelViolations checks the model gate both ways: classic
// primitives fail under ModelRadio, radio primitives fail under
// ModelCongest, and a double transmit fails — all as clean run errors, with
// no goroutine leaks.
func TestRadioModelViolations(t *testing.T) {
	g := gen.Ring(4)
	cases := []struct {
		name string
		opts Options
		proc Proc
	}{
		{"send-under-radio", Options{Model: ModelRadio}, func(ctx *Ctx) error {
			ctx.SendAll(intMsg{bits: 2})
			return nil
		}},
		{"steproud-under-radio", Options{Model: ModelRadio}, func(ctx *Ctx) error {
			ctx.StepRound()
			return nil
		}},
		{"inboxarc-under-radio", Options{Model: ModelRadio}, func(ctx *Ctx) error {
			ctx.Step()
			ctx.InboxArc(0)
			return nil
		}},
		{"transmit-under-congest", Options{}, func(ctx *Ctx) error {
			ctx.Transmit(intMsg{bits: 2})
			return nil
		}},
		{"radiorecv-under-congest", Options{}, func(ctx *Ctx) error {
			ctx.Step()
			ctx.RadioRecv()
			return nil
		}},
		{"double-transmit", Options{Model: ModelRadio}, func(ctx *Ctx) error {
			ctx.Transmit(intMsg{bits: 2})
			ctx.Transmit(intMsg{bits: 2})
			return nil
		}},
		{"transmit-over-budget", Options{Model: ModelRadio, MaxMessageBits: 4}, func(ctx *Ctx) error {
			ctx.Transmit(intMsg{bits: 9})
			return nil
		}},
	}
	for _, sh := range shardings {
		for _, tc := range cases {
			t.Run(sh.name+"/"+tc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				_, err := runAt(sh.shards, g, tc.proc, tc.opts)
				if !errors.Is(err, ErrModelViolation) {
					t.Fatalf("err = %v, want ErrModelViolation", err)
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// TestRadioUnknownModelRejected checks Options validation.
func TestRadioUnknownModelRejected(t *testing.T) {
	for _, sh := range shardings {
		if _, err := runAt(sh.shards, gen.Path(2), func(ctx *Ctx) error { return nil }, Options{Model: Model(9)}); err == nil {
			t.Errorf("%s: unknown Options.Model accepted", sh.name)
		}
	}
}

// TestRadioCrashSilences pins the fault composition with crashes: a crashed
// node's transmissions vanish from the air (its neighbors hear silence or a
// thinner collision) for the rest of the run.
func TestRadioCrashSilences(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Path(2)
			var heard []RadioStatus
			plan := &FaultPlan{Crashes: []Crash{{Node: 0, Round: 2}}}
			proc := func(ctx *Ctx) error {
				for r := 0; r < 8; r++ {
					if ctx.ID() == 0 {
						ctx.Transmit(intMsg{v: ctx.Round(), bits: 8})
					}
					ctx.Step()
					if ctx.ID() == 1 {
						_, _, st := ctx.RadioRecv()
						heard = append(heard, st)
					}
				}
				return nil
			}
			if _, err := runAt(sh.shards, g, proc, Options{Model: ModelRadio, Faults: plan}); err != nil {
				t.Fatal(err)
			}
			want := []RadioStatus{
				RadioMessage, RadioMessage, // rounds 0-1: alive
				RadioSilence, RadioSilence, RadioSilence, // rounds 2-7: crashed
				RadioSilence, RadioSilence, RadioSilence,
			}
			if fmt.Sprint(heard) != fmt.Sprint(want) {
				t.Errorf("node 1 heard %v, want %v", heard, want)
			}
		})
	}
}

// radioMessyProc is the radio differential workhorse: seeded random
// transmission decisions with an order-free accumulator over everything
// decoded, plus collision/silence counting so the full reception statuses
// are part of the compared outcome.
func radioMessyProc(rounds int, out []int) Proc {
	return func(ctx *Ctx) error {
		acc := 0
		for r := 0; r < rounds; r++ {
			if ctx.Rand().Intn(3) == 0 {
				ctx.Transmit(intMsg{v: ctx.ID()*100 + r, bits: 4 + ctx.Rand().Intn(8)})
			}
			ctx.Step()
			p, from, st := ctx.RadioRecv()
			switch st {
			case RadioMessage:
				acc = acc*31 + p.(intMsg).v*(from+1)
			case RadioCollision:
				acc = acc*31 + 7
			default:
				acc = acc*31 + 1
			}
		}
		out[ctx.ID()] = acc
		return nil
	}
}

// TestRadioCrossEngineDifferential is the radio identity acceptance test:
// random transmission schedules over several topologies — fault-free, lossy
// and crashy — must produce identical per-node reception histories and
// Stats at one shard and at three, across repeated (pool-reusing) runs.
func TestRadioCrossEngineDifferential(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(9),
		gen.Ring(16),
		gen.Grid(6, 7),
		gen.Star(11),
		gen.ErdosRenyi(40, 0.12, 3),
	}
	plans := []*FaultPlan{
		nil,
		{DropProb: 0.25, Seed: 2},
		{Crashes: []Crash{{Node: 2, Round: 1}, {Node: 5, Round: 3}}, DropProb: 0.2, Seed: 4},
	}
	for gi, g := range graphs {
		for pi, plan := range plans {
			var ref []int
			var refStats Stats
			first := true
			check := func(name string, out []int, stats Stats) {
				if first {
					ref, refStats, first = out, stats, false
					return
				}
				if fmt.Sprint(out) != fmt.Sprint(ref) {
					t.Fatalf("graph %d plan %d: %s outcomes diverged", gi, pi, name)
				}
				if stats != refStats {
					t.Fatalf("graph %d plan %d: %s stats %+v, want %+v", gi, pi, name, stats, refStats)
				}
			}
			for trial := 0; trial < 2; trial++ {
				out := make([]int, g.NumNodes())
				stats, err := Run(g, radioMessyProc(12, out),
					Options{Seed: int64(gi + 10*pi), Model: ModelRadio, Faults: plan})
				if err != nil {
					t.Fatalf("graph %d plan %d eventloop trial %d: %v", gi, pi, trial, err)
				}
				check(fmt.Sprintf("eventloop/trial%d", trial), out, stats)
			}
			out := make([]int, g.NumNodes())
			stats, err := Run(g, radioMessyProc(12, out),
				Options{Seed: int64(gi + 10*pi), Model: ModelRadio, Faults: plan, Shards: 3})
			if err != nil {
				t.Fatalf("graph %d plan %d sharded: %v", gi, pi, err)
			}
			check("sharded", out, stats)
		}
	}
}

// TestRadioAbortNoGoroutineLeak pins clean unwinding when a radio run hits
// the watchdog (the ISSUE's radio-mode abort leak guard).
func TestRadioAbortNoGoroutineLeak(t *testing.T) {
	g := gen.Grid(8, 8)
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				for {
					ctx.Transmit(intMsg{v: ctx.Round(), bits: 8})
					ctx.Step()
					ctx.RadioRecv()
				}
			}, Options{Model: ModelRadio, MaxRounds: 25})
			if !errors.Is(err, ErrMaxRounds) {
				t.Fatalf("err = %v, want ErrMaxRounds", err)
			}
			waitGoroutines(t, base)
		})
	}
}
