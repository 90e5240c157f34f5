package congest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// shardings names the shard counts the table-driven tests run at: every
// edge-case behavior must be the same at one shard and at three, where
// cross-shard relays, the sender-side double-send stamps and the round
// barrier between three drivers are exercised even on a single core.
var shardings = []struct {
	name   string
	shards int
}{
	{"eventloop", 1},
	{"sharded", 3},
}

// runAt is Run with opts.Shards set to shards.
func runAt(shards int, g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	opts.Shards = shards
	return Run(g, proc, opts)
}

// TestEnginesSendToFinishedDropped checks that messages addressed to a node
// that already returned are dropped (and do not wedge the engine), at one
// shard and at three.
func TestEnginesSendToFinishedDropped(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Path(3)
			got := 0
			_, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				switch ctx.ID() {
				case 0:
					return nil // finishes immediately
				case 1:
					// Keeps sending to the finished node for several rounds.
					for r := 0; r < 5; r++ {
						ctx.Send(0, intMsg{v: r, bits: 8})
						for range ctx.StepRound() {
							got++
						}
					}
				default:
					ctx.Idle(5)
				}
				return nil
			}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got != 0 {
				t.Errorf("live node received %d stray messages", got)
			}
		})
	}
}

// TestEnginesViolations checks that every model violation still aborts with
// ErrModelViolation at one shard and at three: double-send on one
// edge-direction, sending to a non-neighbor, an invalid arc index, and an
// oversized payload under a strict budget.
func TestEnginesViolations(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		proc Proc
	}{
		{"double-send", Options{}, func(ctx *Ctx) error {
			if ctx.ID() == 0 {
				ctx.Send(1, intMsg{bits: 1})
				ctx.Send(1, intMsg{bits: 1})
			}
			ctx.StepRound()
			return nil
		}},
		{"double-send-arc", Options{}, func(ctx *Ctx) error {
			if ctx.ID() == 0 {
				ctx.SendArc(0, intMsg{bits: 1})
				ctx.SendArc(0, intMsg{bits: 1})
			}
			ctx.StepRound()
			return nil
		}},
		{"non-neighbor", Options{}, func(ctx *Ctx) error {
			if ctx.ID() == 0 {
				ctx.Send(3, intMsg{bits: 1})
			}
			ctx.StepRound()
			return nil
		}},
		{"bad-arc-index", Options{}, func(ctx *Ctx) error {
			if ctx.ID() == 0 {
				ctx.SendArc(7, intMsg{bits: 1})
			}
			ctx.StepRound()
			return nil
		}},
		{"oversized", Options{MaxMessageBits: 16}, func(ctx *Ctx) error {
			if ctx.ID() == 0 {
				ctx.Send(1, intMsg{bits: 64})
			}
			ctx.StepRound()
			return nil
		}},
	}
	for _, sh := range shardings {
		for _, tc := range cases {
			t.Run(sh.name+"/"+tc.name, func(t *testing.T) {
				g := gen.Path(4) // nodes 0 and 3 not adjacent
				_, err := runAt(sh.shards, g, tc.proc, tc.opts)
				if !errors.Is(err, ErrModelViolation) {
					t.Fatalf("err = %v, want ErrModelViolation", err)
				}
			})
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to at most base
// (with slack for runtime helpers), so abort-path unwinding cannot flake the
// leak assertions.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestEventLoopWatchdogNoGoroutineLeak checks that a MaxRounds abort unwinds
// every node and ends every driver. Run joins every driver before it
// returns, but a driver goroutine that has run its deferred WaitGroup.Done
// may not have exited yet, so the count is polled back to baseline with a
// bound.
func TestEventLoopWatchdogNoGoroutineLeak(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := gen.Grid(8, 8)
			_, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				for {
					ctx.SendAll(intMsg{bits: 4})
					ctx.StepRound()
				}
			}, Options{MaxRounds: 25})
			if !errors.Is(err, ErrMaxRounds) {
				t.Fatalf("err = %v, want ErrMaxRounds", err)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestEventLoopAbortNoGoroutineLeak is the same assertion for proc-error and
// model-violation aborts, each of which must surface its own error.
func TestEventLoopAbortNoGoroutineLeak(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		proc    Proc
		wantErr error
	}{
		{"proc-error", func(ctx *Ctx) error {
			if ctx.ID() == 3 {
				ctx.StepRound()
				return boom
			}
			for {
				ctx.StepRound()
			}
		}, boom},
		{"violation", func(ctx *Ctx) error {
			for {
				if ctx.ID() == 3 && ctx.Round() == 2 {
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
			g := gen.Ring(12)
			_, err := Run(g, tc.proc, Options{})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestEventLoopAbortWhileAsleepNoGoroutineLeak fails one node while every
// other node sleeps toward a far round — half in StepUntil, half in Idle:
// the leader must release every sleeper, so each goroutine unwinds and
// exits.
func TestEventLoopAbortWhileAsleepNoGoroutineLeak(t *testing.T) {
	boom := errors.New("boom")
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := runAt(sh.shards, gen.Grid(6, 6), func(ctx *Ctx) error {
				switch {
				case ctx.ID() == 7:
					ctx.Idle(3)
					return boom
				case ctx.ID()%2 == 0:
					ctx.StepUntil(10_000)
				default:
					ctx.Idle(10_000)
				}
				return nil
			}, Options{})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestEventLoopGoexitPropagates checks that a runtime.Goexit inside a Proc
// (what t.FailNow does) ends the goroutine that called Run, after every other
// node has unwound, instead of hanging the barrier. Node 29 falls in the last
// of three shards, so there the Goexit happens on a driver other than Run's caller and must still reach it.
func TestEventLoopGoexitPropagates(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			returned := make(chan bool)
			go func() {
				ok := false
				defer func() { returned <- ok }()
				runAt(sh.shards, gen.Grid(6, 6), func(ctx *Ctx) error {
					switch {
					case ctx.ID() == 29:
						ctx.Idle(3)
						runtime.Goexit()
					case ctx.ID()%2 == 0:
						ctx.StepUntil(10_000)
					default:
						for {
							ctx.StepRound()
						}
					}
					return nil
				}, Options{})
				ok = true
			}()
			select {
			case ok := <-returned:
				if ok {
					t.Fatal("Run returned after a node called runtime.Goexit")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run hung after a node called runtime.Goexit")
			}
			waitGoroutines(t, base)
		})
	}
}

// TestEnginesDifferential runs a messy randomized protocol — uneven
// termination, traffic to finished nodes, random payload sizes — at one
// shard and at three and requires identical per-node outputs and Stats.
func TestEnginesDifferential(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(9),
		gen.Ring(16),
		gen.Grid(6, 7),
		gen.Star(11),
		gen.ErdosRenyi(40, 0.12, 3),
	}
	proc := func(out []int) Proc {
		return func(ctx *Ctx) error {
			acc := 0
			lifetime := 1 + ctx.Rand().Intn(12)
			for r := 0; r < lifetime; r++ {
				for k, a := range ctx.Neighbors() {
					if ctx.Rand().Intn(3) == 0 {
						ctx.SendArc(k, intMsg{v: acc ^ a.To, bits: 4 + ctx.Rand().Intn(12)})
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
	for gi, g := range graphs {
		var ref []int
		var refStats Stats
		for _, sh := range shardings {
			out := make([]int, g.NumNodes())
			stats, err := runAt(sh.shards, g, proc(out), Options{Seed: int64(100 + gi)})
			if err != nil {
				t.Fatalf("graph %d engine %s: %v", gi, sh.name, err)
			}
			if sh.shards == 1 {
				ref, refStats = out, stats
				continue
			}
			for v := range out {
				if out[v] != ref[v] {
					t.Fatalf("graph %d node %d: %s=%d, eventloop=%d", gi, v, sh.name, out[v], ref[v])
				}
			}
			if stats != refStats {
				t.Fatalf("graph %d stats differ: %s=%+v, eventloop=%+v", gi, sh.name, stats, refStats)
			}
		}
	}
}

// TestStepInboxArc pins the fast-path contract: InboxArc returns (payload,
// true) exactly for the arcs that carried a message this round, returns
// false before the first barrier, and messages do not resurface in later
// rounds.
func TestStepInboxArc(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Ring(6)
			// arc0Target(v) is where v's arc 0 leads in gen.Ring's edge
			// insertion order: node 0's first incident edge is (0,1), node
			// v>0's is (v-1,v).
			arc0Target := func(v graph.NodeID) graph.NodeID {
				if v == 0 {
					return 1
				}
				return v - 1
			}
			_, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				if _, ok := ctx.InboxArc(0); ok {
					return fmt.Errorf("node %d: InboxArc hit before any barrier", ctx.ID())
				}
				// Round 0: even nodes send a token on their arc 0.
				if ctx.ID()%2 == 0 {
					ctx.SendArc(0, intMsg{v: ctx.ID(), bits: 8})
				}
				ctx.Step()
				for k, a := range ctx.Neighbors() {
					p, ok := ctx.InboxArc(k)
					want := a.To%2 == 0 && arc0Target(a.To) == ctx.ID()
					if ok != want {
						return fmt.Errorf("node %d arc %d: ok=%v, want %v", ctx.ID(), k, ok, want)
					}
					if ok && p.(intMsg).v != a.To {
						return fmt.Errorf("node %d arc %d: payload %d, want %d", ctx.ID(), k, p.(intMsg).v, a.To)
					}
				}
				// Round 1: silence; nothing may resurface.
				ctx.Step()
				for k := range ctx.Neighbors() {
					if _, ok := ctx.InboxArc(k); ok {
						return fmt.Errorf("node %d arc %d: stale message resurfaced", ctx.ID(), k)
					}
				}
				return nil
			}, Options{})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPoolReuseNoGhostMessages runs a heavy-traffic simulation, then a
// silent one on the same graph and a third on a smaller graph — the pooled
// arenas must not resurrect any stale message or stat.
func TestPoolReuseNoGhostMessages(t *testing.T) {
	g := gen.Grid(9, 9)
	if _, err := Run(g, floodProc(0, g.Diameter()+1, make([]int, g.NumNodes())), Options{}); err != nil {
		t.Fatal(err)
	}
	for trial, gg := range []*graph.Graph{g, gen.Path(5)} {
		stats, err := Run(gg, func(ctx *Ctx) error {
			for r := 0; r < 4; r++ {
				if n := len(ctx.StepRound()); n != 0 {
					return fmt.Errorf("node %d round %d: %d ghost messages", ctx.ID(), r, n)
				}
			}
			return nil
		}, Options{})
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

// TestEnginesFinalSendsWithoutBarrier pins the "sends from a returning node
// are still delivered" convention at one shard and at three.
func TestEnginesFinalSendsWithoutBarrier(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Path(2)
			got := -1
			_, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				if ctx.ID() == 0 {
					ctx.Send(1, intMsg{v: 42, bits: 8})
					return nil
				}
				in := ctx.StepRound()
				if len(in) == 1 {
					got = in[0].Payload.(intMsg).v
				}
				return nil
			}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got != 42 {
				t.Errorf("receiver got %d, want 42", got)
			}
		})
	}
}

// TestIDBits checks the cached per-run ID width matches BitsForID(n).
func TestIDBits(t *testing.T) {
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			g := gen.Ring(37)
			if _, err := runAt(sh.shards, g, func(ctx *Ctx) error {
				if ctx.IDBits() != BitsForID(ctx.N()) {
					return fmt.Errorf("IDBits() = %d, want %d", ctx.IDBits(), BitsForID(ctx.N()))
				}
				return nil
			}, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
