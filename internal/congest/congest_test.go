package congest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// intMsg is a test payload carrying one integer.
type intMsg struct {
	v    int
	bits int
}

func (m intMsg) Bits() int { return m.bits }

// floodProc returns a Proc computing BFS distance from src into dist (one
// slot per node): the classic flooding protocol, terminating after exactly
// `rounds` barriers.
func floodProc(src graph.NodeID, rounds int, dist []int) Proc {
	return func(ctx *Ctx) error {
		d := -1
		if ctx.ID() == src {
			d = 0
			ctx.SendAll(intMsg{v: 0, bits: 16})
		}
		for r := 0; r < rounds; r++ {
			for _, m := range ctx.StepRound() {
				got := m.Payload.(intMsg).v
				if d == -1 || got+1 < d {
					d = got + 1
					ctx.SendAll(intMsg{v: d, bits: 16})
				}
			}
		}
		dist[ctx.ID()] = d
		return nil
	}
}

func TestFloodMatchesBFS(t *testing.T) {
	g := gen.Grid(7, 5)
	want := g.BFS(3)
	dist := make([]int, g.NumNodes())
	stats, err := Run(g, floodProc(3, g.Diameter()+1, dist), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
	if stats.Rounds != g.Diameter()+1 {
		t.Errorf("rounds = %d, want %d", stats.Rounds, g.Diameter()+1)
	}
	if stats.Messages == 0 || stats.TotalBits != 16*stats.Messages {
		t.Errorf("stats inconsistent: %+v", stats)
	}
	if stats.MaxMessageBits != 16 {
		t.Errorf("MaxMessageBits = %d, want 16", stats.MaxMessageBits)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := gen.ErdosRenyi(50, 0.1, 4)
	run := func() []int {
		picks := make([]int, g.NumNodes())
		_, err := Run(g, func(ctx *Ctx) error {
			// Random-looking protocol: exchange random values for 5 rounds and
			// remember the running XOR of everything received.
			acc := 0
			for r := 0; r < 5; r++ {
				ctx.SendAll(intMsg{v: ctx.Rand().Intn(1 << 20), bits: 20})
				for _, m := range ctx.StepRound() {
					acc ^= m.Payload.(intMsg).v * (m.From + 1)
				}
			}
			picks[ctx.ID()] = acc
			return nil
		}, Options{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return picks
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d differs across identical runs: %d vs %d", v, a[v], b[v])
		}
	}
}

// TestRandReadSeeded pins the seed contract for Rand().Read, which keeps the
// unread bytes of its last 64-bit draw for the next call: equal seeds give
// equal bytes whatever an earlier run on the pooled state read.
func TestRandReadSeeded(t *testing.T) {
	g := gen.Path(2)
	for _, sh := range shardings {
		t.Run(sh.name, func(t *testing.T) {
			// read returns the k bytes node 0 reads in a one-round run.
			read := func(k int) []byte {
				out := make([]byte, k)
				if _, err := runAt(sh.shards, g, func(ctx *Ctx) error {
					if ctx.ID() == 0 {
						ctx.Rand().Read(out)
					}
					return nil
				}, Options{Seed: 7}); err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := read(8)
			read(3) // leaves 5 bytes of a draw unread
			if got := read(8); !bytes.Equal(got, want) {
				t.Errorf("equal seeds read %x after a 3-byte run, %x before", got, want)
			}
		})
	}
}

func TestInboxSortedByFrom(t *testing.T) {
	g := gen.Star(8)
	_, err := Run(g, func(ctx *Ctx) error {
		if ctx.ID() != 0 {
			ctx.Send(0, intMsg{v: ctx.ID(), bits: 8})
			ctx.StepRound()
			return nil
		}
		in := ctx.StepRound()
		if len(in) != 7 {
			return fmt.Errorf("center got %d messages, want 7", len(in))
		}
		for i, m := range in {
			if m.From != i+1 {
				return fmt.Errorf("inbox[%d].From = %d, want %d", i, m.From, i+1)
			}
		}
		return nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInboxSharedPerShard pins the inbox reuse contract: the nodes of a
// shard materialize their inboxes into one buffer, so two nodes' StepRound
// slices of one round share a backing array, and a slice kept across the
// node's next barrier no longer holds its round's messages.
func TestInboxSharedPerShard(t *testing.T) {
	// Star(4): center 0 hears three leaves, then each leaf hears the center,
	// so the later, shorter inboxes fit in the center's.
	g := gen.Star(4)
	var center, leaf *Message
	var kept Message
	_, err := Run(g, func(ctx *Ctx) error {
		ctx.SendAll(intMsg{v: ctx.ID(), bits: 8})
		in := ctx.StepRound()
		if len(in) == 0 {
			return fmt.Errorf("node %d heard nothing", ctx.ID())
		}
		switch ctx.ID() {
		case 0:
			center = &in[0]
			// The leaves gather after the center's barrier.
			ctx.Step()
			kept = in[0]
			return nil
		case 1:
			leaf = &in[0]
		}
		ctx.Step()
		return nil
	}, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if center != leaf {
		t.Error("the center's and leaf 1's inboxes of one round have separate backing arrays, want one per shard")
	}
	if want := (Message{From: 1, Payload: intMsg{v: 1, bits: 8}}); kept == want {
		t.Errorf("the center's inbox kept past its next barrier still holds %v, want it overwritten by a later node's inbox", want)
	}
}

func TestSendToNonNeighbor(t *testing.T) {
	g := gen.Path(4)
	_, err := Run(g, func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Send(3, intMsg{bits: 1}) // 0 and 3 are not adjacent
		}
		ctx.StepRound()
		return nil
	}, Options{})
	if !errors.Is(err, ErrModelViolation) {
		t.Fatalf("err = %v, want ErrModelViolation", err)
	}
}

func TestDoubleSendSameRound(t *testing.T) {
	g := gen.Path(2)
	_, err := Run(g, func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Send(1, intMsg{bits: 1})
			ctx.Send(1, intMsg{bits: 1})
		}
		ctx.StepRound()
		return nil
	}, Options{})
	if !errors.Is(err, ErrModelViolation) {
		t.Fatalf("err = %v, want ErrModelViolation", err)
	}
}

func TestDoubleSendDifferentRoundsOK(t *testing.T) {
	g := gen.Path(2)
	_, err := Run(g, func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Send(1, intMsg{bits: 1})
			ctx.StepRound()
			ctx.Send(1, intMsg{bits: 1})
			ctx.StepRound()
			return nil
		}
		ctx.Idle(2)
		return nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStrictBitBudget(t *testing.T) {
	g := gen.Path(2)
	proc := func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Send(1, intMsg{bits: 64})
		}
		ctx.StepRound()
		return nil
	}
	if _, err := Run(g, proc, Options{MaxMessageBits: 32}); !errors.Is(err, ErrModelViolation) {
		t.Fatalf("err = %v, want ErrModelViolation", err)
	}
	if _, err := Run(g, proc, Options{MaxMessageBits: 64}); err != nil {
		t.Fatalf("within budget: %v", err)
	}
}

func TestWatchdog(t *testing.T) {
	g := gen.Path(3)
	_, err := Run(g, func(ctx *Ctx) error {
		for { // never terminates, but always yields
			ctx.StepRound()
		}
	}, Options{MaxRounds: 50})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestProcErrorAborts(t *testing.T) {
	g := gen.Ring(6)
	wantErr := errors.New("boom")
	_, err := Run(g, func(ctx *Ctx) error {
		if ctx.ID() == 4 {
			ctx.StepRound()
			return wantErr
		}
		for {
			ctx.StepRound()
		}
	}, Options{})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestProcPanicRecovered(t *testing.T) {
	g := gen.Path(3)
	_, err := Run(g, func(ctx *Ctx) error {
		if ctx.ID() == 1 {
			panic("kaboom")
		}
		ctx.Idle(3)
		return nil
	}, Options{})
	if err == nil {
		t.Fatal("panicking proc did not surface an error")
	}
}

func TestUnevenTermination(t *testing.T) {
	// Nodes finish at different rounds; engine must not deadlock and late
	// messages to finished nodes are dropped.
	g := gen.Path(5)
	_, err := Run(g, func(ctx *Ctx) error {
		for r := 0; r < ctx.ID()+1; r++ {
			ctx.SendAll(intMsg{v: r, bits: 8})
			ctx.StepRound()
		}
		return nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFinalSendsWithoutBarrierDelivered(t *testing.T) {
	g := gen.Path(2)
	got := -1
	_, err := Run(g, func(ctx *Ctx) error {
		if ctx.ID() == 0 {
			ctx.Send(1, intMsg{v: 42, bits: 8})
			return nil // returns without stepping; send still goes out
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
}

func TestRoundCounter(t *testing.T) {
	g := gen.Ring(4)
	stats, err := Run(g, func(ctx *Ctx) error {
		for r := 0; r < 7; r++ {
			if ctx.Round() != r {
				return fmt.Errorf("node %d sees round %d, want %d", ctx.ID(), ctx.Round(), r)
			}
			ctx.StepRound()
		}
		return nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 7 {
		t.Errorf("rounds = %d, want 7", stats.Rounds)
	}
}

func TestBitsForID(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, tc := range cases {
		if got := BitsForID(tc.n); got != tc.want {
			t.Errorf("BitsForID(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestNodeLocalRandDiffers(t *testing.T) {
	g := gen.Path(8)
	vals := make([]int, g.NumNodes())
	if _, err := Run(g, func(ctx *Ctx) error {
		vals[ctx.ID()] = ctx.Rand().Intn(1 << 30)
		return nil
	}, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	same := 0
	for v := 1; v < len(vals); v++ {
		if vals[v] == vals[0] {
			same++
		}
	}
	if same == len(vals)-1 {
		t.Error("all nodes drew identical random values")
	}
}
