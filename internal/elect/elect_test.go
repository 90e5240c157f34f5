package elect

import (
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// skipCrashed builds an Agreed skip function from a crash schedule.
func skipCrashed(crashes []congest.Crash) func(graph.NodeID) bool {
	dead := map[graph.NodeID]bool{}
	for _, cr := range crashes {
		dead[cr.Node] = true
	}
	return func(v graph.NodeID) bool { return dead[v] }
}

// TestFloodAgreementFaultFree checks unanimous agreement on the maximum
// ballot within diameter+1 rounds on assorted fault-free graphs.
func TestFloodAgreementFaultFree(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Ring(24),
		gen.Grid(6, 6),
		gen.RandomTree(40, 5),
		gen.ErdosRenyi(50, 0.12, 9),
	}
	for gi, g := range graphs {
		out := make([]Outcome, g.NumNodes())
		rounds := g.Diameter() + 1
		if _, err := congest.Run(g, Flood(rounds, out), congest.Options{Seed: int64(gi)}); err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		leader, ok := Agreed(out, nil)
		if !ok {
			t.Fatalf("graph %d: no unanimous leader after %d rounds", gi, rounds)
		}
		// The agreed leader must believe in itself and hold the globally
		// maximal rank among all final views.
		if out[leader].Leader != leader {
			t.Fatalf("graph %d: leader %d does not believe in itself", gi, leader)
		}
		for v, o := range out {
			if o.Rank != out[leader].Rank {
				t.Fatalf("graph %d node %d: rank %d, leader's %d", gi, v, o.Rank, out[leader].Rank)
			}
			if o.LastChange > rounds {
				t.Fatalf("graph %d node %d: LastChange %d > %d rounds", gi, v, o.LastChange, rounds)
			}
		}
	}
}

// TestFloodCrossEngineIdentity runs the election under a combined
// crash+loss+adversary plan at one shard and at three and requires identical
// outcomes and stats — the protocol layer's half of the faulty-run identity
// contract.
func TestFloodCrossEngineIdentity(t *testing.T) {
	g := gen.Grid(7, 7)
	plan := &congest.FaultPlan{
		Crashes:   congest.RandomCrashes(g.NumNodes(), 0.2, 6, -1, 3),
		DropProb:  0.2,
		Adversary: congest.AdversaryRotate,
		Seed:      11,
	}
	_, _, err := congesttest.Identical(t, func(shards int) (any, congest.Stats, error) {
		out := make([]Outcome, g.NumNodes())
		stats, err := congest.Run(g, Flood(3*g.Diameter(), out), congest.Options{Seed: 21, Faults: plan, Shards: shards})
		return out, stats, err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFloodAdversaryInvariant pins the design property that election
// decisions depend only on the received multiset: the scheduler adversary
// must not change any node's outcome.
func TestFloodAdversaryInvariant(t *testing.T) {
	g := gen.ErdosRenyi(48, 0.15, 4)
	run := func(plan *congest.FaultPlan) []Outcome {
		out := make([]Outcome, g.NumNodes())
		if _, err := congest.Run(g, Flood(g.Diameter()+2, out), congest.Options{Seed: 8, Faults: plan}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(nil)
	rotated := run(&congest.FaultPlan{Adversary: congest.AdversaryRotate, Seed: 77})
	for v := range plain {
		if plain[v] != rotated[v] {
			t.Fatalf("node %d: adversary changed outcome %+v -> %+v", v, plain[v], rotated[v])
		}
	}
}

// TestFloodUnderLoss checks loss-tolerance: with DropProb=0.3 the re-offered
// ballots still saturate the graph given a linear round cushion.
func TestFloodUnderLoss(t *testing.T) {
	g := gen.Grid(8, 8)
	out := make([]Outcome, g.NumNodes())
	plan := &congest.FaultPlan{DropProb: 0.3, Seed: 5}
	if _, err := congest.Run(g, Flood(4*g.Diameter(), out), congest.Options{Seed: 2, Faults: plan}); err != nil {
		t.Fatal(err)
	}
	if _, ok := Agreed(out, nil); !ok {
		t.Fatal("no agreement under 30% loss with a 4x diameter cushion")
	}
}

// TestFloodSurvivorsAgreeUnderCrashes checks graceful degradation: whatever
// the crash schedule does, the surviving nodes end in agreement when given
// enough rounds after the last crash.
func TestFloodSurvivorsAgreeUnderCrashes(t *testing.T) {
	g := gen.Grid(8, 8)
	crashes := congest.RandomCrashes(g.NumNodes(), 0.25, 5, -1, 19)
	if len(crashes) == 0 {
		t.Fatal("test needs a nonempty crash schedule")
	}
	// Crashes may disconnect a grid in principle; this seeded schedule keeps
	// the survivor graph connected (checked below), so unanimity is required.
	alive := func(v graph.NodeID) bool { return !skipCrashed(crashes)(v) }
	if !survivorsConnected(g, alive) {
		t.Skip("seeded schedule disconnected the survivors; pick another seed")
	}
	out := make([]Outcome, g.NumNodes())
	plan := &congest.FaultPlan{Crashes: crashes, Seed: 19}
	if _, err := congest.Run(g, Flood(3*g.Diameter(), out), congest.Options{Seed: 6, Faults: plan}); err != nil {
		t.Fatal(err)
	}
	if _, ok := Agreed(out, skipCrashed(crashes)); !ok {
		t.Fatal("connected survivors failed to agree")
	}
}

// survivorsConnected reports whether the subgraph induced by alive nodes is
// connected (BFS over surviving endpoints).
func survivorsConnected(g *graph.Graph, alive func(graph.NodeID) bool) bool {
	n := g.NumNodes()
	start := -1
	for v := 0; v < n; v++ {
		if alive(v) {
			start = v
			break
		}
	}
	if start < 0 {
		return true
	}
	seen := make([]bool, n)
	seen[start] = true
	queue := []graph.NodeID{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		to, _ := g.Arcs(v)
		for _, u := range to {
			if w := graph.NodeID(u); alive(w) && !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	for v := 0; v < n; v++ {
		if alive(v) && !seen[v] {
			return false
		}
	}
	return true
}

// TestRaftStableFaultFree checks the skeleton converges to one leader and
// stays there when nothing fails: one term-1 claim wins round 0's universal
// candidacy and no re-election ever fires.
func TestRaftStableFaultFree(t *testing.T) {
	g := gen.Grid(6, 6)
	out := make([]RaftOutcome, g.NumNodes())
	cfg := RaftConfig{Rounds: 80, TimeoutMin: g.Diameter() + 2, TimeoutSpread: 6}
	if _, err := congest.Run(g, Raft(cfg, out), congest.Options{Seed: 13}); err != nil {
		t.Fatal(err)
	}
	ref, ok := RaftAgreed(out, nil)
	if !ok {
		t.Fatalf("no agreement fault-free: %+v", out)
	}
	if ref.Term != 1 {
		t.Errorf("fault-free run escalated to term %d (spurious re-election)", ref.Term)
	}
	for v, o := range out {
		if o.Elections != 1 {
			t.Errorf("node %d started %d elections, want exactly the round-0 candidacy", v, o.Elections)
		}
	}
}

// TestRaftLeaderFailover is the skeleton's reason to exist: crash the elected
// leader mid-run and require the survivors to converge on a new leader at a
// strictly higher term.
func TestRaftLeaderFailover(t *testing.T) {
	g := gen.Grid(6, 6)
	cfg := RaftConfig{Rounds: 120, TimeoutMin: g.Diameter() + 2, TimeoutSpread: 6}
	// Fault-free rehearsal to learn who wins term 1 under this seed.
	rehearse := make([]RaftOutcome, g.NumNodes())
	if _, err := congest.Run(g, Raft(cfg, rehearse), congest.Options{Seed: 29}); err != nil {
		t.Fatal(err)
	}
	first, ok := RaftAgreed(rehearse, nil)
	if !ok {
		t.Fatal("rehearsal did not converge")
	}
	// Same seed, same protocol randomness — now the term-1 winner crashes.
	crashes := []congest.Crash{{Node: first.Leader, Round: 40}}
	out := make([]RaftOutcome, g.NumNodes())
	if _, err := congest.Run(g, Raft(cfg, out), congest.Options{Seed: 29, Faults: &congest.FaultPlan{Crashes: crashes, Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	next, ok := RaftAgreed(out, skipCrashed(crashes))
	if !ok {
		t.Fatal("survivors did not re-converge after the leader crash")
	}
	if next.Leader == first.Leader {
		t.Fatalf("crashed leader %d still leads", first.Leader)
	}
	if next.Term <= first.Term {
		t.Fatalf("failover term %d not above original term %d", next.Term, first.Term)
	}
}

// TestRaftCrossEngineIdentity extends the faulty identity contract to the
// stateful heartbeat protocol.
func TestRaftCrossEngineIdentity(t *testing.T) {
	g := gen.ErdosRenyi(40, 0.15, 2)
	plan := &congest.FaultPlan{
		Crashes:   congest.RandomCrashes(g.NumNodes(), 0.15, 30, -1, 7),
		DropProb:  0.1,
		Adversary: congest.AdversaryRotate,
		Seed:      23,
	}
	cfg := RaftConfig{Rounds: 90, TimeoutMin: 8, TimeoutSpread: 6}
	_, _, err := congesttest.Identical(t, func(shards int) (any, congest.Stats, error) {
		out := make([]RaftOutcome, g.NumNodes())
		stats, err := congest.Run(g, Raft(cfg, out), congest.Options{Seed: 31, Faults: plan, Shards: shards})
		return out, stats, err
	})
	if err != nil {
		t.Fatal(err)
	}
}
