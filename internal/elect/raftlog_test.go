package elect_test

import (
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

// raftOver runs the committing Raft over the reliable transport.
func raftOver(g *graph.Graph, cfg elect.RaftLogConfig, rcfg reliable.Config, opts congest.Options) ([]elect.RaftLogOutcome, reliable.Stats, error) {
	out := make([]elect.RaftLogOutcome, g.NumNodes())
	_, rs, err := reliable.Run(g, func(ctx *reliable.Ctx) error {
		return elect.RaftLogNet(ctx, cfg, out)
	}, rcfg, opts)
	return out, rs, err
}

// crashedSet builds the skip predicate for a plan's crash-stop victims.
func crashedSet(plan *congest.FaultPlan) map[graph.NodeID]bool {
	dead := map[graph.NodeID]bool{}
	if plan == nil {
		return dead
	}
	for _, cr := range plan.Crashes {
		dead[cr.Node] = true
	}
	return dead
}

// TestRaftLogFaultFreeCommits pins the base case on the raw engine: one
// stable leader emerges, every node commits the full log, commits agree,
// and one shard and three produce byte-identical outcomes.
func TestRaftLogFaultFreeCommits(t *testing.T) {
	graphs := []*graph.Graph{gen.Path(1), gen.Path(5), gen.Ring(12), gen.Grid(5, 5), gen.ErdosRenyi(30, 0.15, 2)}
	for gi, g := range graphs {
		cfg := elect.RaftLogConfig{Entries: 5}.TunedFor(g.ApproxDiameter(0))
		var ref []elect.RaftLogOutcome
		for ei, sh := range congesttest.Shardings {
			out := make([]elect.RaftLogOutcome, g.NumNodes())
			if _, err := congest.Run(g, elect.RaftLog(cfg, out), congest.Options{Seed: int64(gi), Shards: sh.Shards}); err != nil {
				t.Fatalf("graph %d %s: %v", gi, sh.Name, err)
			}
			if ei == 0 {
				ref = out
			} else if fmt.Sprint(out) != fmt.Sprint(ref) {
				t.Fatalf("graph %d: outcomes differ across shard counts", gi)
			}
			if err := elect.RaftLogConsistent(out, nil); err != nil {
				t.Fatalf("graph %d %s: %v", gi, sh.Name, err)
			}
			leader := out[0].Leader
			for v, o := range out {
				if o.Commit < cfg.Entries {
					t.Errorf("graph %d %s node %d committed %d entries, want ≥ %d", gi, sh.Name, v, o.Commit, cfg.Entries)
				}
				if o.Leader != leader {
					t.Errorf("graph %d %s node %d leader %d, others %d", gi, sh.Name, v, o.Leader, leader)
				}
			}
		}
	}
}

// TestRaftLogAllFamiliesFaultRegimes is the safety+liveness acceptance
// sweep: every scenario family × {lossy, crashy, crashy+lossy} — commits
// never conflict, and every survivor in the quorum component commits the
// full log.
func TestRaftLogAllFamiliesFaultRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("full family sweep is the long-mode acceptance test")
	}
	rcfg := reliable.Config{RetryBudget: 24, BackoffCap: 4}
	for _, s := range scenario.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			g := s.Build(24, 2)
			n := g.NumNodes()
			regimes := []struct {
				name string
				plan *congest.FaultPlan
			}{
				{"lossy", &congest.FaultPlan{DropProb: 0.5, Seed: 31}},
				{"crashy", &congest.FaultPlan{Crashes: congest.RandomCrashes(n, 0.2, 40, 0, 13)}},
				{"crashy+lossy", &congest.FaultPlan{Crashes: congest.RandomCrashes(n, 0.2, 40, 0, 13), DropProb: 0.3, Seed: 32}},
			}
			run := elect.RaftLogConfig{Entries: 4}.TunedFor(g.ApproxDiameter(0))
			for _, reg := range regimes {
				out, _, err := raftOver(g, run, rcfg, congest.Options{Seed: 9, Faults: reg.plan})
				if err != nil {
					t.Fatalf("%s: %v", reg.name, err)
				}
				dead := crashedSet(reg.plan)
				if err := elect.RaftLogConsistent(out, func(v graph.NodeID) bool { return dead[v] }); err != nil {
					t.Fatalf("%s: %v", reg.name, err)
				}
				for _, v := range elect.QuorumComponent(g, dead) {
					if out[v].Commit < run.Entries {
						t.Errorf("%s: quorum-component node %d committed %d entries, want ≥ %d", reg.name, v, out[v].Commit, run.Entries)
					}
				}
			}
		})
	}
}

// TestRaftLogCrossEngineIdentity requires the full faulty stack — Raft over
// reliable over a lossy, crashy engine — to be byte-identical across shard
// counts, including the transport counters.
func TestRaftLogCrossEngineIdentity(t *testing.T) {
	g := gen.Grid(5, 5)
	cfg := elect.RaftLogConfig{Entries: 4}.TunedFor(g.ApproxDiameter(0))
	rcfg := reliable.Config{RetryBudget: 16, BackoffCap: 4}
	plan := &congest.FaultPlan{
		Crashes:  []congest.Crash{{Node: 3, Round: 40}, {Node: 17, Round: 90}},
		DropProb: 0.25,
		Seed:     8,
	}
	var refOut []elect.RaftLogOutcome
	var refRS reliable.Stats
	for ei, sh := range congesttest.Shardings {
		out, rs, err := raftOver(g, cfg, rcfg, congest.Options{Seed: 4, Faults: plan, Shards: sh.Shards})
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		if ei == 0 {
			refOut, refRS = out, rs
			continue
		}
		if fmt.Sprint(out) != fmt.Sprint(refOut) {
			t.Error("raft outcomes diverged across shard counts")
		}
		if rs != refRS {
			t.Errorf("transport stats diverged: %+v vs %+v", rs, refRS)
		}
	}
}

// TestRaftLogLeaderCrash forces the scenario Raft exists for: the elected
// leader crash-stops mid-run and a new leader re-commits — safely.
func TestRaftLogLeaderCrash(t *testing.T) {
	g := gen.Grid(4, 4)
	cfg := elect.RaftLogConfig{Entries: 4}.TunedFor(g.ApproxDiameter(0))
	rcfg := reliable.Config{RetryBudget: 12, BackoffCap: 3}
	// First pass: find who leads fault-free.
	out, _, err := raftOver(g, cfg, rcfg, congest.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	leader := out[0].Leader
	if leader < 0 {
		t.Fatal("fault-free run elected no leader")
	}
	// Second pass: crash that leader mid-run. Crash rounds are PHYSICAL
	// engine rounds and the fault-free transport spends 2 physical rounds
	// per logical one, so physical round cfg.Rounds ≈ logical mid-run —
	// comfortably after the first election, with a full cycle left for the
	// successor.
	plan := &congest.FaultPlan{Crashes: []congest.Crash{{Node: leader, Round: cfg.Rounds}}}
	out, _, err = raftOver(g, cfg, rcfg, congest.Options{Seed: 6, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	dead := crashedSet(plan)
	if err := elect.RaftLogConsistent(out, func(v graph.NodeID) bool { return dead[v] }); err != nil {
		t.Fatal(err)
	}
	newLeader, sawNew := graph.NodeID(-1), false
	for v, o := range out {
		if dead[v] {
			continue
		}
		if o.Commit < cfg.Entries {
			t.Errorf("survivor %d committed %d entries, want ≥ %d", v, o.Commit, cfg.Entries)
		}
		if o.Leader != leader {
			newLeader, sawNew = o.Leader, true
		}
	}
	if !sawNew {
		t.Error("no survivor moved off the crashed leader")
	}
	if sawNew && dead[newLeader] {
		t.Errorf("successor %d is itself crashed", newLeader)
	}
}

// TestRaftLogMinorityPartitionCannotCommit pins the quorum rule: when
// crashes reduce the survivors below a quorum of the original n, no NEW
// commits happen — terms may churn forever, but safety holds trivially.
func TestRaftLogMinorityPartitionCannotCommit(t *testing.T) {
	g := gen.Ring(9)
	// Crash 5 of 9 immediately: 4 survivors < quorum (5).
	var crashes []congest.Crash
	for v := 0; v < 5; v++ {
		crashes = append(crashes, congest.Crash{Node: v, Round: 0})
	}
	cfg := elect.RaftLogConfig{Entries: 3}.TunedFor(g.ApproxDiameter(0))
	rcfg := reliable.Config{RetryBudget: 8, BackoffCap: 2}
	out, _, err := raftOver(g, cfg, rcfg, congest.Options{Seed: 2, Faults: &congest.FaultPlan{Crashes: crashes}})
	if err != nil {
		t.Fatal(err)
	}
	tried := false
	for v := 5; v < 9; v++ {
		if out[v].Commit != 0 {
			t.Errorf("minority survivor %d committed %d entries without a quorum", v, out[v].Commit)
		}
		if out[v].Elections > 0 {
			tried = true
		}
		if out[v].Term == 0 {
			t.Errorf("minority survivor %d never advanced past term 0", v)
		}
	}
	if !tried {
		t.Error("no minority survivor ever tried to elect")
	}
}
