package experiments

import (
	"fmt"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/elect"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/radio"
	"lcshortcut/internal/reliable"
	"lcshortcut/internal/scenario"
)

// FT2 is the fault-TOLERANCE sweep, the counterpart of FT1's fault-injection
// table: where FT1 measures how unprotected protocols degrade, FT2 runs the
// tolerant stack built for ROADMAP item 3 under regimes harsh enough to kill
// every unprotected workload, and every row carries a hard pass predicate:
//
//   - lossy-0.5:    reliable broadcast at 50% message drop — the transport's
//     retransmission must still inform every node;
//   - crashy:       committing Raft with ~15% crash-stop nodes — no
//     conflicting commits ever, and the surviving quorum component commits
//     the full log;
//   - crashy+lossy: the same Raft run with 30% drop layered on top;
//   - radio:        Decay broadcast on the collision channel — the geometric
//     backoff must push the rumor through contention to every node.
//
// Every family runs at one fixed small size so the sweep stays cheap enough
// for the short registry; the protocols' shard-count identity and larger
// regimes live in the package test suites.

const (
	ft2Seed      = 2016 // run seed (PODC'16, tolerant edition)
	ft2Size      = 32   // requested nodes per family (families may round up)
	ft2CrashFrac = 0.15 // crashy regimes: per-node crash probability
	ft2Window    = 30   // crashy regimes: crashes land in physical rounds [1, 30]
	ft2Drop      = 0.3  // crashy+lossy: per-message drop probability
	ft2Entries   = 4    // raft: log length the leader drives to
)

var ft2Regimes = []string{"lossy-0.5", "crashy", "crashy+lossy", "radio"}

var expFT2 = &Experiment{
	ID:    "FT2",
	Title: "fault tolerance — reliable transport, committing Raft and radio Decay under heavy fault regimes across every graph family",
	Ref:   "ROADMAP item 3 (tolerant protocols over the fault layer); Czumaj–Davies (PAPERS.md) for the radio collision model",
	Bound: "every row is bound-checked: reliable broadcast informs every reachable survivor at drop 0.5, Raft commits never conflict and the quorum component commits the full log, and Decay reaches every node over the collision channel",
	Grid:  ft2Axis,
	Run:   runFT2,
}

func ft2Axis(bool) []GridAxis {
	fam := GridAxis{Name: "family"}
	for _, s := range scenario.All() {
		fam.Values = append(fam.Values, s.Name)
	}
	reg := GridAxis{Name: "regime", Values: append([]string(nil), ft2Regimes...)}
	return []GridAxis{fam, reg, axis("n", itoa(ft2Size))}
}

// ft2RelConfig: a tight failure-detector budget keeps crash excision fast; 18
// tries never misfire at drop ≤ 0.5 (p^18 ≈ 4e-6 at the worst regime).
var ft2RelConfig = reliable.Config{RetryBudget: 18, BackoffCap: 4}

func ft2CrashPlan(n int, drop float64) *congest.FaultPlan {
	return &congest.FaultPlan{
		Crashes:  congest.RandomCrashes(n, ft2CrashFrac, ft2Window, 0, ft2Seed),
		DropProb: drop,
		Seed:     ft2Seed,
	}
}

// ft2Broadcast runs the rumor flood over the reliable transport and reports
// informed count, the slowest informed node's logical round, and coverage
// against survivor reachability.
func ft2Broadcast(rc *RunContext, g *graph.Graph, plan *congest.FaultPlan) (row []string, ok bool, err error) {
	n := g.NumNodes()
	dead := crashedOf(plan)
	heardAt, flood := rumorFlood(n, n+2)
	stats, rstats, err := reliable.Run(g, func(ctx *reliable.Ctx) error { return flood(ctx) }, ft2RelConfig, congest.Options{Seed: ft2Seed, Faults: plan})
	rc.Record(stats)
	if err != nil {
		return nil, false, err
	}
	reach := survivorReach(g, 0, dead)
	informed, total, okCover := 0, 0, true
	for v, at := range heardAt {
		if dead[v] {
			continue
		}
		total++
		if at >= 0 {
			informed++
		} else if reach[v] {
			okCover = false
		}
	}
	return []string{
		"bcast", itoa(rstats.LogicalRounds), itoa(rstats.PhysicalRounds),
		i64(stats.Messages), i64(rstats.Retransmits), itoa(rstats.DeadArcs),
		fmt.Sprintf("cover %d/%d", informed, total),
	}, okCover, nil
}

// ft2Raft runs the committing Raft over the reliable transport under plan and
// checks the PR's acceptance predicate: commit safety everywhere, full-log
// liveness in the surviving quorum component.
func ft2Raft(rc *RunContext, g *graph.Graph, plan *congest.FaultPlan) (row []string, ok bool, err error) {
	n := g.NumNodes()
	dead := crashedOf(plan)
	cfg := elect.RaftLogConfig{Entries: ft2Entries}.TunedFor(g.ApproxDiameter(0))
	out := make([]elect.RaftLogOutcome, n)
	stats, rstats, err := reliable.Run(g, func(ctx *reliable.Ctx) error {
		return elect.RaftLogNet(ctx, cfg, out)
	}, ft2RelConfig, congest.Options{Seed: ft2Seed, Faults: plan})
	rc.Record(stats)
	if err != nil {
		return nil, false, err
	}
	safe := elect.RaftLogConsistent(out, func(v graph.NodeID) bool { return dead[v] }) == nil
	live := true
	minCommit := -1
	for _, v := range elect.QuorumComponent(g, dead) {
		if out[v].Commit < cfg.Entries {
			live = false
		}
		if minCommit < 0 || out[v].Commit < minCommit {
			minCommit = out[v].Commit
		}
	}
	detail := fmt.Sprintf("commit %d/%d safe=%v", minCommit, cfg.Entries, safe)
	if minCommit < 0 {
		detail = fmt.Sprintf("no quorum component safe=%v", safe)
	}
	return []string{
		"raft", itoa(rstats.LogicalRounds), itoa(rstats.PhysicalRounds),
		i64(stats.Messages), i64(rstats.Retransmits), itoa(rstats.DeadArcs),
		detail,
	}, safe && live, nil
}

// ft2Decay runs the Decay broadcast on the radio collision channel.
func ft2Decay(rc *RunContext, g *graph.Graph) (row []string, ok bool, err error) {
	cfg := radio.DecayConfig{Phases: 2*g.ApproxDiameter(0) + 10}
	out := make([]radio.DecayOutcome, g.NumNodes())
	stats, err := rc.Run(g, radio.Decay(cfg, out),
		congest.Options{Seed: ft2Seed, Model: congest.ModelRadio})
	if err != nil {
		return nil, false, err
	}
	informed, total := radio.DecayCoverage(out, nil)
	return []string{
		"decay", "-", itoa(stats.Rounds),
		i64(stats.Messages), "-", "-",
		fmt.Sprintf("cover %d/%d", informed, total),
	}, informed == total, nil
}

// crashedOf collects a plan's crash-stop victims.
func crashedOf(plan *congest.FaultPlan) map[graph.NodeID]bool {
	dead := map[graph.NodeID]bool{}
	if plan != nil {
		for _, cr := range plan.Crashes {
			dead[cr.Node] = true
		}
	}
	return dead
}

func runFT2(rc *RunContext) (*Table, error) {
	t := &Table{
		Header: []string{"family", "n", "regime", "workload", "log_rounds", "phys_rounds", "msgs", "retx", "dead_arcs", "detail", "ok?"},
	}
	for _, s := range scenario.All() {
		g := s.Build(ft2Size, 1)
		n := g.NumNodes()
		for _, reg := range ft2Regimes {
			var (
				row []string
				ok  bool
				err error
			)
			switch reg {
			case "lossy-0.5":
				row, ok, err = ft2Broadcast(rc, g, &congest.FaultPlan{DropProb: 0.5, Seed: ft2Seed})
			case "crashy":
				row, ok, err = ft2Raft(rc, g, ft2CrashPlan(n, 0))
			case "crashy+lossy":
				row, ok, err = ft2Raft(rc, g, ft2CrashPlan(n, ft2Drop))
			case "radio":
				row, ok, err = ft2Decay(rc, g)
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", s.Name, reg, err)
			}
			t.Rows = append(t.Rows, append([]string{s.Name, itoa(n), reg}, append(row, okStr(ok))...))
		}
	}
	return t, nil
}
