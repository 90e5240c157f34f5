package experiments

import (
	"errors"
	"fmt"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/elect"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/reliable"
	"lcshortcut/internal/scenario"
)

// FT1 is the fault-tolerance sweep (FT to keep clear of F1, the Figure 1
// reproduction): it reruns the engine's three communication workloads — rumor
// broadcast, the BFS opening phase, and flood-max leader election — across
// the scenario registry under three network regimes:
//
//   - fault-free: the baseline every bound in this repo is stated for;
//   - crashy:     ~15% of nodes crash-stop inside the first 5 rounds
//     (the broadcast source, node 0, is spared so coverage stays defined);
//   - lossy:      every message is dropped independently with probability
//     15%, and the scheduler adversary rotates inbox order.
//
// The point of the table is the *blowup*: faulty rows are measured against
// the fault-free baseline in the same rows, not against a theorem. Bounds are
// therefore only checked on fault-free rows — protocols without a failure
// detector (BFS opening) are expected to fail loudly (watchdog) under faults,
// and that observed status is part of the record.
//
// The crashy+rel and lossy+rel rows rerun broadcast and election under the
// SAME fault plans but over the reliable transport (internal/reliable), and
// these rows ARE bound-checked: the rumor must reach every survivor reachable
// from the source in the survivor graph, and every surviving connected
// component must elect unanimously — fault tolerance as a pass predicate,
// not a descriptive row.

// ft1Regimes: the three network regimes, in presentation order. plan is
// size-dependent because crash schedules name concrete nodes.
var ft1Regimes = []struct {
	name string
	rel  bool // run the workloads over the reliable transport, bound-checked
	plan func(n int) *congest.FaultPlan
}{
	{"fault-free", false, func(int) *congest.FaultPlan { return nil }},
	{"crashy", false, ft1CrashyPlan},
	{"lossy", false, ft1LossyPlan},
	{"crashy+rel", true, ft1CrashyPlan},
	{"lossy+rel", true, ft1LossyPlan},
}

func ft1CrashyPlan(n int) *congest.FaultPlan {
	return &congest.FaultPlan{Crashes: congest.RandomCrashes(n, ft1CrashFrac, ft1CrashWindow, 0, ft1Seed), Seed: ft1Seed}
}

func ft1LossyPlan(int) *congest.FaultPlan {
	return &congest.FaultPlan{DropProb: ft1DropProb, Adversary: congest.AdversaryRotate, Seed: ft1Seed}
}

const (
	ft1Seed        = 1016 // plan seed (PODC'16)
	ft1CrashFrac   = 0.15 // crashy: per-node crash probability
	ft1CrashWindow = 5    // crashy: crashes land in rounds [1, 5]
	ft1DropProb    = 0.15 // lossy: per-message drop probability
)

// ft1Beat is the 1-bit rumor payload.
type ft1Beat struct{}

func (ft1Beat) Bits() int { return 1 }

var expFT1 = &Experiment{
	ID:    "FT1",
	Title: "fault injection — broadcast, BFS opening and leader election under crash-stop and lossy regimes across every graph family",
	Ref:   "§2 CONGEST model, relaxed per ROADMAP item 3 (crash-stop nodes, lossy links, adversarial inbox order)",
	Bound: "on fault-free rows: the rumor covers all n nodes within the BFS lower-bound distance, the opening phase succeeds, and election is unanimous; raw faulty rows record the measured degradation and are not bound-checked; +rel rows run over the reliable transport and MUST inform every reachable survivor and elect unanimously per surviving component",
	Grid:  ft1Axis,
	Run:   runFT1,
}

func ft1Axis(short bool) []GridAxis {
	ax := scenAxis(short)
	regimes := GridAxis{Name: "regime"}
	for _, reg := range ft1Regimes {
		regimes.Values = append(regimes.Values, reg.name)
	}
	return append(ax, regimes)
}

// rumorFlood returns heardAt, every entry -1, and the flood of a rumor from
// node 0 for a fixed round budget over any congest.Net: a node that knows
// the rumor sends it on every arc every round, and a node that finishes
// records in heardAt[v] the round it first heard it (0 at the source), so
// heardAt stays -1 for a node that never heard or crashed before finishing.
func rumorFlood(n, budget int) (heardAt []int, flood func(congest.Net) error) {
	heardAt = make([]int, n)
	for v := range heardAt {
		heardAt[v] = -1
	}
	return heardAt, func(net congest.Net) error {
		knows, at := net.ID() == 0, 0
		for r := 0; r < budget; r++ {
			if knows {
				net.SendAll(ft1Beat{})
			}
			if len(net.StepRound()) > 0 && !knows {
				knows, at = true, r+1
			}
		}
		if knows {
			heardAt[net.ID()] = at
		}
		return nil
	}
}

// ft1Broadcast runs rumorFlood on the raw engine and reports how far and how
// fast the rumor spread.
func ft1Broadcast(rc *RunContext, g *graph.Graph, budget int, plan *congest.FaultPlan) (heardAt []int, stats congest.Stats, err error) {
	heardAt, flood := rumorFlood(g.NumNodes(), budget)
	stats, err = rc.Run(g, func(ctx *congest.Ctx) error { return flood(ctx) }, congest.Options{Seed: 1, Faults: plan})
	return heardAt, stats, err
}

// ft1ReliableBroadcast is ft1Broadcast over the reliable transport: the same
// flood, experiencing a loss-free logical network among the survivors.
func ft1ReliableBroadcast(rc *RunContext, g *graph.Graph, budget int, plan *congest.FaultPlan) (heardAt []int, stats congest.Stats, err error) {
	heardAt, flood := rumorFlood(g.NumNodes(), budget)
	stats, _, err = reliable.Run(g, func(ctx *reliable.Ctx) error { return flood(ctx) }, ft1RelConfig, congest.Options{Seed: 1, Faults: plan})
	rc.Record(stats)
	return heardAt, stats, err
}

// ft1RelConfig bounds the transport's failure detector so crash-stop nodes
// are excised quickly; at drop 0.15 a 12-probe budget never misfires.
var ft1RelConfig = reliable.Config{RetryBudget: 12, BackoffCap: 3}

// survivorReach flags the nodes reachable from src through live nodes.
func survivorReach(g *graph.Graph, src graph.NodeID, dead map[graph.NodeID]bool) []bool {
	reach := make([]bool, g.NumNodes())
	if dead[src] {
		return reach
	}
	queue := []graph.NodeID{src}
	reach[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		to, _ := g.Arcs(v)
		for _, w := range to {
			if !reach[w] && !dead[int(w)] {
				reach[w] = true
				queue = append(queue, int(w))
			}
		}
	}
	return reach
}

// componentsAgree checks election unanimity within every surviving connected
// component (crashes can disconnect the graph; cross-component disagreement
// is expected and not a failure).
func componentsAgree(g *graph.Graph, dead map[graph.NodeID]bool, out []elect.Outcome) bool {
	n := g.NumNodes()
	seen := make([]bool, n)
	for s := 0; s < n; s++ {
		if seen[s] || dead[s] {
			continue
		}
		comp := []graph.NodeID{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			to, _ := g.Arcs(comp[i])
			for _, w := range to {
				if !seen[w] && !dead[int(w)] {
					seen[w] = true
					comp = append(comp, int(w))
				}
			}
		}
		for _, v := range comp {
			if out[v].Leader != out[comp[0]].Leader {
				return false
			}
		}
	}
	return true
}

// runFT1 sweeps the registry across the five regimes. Simulation errors on
// faulty raw rows are data (the BFS watchdog firing is the expected failure
// mode); errors on fault-free or reliable rows abort the experiment.
func runFT1(rc *RunContext) (*Table, error) {
	t := &Table{
		Header: []string{"family", "n", "regime", "alive", "bc_cover", "bc_rounds", "bc_msgs", "bfs", "bfs_msgs", "el_agree", "el_msgs", "ok?"},
	}
	for _, s := range scenario.All() {
		for _, size := range scenSizes(s, rc.Short) {
			g := s.Build(size, 1)
			n := g.NumNodes()
			d := g.ApproxDiameter(0)
			budget := 2*d + 8
			for _, reg := range ft1Regimes {
				plan := reg.plan(n)
				faultFree := plan == nil
				dead := map[graph.NodeID]bool{}
				if plan != nil {
					for _, cr := range plan.Crashes {
						dead[cr.Node] = true
					}
				}
				alive := n - len(dead)

				if reg.rel {
					// Reliable rows: the same workloads over the transport,
					// with hard pass predicates. Crashes can sever the
					// survivor graph, so coverage is judged against
					// reachability and election per component; budgets scale
					// with n because severing can stretch distances.
					relBudget := budget
					if len(dead) > 0 {
						relBudget = n + 2
					}
					heardAt, bcStats, err := ft1ReliableBroadcast(rc, g, relBudget, plan)
					if err != nil {
						return nil, fmt.Errorf("%s/n=%d/%s: reliable broadcast: %w", s.Name, size, reg.name, err)
					}
					reach := survivorReach(g, 0, dead)
					covered, coverR, coverOK := 0, -1, true
					for v, at := range heardAt {
						if dead[v] {
							continue
						}
						if at >= 0 {
							covered++
							if at > coverR {
								coverR = at
							}
						} else if reach[v] {
							coverOK = false
						}
					}
					out := make([]elect.Outcome, n)
					elStats, _, err := reliable.Run(g, func(ctx *reliable.Ctx) error {
						return elect.FloodNet(ctx, relBudget, out)
					}, ft1RelConfig, congest.Options{Seed: 2, Faults: plan})
					rc.Record(elStats)
					if err != nil {
						return nil, fmt.Errorf("%s/n=%d/%s: reliable elect: %w", s.Name, size, reg.name, err)
					}
					agreed := componentsAgree(g, dead, out)
					elStr := "agree"
					if !agreed {
						elStr = "split"
					}
					t.Rows = append(t.Rows, []string{
						s.Name, itoa(n), reg.name, itoa(alive),
						itoa(covered), itoa(coverR), i64(bcStats.Messages),
						"-", "-",
						elStr, i64(elStats.Messages),
						okStr(coverOK && agreed),
					})
					continue
				}

				heardAt, bcStats, err := ft1Broadcast(rc, g, budget, plan)
				if err != nil {
					return nil, fmt.Errorf("%s/n=%d/%s: broadcast: %w", s.Name, size, reg.name, err)
				}
				covered, coverR := 0, -1
				for v, at := range heardAt {
					if dead[v] || at < 0 {
						continue
					}
					covered++
					if at > coverR {
						coverR = at
					}
				}

				// BFS opening under a tight watchdog: a protocol with no
				// failure detector must fail loudly, never hang or corrupt.
				bfsStatus := "ok"
				_, bfsStats, err := bfsproto.Run(g, 0, 7, congest.Options{MaxRounds: 4*(d+2) + 8, Faults: plan})
				rc.Record(bfsStats)
				switch {
				case err == nil:
				case errors.Is(err, congest.ErrMaxRounds):
					bfsStatus = "watchdog"
				default:
					bfsStatus = "error"
				}
				if faultFree && bfsStatus != "ok" {
					return nil, fmt.Errorf("%s/n=%d/%s: bfs: %w", s.Name, size, reg.name, err)
				}

				out := make([]elect.Outcome, n)
				elStats, err := rc.Run(g, elect.Flood(budget, out), congest.Options{Seed: 2, Faults: plan})
				if err != nil {
					return nil, fmt.Errorf("%s/n=%d/%s: elect: %w", s.Name, size, reg.name, err)
				}
				_, agreed := elect.Agreed(out, func(v graph.NodeID) bool { return dead[v] })
				elStr := "agree"
				if !agreed {
					elStr = "split"
				}

				okCell := "-"
				if faultFree {
					okCell = okStr(covered == n && coverR >= 0 && coverR <= d && bfsStatus == "ok" && agreed)
				}
				t.Rows = append(t.Rows, []string{
					s.Name, itoa(n), reg.name, itoa(alive),
					itoa(covered), itoa(coverR), i64(bcStats.Messages),
					bfsStatus, i64(bfsStats.Messages),
					elStr, i64(elStats.Messages),
					okCell,
				})
			}
		}
	}
	return t, nil
}
