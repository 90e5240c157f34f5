// Package engbench defines the CONGEST engine microbenchmark scenarios and a
// self-contained harness for measuring them at one shard and, on a
// multi-core host, at one shard per core. The scenarios are shared by the
// repository's `go test -bench BenchmarkCongest` suite and by
// `cmd/experiments -bench-json`, which records the measurements in
// BENCH_engine.json so the engine's perf trajectory is tracked in-repo;
// cmd/benchdiff compares a fresh run against that committed baseline in CI.
//
// Workload graphs come from the central scenario registry
// (internal/scenario) — the suite below names (scenario, size, protocol)
// triples instead of hand-rolling generator calls, so registering a family
// there is all it takes to make it benchmarkable here. Protocol selection:
//
//   - broadcast flood — every node broadcasts to every neighbor every round:
//     maximum traffic, stressing the send fast path and inbox assembly;
//     run across every graph family (meshes, expanders, scale-free hubs,
//     communities, surfaces) since degree profile dominates this cost.
//   - sparse token ring — one token circulates a large ring: almost no
//     traffic, isolating per-round engine overhead (the barrier and the
//     O(degree) inbox scan of every stepping node).
//   - BFS opening — the real bfsproto phase every composite protocol starts
//     with, on the two largest families (grid at 65536, er-sparse at 50000).
//   - min-cut packing — the full internal/mincut protocol (two packed MSTs
//     over the canonical shortcut plus witness certification) on a small
//     grid: the heaviest composite workload, tracking the cost of the
//     partops cast pipelines end to end.
//
// Both microbenchmark protocols allocate nothing per round themselves
// (zero-size payloads box without allocating, StepRound returns a reused
// buffer), so measured allocs/op expose engine allocations only.
package engbench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/core"
	"lcshortcut/internal/elect"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/mincut"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/radio"
	"lcshortcut/internal/reliable"
	"lcshortcut/internal/scenario"
	"lcshortcut/internal/tree"
)

// beat is the zero-size microbenchmark payload: converting it to the Payload
// interface allocates nothing, so steady-state engine allocations are
// measured without protocol noise.
type beat struct{}

// Bits reports a 1-bit signal.
func (beat) Bits() int { return 1 }

// Scenario is one engine workload: a registry graph family at a fixed size
// plus a protocol run.
type Scenario struct {
	// Name identifies the workload in benchmark output and
	// BENCH_engine.json, derived as <protocol>/<family>-n<nodes> from the
	// registry scenario it wraps.
	Name string
	// Heavy marks scenarios too slow for smoke runs (the committing Raft,
	// the million-node flood): benchmark smoke runs skip them and
	// MeasureSuite times exactly one iteration.
	Heavy bool
	// Graph returns the scenario's graph, built once and cached.
	Graph func() *graph.Graph
	// Run performs one simulation on g cut into shards shards
	// (congest.Options.Shards). nil when Variants is set.
	Run func(g *graph.Graph, shards int) (congest.Stats, error)
	// Variants, when non-empty, replaces the engine rows: the scenario is
	// measured once per variant and the variant name fills the report's
	// engine column. Used by workloads whose interesting axis is not the
	// CONGEST engine (the findshortcut construction's sequential/parallel
	// walk paths).
	Variants []Variant
}

// Variant is one named way to run a variant-bearing scenario.
type Variant struct {
	Name string
	Run  func(g *graph.Graph) (congest.Stats, error)
}

// engineRow is one row of the engine axis: its report label and shard
// count.
type engineRow struct {
	name   string
	shards int
}

// engineAxis is the engine axis on this host: one shard ("event-loop")
// always, and one shard per core ("sharded") only when GOMAXPROCS is above
// one, since on one core that row would measure the first row's code again.
func engineAxis() []engineRow {
	axis := []engineRow{{"event-loop", 1}}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		axis = append(axis, engineRow{"sharded", p})
	}
	return axis
}

// Rows returns the ways sc is measured: its Variants, or else one row per
// entry of the engine axis.
func (sc Scenario) Rows() []Variant {
	if len(sc.Variants) > 0 {
		return sc.Variants
	}
	var rows []Variant
	for _, e := range engineAxis() {
		rows = append(rows, Variant{Name: e.name, Run: func(g *graph.Graph) (congest.Stats, error) {
			return sc.Run(g, e.shards)
		}})
	}
	return rows
}

// BroadcastProc floods every edge in both directions for `rounds` rounds —
// the maximum-traffic protocol (every node receives degree messages per
// round and rebroadcasts).
func BroadcastProc(rounds int) congest.Proc {
	return func(ctx *congest.Ctx) error {
		for r := 0; r < rounds; r++ {
			ctx.SendAll(beat{})
			ctx.StepRound()
		}
		return nil
	}
}

// TokenRingProc circulates a single token around an n-ring for `rounds`
// rounds — the sparse-traffic protocol: exactly one message is in flight per
// round while every node still steps every barrier.
func TokenRingProc(n, rounds int) congest.Proc {
	return func(ctx *congest.Ctx) error {
		next := ctx.ArcIndex((ctx.ID() + 1) % n)
		have := ctx.ID() == 0
		for r := 0; r < rounds; r++ {
			if have {
				ctx.SendArc(next, beat{})
				have = false
			}
			if len(ctx.StepRound()) > 0 {
				have = true
			}
		}
		return nil
	}
}

func cached(build func() *graph.Graph) func() *graph.Graph {
	var once sync.Once
	var g *graph.Graph
	return func() *graph.Graph {
		once.Do(func() { g = build() })
		return g
	}
}

// graphOf resolves a registry scenario at a fixed requested size into a
// cached graph constructor plus the derived workload name prefix.
func graphOf(family string, n int, seed int64) (string, func() *graph.Graph) {
	sc := scenario.MustGet(family)
	name := fmt.Sprintf("%s-n%d", family, sc.NumNodes(n))
	return name, cached(func() *graph.Graph { return sc.Build(n, seed) })
}

// broadcastOn builds a maximum-traffic flood workload on a registry family.
func broadcastOn(family string, n int, seed int64) Scenario {
	const floodSteps = 96
	name, g := graphOf(family, n, seed)
	return Scenario{
		Name:  "broadcast/" + name,
		Graph: g,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			return congest.Run(g, BroadcastProc(floodSteps), congest.Options{Seed: 1, Shards: shards})
		},
	}
}

// broadcastLargeOn builds a short flood on a million-node-scale registry
// family. The workload exists to compare one shard against one shard per
// core at a scale where per-round parallelism dominates; the flood is cut
// to 24 rounds so a single Heavy iteration stays in seconds.
func broadcastLargeOn(family string, n int, seed int64) Scenario {
	const floodSteps = 24
	name, g := graphOf(family, n, seed)
	return Scenario{
		Name:  "broadcast/" + name,
		Heavy: true,
		Graph: g,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			return congest.Run(g, BroadcastProc(floodSteps), congest.Options{Seed: 1, Shards: shards})
		},
	}
}

// faultyBroadcastOn builds the same maximum-traffic flood under a lossy
// adversarial network: every fault-layer hot path is on (drop hashing on
// every send, nil-payload drop stamps, per-inbox rotation), so the measurement
// tracks the faulty path's overhead against the fault-free flood recorded
// next to it.
func faultyBroadcastOn(family string, n int, seed int64) Scenario {
	const floodSteps = 96
	name, g := graphOf(family, n, seed)
	plan := &congest.FaultPlan{DropProb: 0.2, Adversary: congest.AdversaryRotate, Seed: 11}
	return Scenario{
		Name:  "faulty/broadcast-" + name,
		Graph: g,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			return congest.Run(g, BroadcastProc(floodSteps), congest.Options{Seed: 1, Faults: plan, Shards: shards})
		},
	}
}

// faultyElectOn builds a leader-election workload under combined crash-stop
// and loss — the first protocol written for the faulty regime, measured end
// to end (including its per-run outcome slice).
func faultyElectOn(family string, n int, seed int64) Scenario {
	const electRounds = 64
	name, g := graphOf(family, n, seed)
	var once sync.Once
	var plan *congest.FaultPlan
	return Scenario{
		Name:  "faulty/elect-" + name,
		Graph: g,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			once.Do(func() {
				plan = &congest.FaultPlan{
					Crashes:   congest.RandomCrashes(g.NumNodes(), 0.1, 8, -1, 11),
					DropProb:  0.1,
					Adversary: congest.AdversaryRotate,
					Seed:      11,
				}
			})
			out := make([]elect.Outcome, g.NumNodes())
			return congest.Run(g, elect.Flood(electRounds, out), congest.Options{Seed: 1, Faults: plan, Shards: shards})
		},
	}
}

// reliableBroadcastOn builds the flood over the per-arc reliable transport on
// a 10%-lossy link plan: the measurement covers the transport end to end —
// framing, cumulative-ACK piggybacking, backoff retransmission — on top of
// whichever engine is selected, so it tracks the tolerant stack's overhead
// next to the raw broadcast recorded above.
func reliableBroadcastOn(family string, n int, seed int64) Scenario {
	const floodSteps = 24
	name, g := graphOf(family, n, seed)
	plan := &congest.FaultPlan{DropProb: 0.1, Seed: 11}
	return Scenario{
		Name:  "reliable/broadcast-" + name,
		Graph: g,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			stats, _, err := reliable.Run(g, func(ctx *reliable.Ctx) error {
				for r := 0; r < floodSteps; r++ {
					ctx.SendAll(beat{})
					ctx.StepRound()
				}
				return nil
			}, reliable.Config{}, congest.Options{Seed: 1, Faults: plan, Shards: shards})
			return stats, err
		},
	}
}

// raftCommitOn builds the committing-Raft consensus workload: a full
// election-plus-replication run to a committed log, fault-free, with
// diameter-tuned timing. The heaviest per-round payloads in the repo (full
// log views, freshly copied each round) make this the gossip-bandwidth
// stress test — tens of seconds and ~13GB allocated per run at n=1024, so
// it is Heavy: recorded in the full baseline, skipped by the smoke gate.
func raftCommitOn(family string, n int, seed int64) Scenario {
	name, g := graphOf(family, n, seed)
	var once sync.Once
	var cfg elect.RaftLogConfig
	return Scenario{
		Name:  "raft/commit-" + name,
		Heavy: true,
		Graph: g,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			once.Do(func() {
				cfg = elect.RaftLogConfig{Entries: 4}.TunedFor(g.ApproxDiameter(0))
			})
			out := make([]elect.RaftLogOutcome, g.NumNodes())
			return congest.Run(g, func(ctx *congest.Ctx) error {
				return elect.RaftLogNet(ctx, cfg, out)
			}, congest.Options{Seed: 1, Shards: shards})
		},
	}
}

// radioBroadcastOn builds the Decay broadcast on the collision channel: every
// round resolves contention across each receiver's whole neighborhood, so the
// radio inbox path is the measured cost.
func radioBroadcastOn(family string, n int, seed int64) Scenario {
	name, g := graphOf(family, n, seed)
	var once sync.Once
	var cfg radio.DecayConfig
	return Scenario{
		Name:  "radio/broadcast-" + name,
		Graph: g,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			once.Do(func() {
				cfg = radio.DecayConfig{Phases: 2*g.ApproxDiameter(0) + 10}
			})
			out := make([]radio.DecayOutcome, g.NumNodes())
			return congest.Run(g, radio.Decay(cfg, out),
				congest.Options{Seed: 1, Model: congest.ModelRadio, Shards: shards})
		},
	}
}

// bfsOpenOn builds a BFS-opening workload on a registry family.
func bfsOpenOn(family string, n int, seed int64) Scenario {
	name, g := graphOf(family, n, seed)
	return Scenario{
		Name:  "bfsopen/" + name,
		Graph: g,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			_, stats, err := bfsproto.Run(g, 0, 7, congest.Options{Shards: shards})
			return stats, err
		},
	}
}

// findShortcutOn builds the centralized FindShortcut construction workload
// on a registry family — the S1 shape (sqrt(n)-seed Voronoi partition, BFS
// tree from vertex 0) through the Appendix A doubling driver — measured once
// per walk path: sequential (workers = 1) and the parallel worker pool
// (workers = GOMAXPROCS; output byte-identical by the determinism contract,
// see DESIGN.md). The construction is centralized, so no CONGEST rounds run
// and the reported sim counters are zero. The partition and the tree are
// the construction's input, so Graph builds them with the graph, outside
// the timed runs.
func findShortcutOn(family string, n int, seed int64) Scenario {
	name, graphFn := graphOf(family, n, seed)
	var once sync.Once
	var tr *tree.Tree
	var p *partition.Partition
	input := func(g *graph.Graph) (*tree.Tree, *partition.Partition) {
		once.Do(func() {
			seeds := 1
			for (seeds+1)*(seeds+1) <= g.NumNodes() {
				seeds++
			}
			p = partition.Voronoi(g, seeds, 2)
			tr = tree.BFSTree(g, 0)
		})
		return tr, p
	}
	run := func(workers int) func(g *graph.Graph) (congest.Stats, error) {
		return func(g *graph.Graph) (congest.Stats, error) {
			tr, p := input(g)
			_, err := core.FindShortcutAuto(tr, p, 11, false, workers)
			return congest.Stats{}, err
		}
	}
	return Scenario{
		Name: "findshortcut/" + name,
		Graph: func() *graph.Graph {
			g := graphFn()
			input(g)
			return g
		},
		Variants: []Variant{
			{Name: "sequential", Run: run(1)},
			{Name: "parallel", Run: run(0)},
		},
	}
}

// Scenarios returns the engine benchmark suite: every graph family at
// ~2k nodes under the broadcast flood (all six new families included — the
// degree profile is what differentiates them), the sparse token ring, and
// the two large BFS openings (each takes about a second and stays in the
// short/gate suite).
func Scenarios() []Scenario {
	const (
		ringN  = 1024
		floodN = 2048
	)
	suite := []Scenario{}
	// Broadcast flood across the family spectrum: mesh (grid), expander
	// (er-dense, regular), scale-free hubs (ba), geometric locality,
	// hypercube, community (caveman), and the genus-3 surface mesh.
	for _, family := range []string{"grid", "er-dense", "ba", "geometric", "regular", "hypercube", "caveman", "surface"} {
		suite = append(suite, broadcastOn(family, floodN, 5))
	}
	// Faulty variants: the flood under a lossy adversarial network (every
	// fault-layer hot path on) and leader election under crash+loss —
	// tracking the fault layer's overhead next to the fault-free floods.
	suite = append(suite,
		faultyBroadcastOn("grid", floodN, 5),
		faultyBroadcastOn("er-dense", floodN, 5),
		faultyElectOn("grid", ringN, 5),
	)
	// The tolerant stack (PR 8): the reliable-transport flood, a full
	// committing-Raft consensus run, and the Decay broadcast on the radio
	// collision channel.
	suite = append(suite,
		reliableBroadcastOn("grid", floodN, 5),
		raftCommitOn("grid", ringN, 5),
		radioBroadcastOn("er-sparse", floodN, 5),
	)
	ringName, ringGraph := graphOf("ring", ringN, 1)
	suite = append(suite, Scenario{
		Name:  "tokenring/" + ringName,
		Graph: ringGraph,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			return congest.Run(g, TokenRingProc(g.NumNodes(), g.NumNodes()), congest.Options{Seed: 1, Shards: shards})
		},
	})
	// The min-cut tree-packing protocol: the heaviest composite workload —
	// per run it simulates two packed Boruvka MSTs over the canonical
	// shortcut plus the witness certification pass, exercising the partops
	// cast pipelines end to end.
	mcName, mcGraph := graphOf("grid", 64, 3)
	suite = append(suite, Scenario{
		Name:  "mincut/" + mcName,
		Graph: mcGraph,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			_, stats, err := mincut.Run(g, 0, 7, mincut.Config{Trees: 2}, congest.Options{Shards: shards})
			return stats, err
		},
	})
	suite = append(suite,
		bfsOpenOn("grid", 65536, 1),
		bfsOpenOn("er-sparse", 50000, 1),
	)
	// The million-node flood (PR 9): preferential attachment keeps the
	// diameter logarithmic, so 24 rounds saturate every arc without the
	// ~2000-round diameter a million-node mesh would need. The nightly
	// large-n CI job gates the sharded row faster on every n >= 1e5
	// scenario.
	suite = append(suite, broadcastLargeOn("ba", 1000000, 7))
	// The centralized FindShortcut construction hot path, sequential vs the
	// parallel worker pool, on a mid-size mesh and the two largest families.
	suite = append(suite,
		findShortcutOn("geometric", 2048, 5),
		findShortcutOn("grid", 16384, 1),
		findShortcutOn("er-sparse", 50000, 1),
	)
	return suite
}

// Measurement is one (scenario, engine) timing.
type Measurement struct {
	Scenario    string `json:"scenario"`
	Engine      string `json:"engine"`
	Iters       int    `json:"iters"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	SimRounds   int    `json:"sim_rounds"`
	SimMessages int64  `json:"sim_messages"`
}

// Report is the BENCH_engine.json document: one measurement per (scenario,
// row). Engines lists the engine rows measured on this host. The host
// metadata (go_version, gomaxprocs) is load-bearing: cmd/benchdiff refuses
// to compare reports whose recording configurations differ, since absolute
// ns/op does not transfer across Go releases or core counts (the sharded
// row in particular is meaningless without GOMAXPROCS).
type Report struct {
	GoVersion  string        `json:"go_version"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Engines    []string      `json:"engines"`
	Results    []Measurement `json:"results"`
}

// MeasureSuite runs the rows of every scenario in suite (Scenarios(), or a
// reduced list in tests) and assembles the report. minIters and minDuration
// bound each measurement (whichever is hit last); smoke runs pass (1, 0) and
// skipHeavy to drop the minutes-long scenarios.
func MeasureSuite(suite []Scenario, minIters int, minDuration time.Duration, skipHeavy bool) (*Report, error) {
	if minIters < 1 {
		minIters = 1
	}
	rep := &Report{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, e := range engineAxis() {
		rep.Engines = append(rep.Engines, e.name)
	}
	for _, sc := range suite {
		if sc.Heavy && skipHeavy {
			continue
		}
		g := sc.Graph()
		for _, row := range sc.Rows() {
			m, err := measureRun(sc.Name, row.Name, sc.Heavy, row.Run, g, minIters, minDuration)
			if err != nil {
				return nil, err
			}
			rep.Results = append(rep.Results, m)
		}
	}
	return rep, nil
}

func measureRun(name, engine string, heavy bool, run func(*graph.Graph) (congest.Stats, error), g *graph.Graph, minIters int, minDuration time.Duration) (Measurement, error) {
	if heavy {
		minIters, minDuration = 1, 0
	} else {
		// Warm engine pools and graph views outside the timed region (heavy
		// scenarios amortize their cold start over a minutes-long run).
		if _, err := run(g); err != nil {
			return Measurement{}, err
		}
	}
	var stats congest.Stats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for iters < minIters || time.Since(start) < minDuration {
		var err error
		if stats, err = run(g); err != nil {
			return Measurement{}, err
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Measurement{
		Scenario:    name,
		Engine:      engine,
		Iters:       iters,
		NsPerOp:     elapsed.Nanoseconds() / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
		SimRounds:   stats.Rounds,
		SimMessages: stats.Messages,
	}, nil
}
