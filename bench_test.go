package lcshortcut_test

import (
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/core"
	"lcshortcut/internal/engbench"
	"lcshortcut/internal/experiments"
	"lcshortcut/internal/findshort"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/mst"
	"lcshortcut/internal/partagg"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

// BenchmarkCongest measures the simulation engine itself on the engbench
// scenario suite (broadcast flood, sparse token ring, the BFS opening phase
// on grid256x256 and er50000), one sub-benchmark per row: `event-loop` runs
// at one shard, whose steady state must stay at 0 allocs per round (the
// per-run setup cost is amortized by the pooled run state; see the alloc
// guard tests in internal/congest), and `sharded`, only when GOMAXPROCS is
// above one, at one shard per core. Variant-bearing scenarios (the
// findshortcut construction) run their variants instead. Simulated rounds
// are reported so per-round cost can be derived.
func BenchmarkCongest(b *testing.B) {
	for _, sc := range engbench.Scenarios() {
		if sc.Heavy && testing.Short() {
			continue
		}
		for _, row := range sc.Rows() {
			b.Run(sc.Name+"/"+row.Name, func(b *testing.B) {
				g := sc.Graph() // cached across rows; built only if this sub-benchmark runs
				var stats congest.Stats
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					stats, err = row.Run(g)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(stats.Rounds), "sim-rounds")
			})
		}
	}
}

// BenchmarkExperiment regenerates every registered experiment table (the
// paper's theorem-bound "tables and figures"; see EXPERIMENTS.md), one
// sub-benchmark per registry entry — new experiments get a benchmark by
// registering, with no edits here. Simulated CONGEST cost — the model's own
// complexity measure — is reported as sim-rounds/sim-msgs metrics alongside
// wall-clock time; run with -v to print the full tables.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			var last *experiments.Result
			for i := 0; i < b.N; i++ {
				results, err := experiments.Run([]*experiments.Experiment{e}, experiments.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = results[0]
				if len(last.Violations) > 0 {
					b.Fatalf("%s: %v", e.ID, last.Violations)
				}
				if i == 0 && testing.Verbose() {
					b.Log("\n" + last.Table().Format())
				}
			}
			b.ReportMetric(float64(last.Metrics.SimRounds), "sim-rounds")
			b.ReportMetric(float64(last.Metrics.SimMessages), "sim-msgs")
		})
	}
}

// BenchmarkHarness measures the worker-pool speedup of regenerating the
// whole registry at smoke size, sequentially vs in parallel.
func BenchmarkHarness(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "parallel"
		if workers == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunAll(experiments.Options{Workers: workers, Short: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCentralFindShortcut measures the centralized reference at a scale
// the round-exact simulator does not reach (quality-only experiments).
func BenchmarkCentralFindShortcut(b *testing.B) {
	g := gen.Grid(64, 64)
	p := partition.Voronoi(g, 64, 3)
	tr := tree.BFSTree(g, 0)
	cStar := core.WitnessCongestion(tr, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := core.FindShortcut(tr, p, core.FindConfig{C: cStar, B: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if fr.S.BlockParameter() > 3 {
			b.Fatal("block parameter out of bound")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw engine speed: one FindShortcut
// protocol run, reporting simulated rounds per run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	g := gen.Grid(16, 16)
	p := partition.Voronoi(g, 12, 5)
	tr := tree.BFSTree(g, 0)
	cStar := core.WitnessCongestion(tr, p)
	var rounds int
	for i := 0; i < b.N; i++ {
		_, stats, ok, err := findshort.Run(g, p, 0, findshort.Config{C: cStar, B: 1, Seed: int64(i)}, congest.Options{})
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkMSTStrategies compares the three MST strategies on one instance.
func BenchmarkMSTStrategies(b *testing.B) {
	g := gen.WithUniqueWeights(gen.Grid(8, 8), 7)
	for _, st := range []struct {
		name string
		s    mst.Strategy
	}{
		{"shortcut", mst.StrategyShortcut},
		{"canonical", mst.StrategyCanonical},
		{"noshortcut", mst.StrategyNoShortcut},
	} {
		b.Run(st.name, func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				results, stats, err := mst.Run(g, 0, int64(i), mst.Config{Strategy: st.s}, congest.Options{})
				if err != nil {
					b.Fatal(err)
				}
				_ = results
				rounds = stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkPartAggregate measures the third application end to end.
func BenchmarkPartAggregate(b *testing.B) {
	g := gen.Grid(12, 12)
	p := partition.GridSnake(12, 12, 3)
	values := make([]int64, g.NumNodes())
	for v := range values {
		values[v] = int64(v)
	}
	var rounds int
	for i := 0; i < b.N; i++ {
		_, stats, err := partagg.Run(g, p, values, 0, partagg.Config{Canonical: true, Seed: int64(i)}, congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// legacyBFS reproduces the pre-CSR slice-of-slices BFS (heap-scattered
// adjacency, freshly allocated dist and queue per call) so the CSR/scratch
// speedup is measured against the historical layout inside one binary.
func legacyBFS(adj [][]graph.Arc, src graph.NodeID) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = graph.Unreached
	}
	queue := make([]graph.NodeID, 0, len(adj))
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range adj[v] {
			if dist[a.To] == graph.Unreached {
				dist[a.To] = dist[v] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

// BenchmarkGraphBFS measures the traversal core on the largest generator
// grid/random families in three forms: the pre-CSR layout (legacy), the CSR
// allocating convenience BFS (alloc), and the pooled-scratch BFSScratch
// (scratch), whose steady state must stay at 0 allocs/op.
func BenchmarkGraphBFS(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid256x256", gen.Grid(256, 256)},
		{"er50000", gen.ErdosRenyi(50000, 0.0001, 1)},
	} {
		adj := make([][]graph.Arc, bc.g.NumNodes())
		for v := range adj {
			adj[v] = bc.g.AppendArcs(nil, v)
		}
		b.Run(bc.name+"/legacy", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = legacyBFS(adj, 0)
			}
		})
		b.Run(bc.name+"/alloc", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = bc.g.BFS(0)
			}
		})
		b.Run(bc.name+"/scratch", func(b *testing.B) {
			s := graph.NewScratch(bc.g.NumNodes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = bc.g.BFSScratch(s, 0)
			}
		})
	}
}

// BenchmarkCoreFast measures one centralized CoreFast pass at quality-
// experiment scale (allocation pressure here multiplies through every
// FindShortcut iteration).
func BenchmarkCoreFast(b *testing.B) {
	g := gen.Grid(64, 64)
	p := partition.Voronoi(g, 64, 3)
	tr := tree.BFSTree(g, 0)
	cStar := core.WitnessCongestion(tr, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.CoreFast(tr, p, core.FastConfig{C: cStar, Seed: int64(i)})
	}
}

// BenchmarkMST measures the centralized MST verifiers (Kruskal and the
// phase-loop Boruvka) on a large unique-weight grid.
func BenchmarkMST(b *testing.B) {
	g := gen.WithUniqueWeights(gen.Grid(128, 128), 7)
	b.Run("kruskal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := mst.Kruskal(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("boruvka", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := mst.BoruvkaCentral(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}
