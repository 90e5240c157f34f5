package partagg

import (
	"fmt"
	"strings"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
)

// instances are the partitioned grids every test below aggregates over.
var instances = []struct {
	name string
	w, h int
	p    func() *partition.Partition
}{
	{"voronoi", 8, 8, func() *partition.Partition { return partition.Voronoi(gen.Grid(8, 8), 6, 3) }},
	{"columns", 7, 5, func() *partition.Partition { return partition.GridColumns(7, 5) }},
	{"snake", 8, 8, func() *partition.Partition { return partition.GridSnake(8, 8, 2) }},
}

// modes are the three shortcuts Config can route over, on a graph of n
// nodes: the doubling search, the canonical witness and FindShortcut at the
// always-feasible (C, B) = (n, 1).
var modes = []struct {
	name string
	cfg  func(n int) Config
}{
	{"doubling", func(int) Config { return Config{Seed: 5} }},
	{"canonical", func(int) Config { return Config{Canonical: true, Seed: 5} }},
	{"witness", func(n int) Config { return Config{C: n, B: 1, Seed: 5} }},
}

// wantStats pins each instance/mode run's cost, so a change to how Phase
// builds or routes over its shortcut cannot move a round or a message
// unnoticed.
var wantStats = map[string]struct {
	rounds   int
	messages int64
}{
	"voronoi/doubling":  {2201, 18733},
	"voronoi/canonical": {1734, 14268},
	"voronoi/witness":   {3431, 20177},
	"columns/doubling":  {1733, 6525},
	"columns/canonical": {1426, 5378},
	"columns/witness":   {2560, 7673},
	"snake/doubling":    {2104, 11581},
	"snake/canonical":   {1458, 8014},
	"snake/witness":     {3043, 11503},
}

func testValues(g *graph.Graph) []int64 {
	values := make([]int64, g.NumNodes())
	for v := range values {
		values[v] = int64((v*37)%100 + 1)
	}
	return values
}

func TestAggregatesMatchGroundTruth(t *testing.T) {
	for _, tc := range instances {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.Grid(tc.w, tc.h)
			p := tc.p()
			values := testValues(g)
			// Ground truth per part.
			sum := make(map[int]int64)
			minV := make(map[int]int64)
			size := make(map[int]int64)
			for v := range values {
				i := p.Part(v)
				if i == partition.None {
					continue
				}
				sum[i] += values[v]
				size[i]++
				if m, ok := minV[i]; !ok || values[v] < m {
					minV[i] = values[v]
				}
			}
			for _, mode := range modes {
				t.Run(mode.name, func(t *testing.T) {
					reports, stats, err := Run(g, p, values, 0, mode.cfg(g.NumNodes()), congest.Options{})
					if err != nil {
						t.Fatal(err)
					}
					for v, rep := range reports {
						i := p.Part(v)
						if i == partition.None {
							if rep != nil {
								t.Fatalf("uncovered node %d got a report", v)
							}
							continue
						}
						if rep == nil {
							t.Fatalf("covered node %d missing report", v)
						}
						if rep.Part != i || rep.Sum != sum[i] || rep.Size != size[i] || rep.Min != minV[i] {
							t.Fatalf("node %d: report %+v, want part=%d sum=%d size=%d min=%d",
								v, rep, i, sum[i], size[i], minV[i])
						}
					}
					// Leaders are consistent per part.
					for i := 0; i < p.NumParts(); i++ {
						nodes := p.Nodes(i)
						for _, v := range nodes[1:] {
							if reports[v].Leader != reports[nodes[0]].Leader {
								t.Fatalf("part %d: inconsistent leaders", i)
							}
						}
					}
					want := wantStats[tc.name+"/"+mode.name]
					if stats.Rounds != want.rounds || stats.Messages != want.messages {
						t.Fatalf("rounds %d, messages %d; want %d, %d", stats.Rounds, stats.Messages, want.rounds, want.messages)
					}
				})
			}
		})
	}
}

func TestExplicitWitnessParams(t *testing.T) {
	g := gen.Grid(6, 6)
	p := partition.GridColumns(6, 6)
	values := make([]int64, g.NumNodes())
	for v := range values {
		values[v] = int64(v)
	}
	// Generous witness: C = n, B = 1 always works.
	reports, _, err := Run(g, p, values, 0, Config{C: g.NumNodes(), B: 1, Seed: 2}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reports[0] == nil || reports[0].Size != 6 {
		t.Fatalf("report = %+v", reports[0])
	}
	// Four snakes through a 16x16 grid need congestion above 1, so the
	// explicit (1, 1) guess must fail loudly instead of doubling.
	big := gen.Grid(16, 16)
	_, _, err = Run(big, partition.GridSnake(16, 16, 4), make([]int64, big.NumNodes()), 0, Config{C: 1, B: 1, Seed: 2}, congest.Options{})
	if err == nil || !strings.Contains(err.Error(), "FindShortcut failed with C=1 B=1") {
		t.Fatalf("err = %v, want explicit-parameter FindShortcut failure", err)
	}
}

// TestPartaggEnginesIdentical pins the shard-count contract for every
// routing mode: every node's report and the Stats must be identical at one
// shard and at three.
func TestPartaggEnginesIdentical(t *testing.T) {
	for _, tc := range instances {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", tc.name, mode.name), func(t *testing.T) {
				g := gen.Grid(tc.w, tc.h)
				p := tc.p()
				_, _, err := congesttest.Identical(t, func(shards int) (any, congest.Stats, error) {
					reports, stats, err := Run(g, p, testValues(g), 0, mode.cfg(g.NumNodes()), congest.Options{Shards: shards})
					return reports, stats, err
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
