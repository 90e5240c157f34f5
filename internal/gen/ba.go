package gen

import (
	"fmt"
	"math/rand"

	"lcshortcut/internal/graph"
)

// BarabasiAlbert returns a preferential-attachment scale-free graph on n
// vertices: starting from a clique on m+1 vertices, each new vertex attaches
// to m distinct earlier vertices chosen with probability proportional to
// their current degree. The heavy-tailed degree distribution is the regime
// where per-part congestion concentrates on hubs — the opposite extreme
// from the bounded-degree surface meshes the paper's genus bounds cover.
//
// The graph is connected with minimum degree m, has exactly
// m*(m+1)/2 + (n-m-1)*m edges, and is deterministic per seed. Attachment
// uses the standard repeated-endpoints trick: every added edge appends both
// endpoints to a pool, and targets are drawn uniformly from the pool
// (re-drawing duplicates), which realizes degree-proportional sampling
// exactly.
func BarabasiAlbert(n, m int, seed int64) *graph.Graph {
	if m < 1 || n < m+2 {
		panic(fmt.Sprintf("gen: Barabási–Albert needs m >= 1 and n >= m+2, got n=%d m=%d", n, m))
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m*(m+1)/2+(n-m-1)*m)
	// pool holds one entry per edge endpoint, so drawing uniformly from it
	// samples vertices with probability proportional to degree.
	pool := make([]int32, 0, 2*cap(edges))
	addEdge := func(u, v graph.NodeID) {
		edges = append(edges, unit(u, v))
		pool = append(pool, int32(u), int32(v))
	}
	// Seed graph: a clique on m+1 vertices, so every seed vertex starts at
	// degree m and the attachment process preserves minimum degree m.
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			addEdge(i, j)
		}
	}
	targets := make([]graph.NodeID, 0, m)
	for v := m + 1; v < n; v++ {
		targets = targets[:0]
		for len(targets) < m {
			t := graph.NodeID(pool[rng.Intn(len(pool))])
			dup := false
			for _, u := range targets {
				if u == t {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			addEdge(v, t)
		}
	}
	return graph.MustFromEdges(n, edges)
}
