package findshort

import (
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/core"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
)

// fuzzInstance decodes a byte stream into a random connected graph and a
// connected partition: byte 0 sizes the vertex set, byte 1 the part count,
// byte 2 seeds the Voronoi regions, byte 3 the protocol randomness; the
// remaining bytes first wire a random spanning tree (vertex v attaches to a
// decoded earlier vertex) and then add extra edges from raw endpoint pairs,
// skipping loops and duplicates.
func fuzzInstance(data []byte) (*graph.Graph, *partition.Partition, int64) {
	n := 4 + int(data[0])%40
	var edges []graph.Edge
	seen := map[[2]graph.NodeID]bool{}
	add := func(u, v graph.NodeID) {
		key := [2]graph.NodeID{min(u, v), max(u, v)}
		if u != v && !seen[key] {
			seen[key] = true
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	pos := 4
	next := func() int {
		if pos >= len(data) {
			return 1
		}
		v := int(data[pos])
		pos++
		return v
	}
	for v := 1; v < n; v++ {
		add(v, next()%v)
	}
	for pos+1 < len(data) {
		add(next()%n, next()%n)
	}
	g := graph.MustFromEdges(n, edges)
	numParts := 1 + int(data[1])%10
	if numParts > n {
		numParts = n
	}
	p := partition.Voronoi(g, numParts, int64(data[2]))
	return g, p, int64(data[3])
}

// FuzzFindShortcut mirrors graph's FuzzFromEdges for the protocol layer: on
// random connected graphs and partitions, the distributed FindShortcut at
// the unconditional witness parameters (c*, 1) must succeed, and the lifted
// shortcut must satisfy the paper's structural invariants — a per-edge
// congestion recount within the Theorem 3 union bound of the witness
// congestion, block parameter at most 3, a valid edge-part structure, and
// every part still connected in its communication subgraph G[P_i] + H_i.
func FuzzFindShortcut(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{7, 2, 3, 5, 1, 0, 2, 1, 4, 3})
	f.Add([]byte{20, 4, 9, 2, 6, 6, 6, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{39, 9, 1, 7, 0, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		g, p, seed := fuzzInstance(data)
		if err := p.Validate(g); err != nil {
			t.Fatalf("voronoi produced an invalid partition: %v", err)
		}
		tr := protocolTree(t, g)
		cStar := core.WitnessCongestion(tr, p)
		results, _, ok, err := Run(g, p, 0, Config{C: cStar, B: 1, Seed: seed}, congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("FindShortcut failed at the witness parameters (c*=%d, b=1)", cStar)
		}
		s := lift(t, g, p, results)
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid shortcut: %v", err)
		}
		// Congestion recount: re-tally the per-edge part lists and check the
		// Theorem 3 union bound against the witness congestion.
		iters := results[0].Iterations
		recount := 0
		for e := 0; e < g.NumEdges(); e++ {
			if l := len(s.PartsOn(e)); l > recount {
				recount = l
			}
		}
		if got := s.ShortcutCongestion(); got != recount {
			t.Fatalf("ShortcutCongestion %d, per-edge recount %d", got, recount)
		}
		if recount > 8*cStar*iters {
			t.Fatalf("congestion %d exceeds 8·c*·iterations = 8·%d·%d", recount, cStar, iters)
		}
		if bp := s.BlockParameter(); bp > 3 {
			t.Fatalf("block parameter %d > 3b = 3", bp)
		}
		// Part connectivity: no part may be disconnected by its shortcut.
		for i := 0; i < p.NumParts(); i++ {
			if d := s.PartDiameter(i); d == graph.Unreached {
				t.Fatalf("part %d disconnected in G[P_i]+H_i", i)
			}
		}
		// Every covered node fixed within the iteration horizon.
		for v, r := range results {
			if p.Part(v) != partition.None && (!r.Fixed || r.FixedAt < 0 || r.FixedAt >= iters) {
				t.Fatalf("node %d: Fixed=%v FixedAt=%d iters=%d", v, r.Fixed, r.FixedAt, iters)
			}
		}
	})
}
