package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func pathBuilder(t testing.TB, n int) *Builder {
	t.Helper()
	g := MustNewBuilder(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	return g
}

func path(t testing.TB, n int) *Graph {
	t.Helper()
	return pathBuilder(t, n).Finalize()
}

func cycle(t testing.TB, n int) *Graph {
	t.Helper()
	g := pathBuilder(t, n)
	g.MustAddEdge(n-1, 0, 1)
	return g.Finalize()
}

func TestAddEdgeValidation(t *testing.T) {
	g := MustNewBuilder(3)
	if _, err := g.AddEdge(0, 0, 1); !errors.Is(err, ErrBadEdge) {
		t.Errorf("self loop: got err %v, want ErrBadEdge", err)
	}
	if _, err := g.AddEdge(0, 3, 1); !errors.Is(err, ErrBadEdge) {
		t.Errorf("out of range: got err %v, want ErrBadEdge", err)
	}
	if _, err := g.AddEdge(-1, 1, 1); !errors.Is(err, ErrBadEdge) {
		t.Errorf("negative endpoint: got err %v, want ErrBadEdge", err)
	}
	if _, err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("valid edge: %v", err)
	}
	if _, err := g.AddEdge(1, 0, 2); !errors.Is(err, ErrBadEdge) {
		t.Errorf("duplicate (reversed): got err %v, want ErrBadEdge", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if fg := g.Finalize(); fg.NumEdges() != 1 || fg.NumNodes() != 3 {
		t.Errorf("finalized graph has %d nodes / %d edges, want 3 / 1", fg.NumNodes(), fg.NumEdges())
	}
}

func TestAdjacencySymmetry(t *testing.T) {
	b := MustNewBuilder(4)
	id := b.MustAddEdge(1, 3, 7)
	g := b.Finalize()
	if got := g.Other(id, 1); got != 3 {
		t.Errorf("Other(%d, 1) = %d, want 3", id, got)
	}
	if got := g.Other(id, 3); got != 1 {
		t.Errorf("Other(%d, 3) = %d, want 1", id, got)
	}
	if g.Degree(1) != 1 || g.Degree(3) != 1 || g.Degree(0) != 0 {
		t.Errorf("degrees = %d,%d,%d want 1,1,0", g.Degree(1), g.Degree(3), g.Degree(0))
	}
	if e := g.Edge(id); e.W != 7 {
		t.Errorf("weight = %d, want 7", e.W)
	}
	if eid, ok := g.FindEdge(3, 1); !ok || eid != id {
		t.Errorf("FindEdge(3,1) = %d,%v want %d,true", eid, ok, id)
	}
}

func TestBFSPath(t *testing.T) {
	g := path(t, 6)
	dist := g.BFS(0)
	for v, d := range dist {
		if d != v {
			t.Errorf("dist[%d] = %d, want %d", v, d, v)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := MustNewBuilder(4)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(2, 3, 1)
	g := b.Finalize()
	dist := g.BFS(0)
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Errorf("dist across components = %d,%d, want Unreached", dist[2], dist[3])
	}
	label, k := g.Components()
	if k != 2 {
		t.Fatalf("components = %d, want 2", k)
	}
	if label[0] != label[1] || label[2] != label[3] || label[0] == label[2] {
		t.Errorf("bad component labels: %v", label)
	}
	if g.Connected() {
		t.Error("Connected() = true for a disconnected graph")
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := path(t, 9)
	dist := g.MultiSourceBFS([]NodeID{0, 8})
	want := []int{0, 1, 2, 3, 4, 3, 2, 1, 0}
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path10", path(t, 10), 9},
		{"cycle10", cycle(t, 10), 5},
		{"cycle9", cycle(t, 9), 4},
		{"single", MustNewBuilder(1).Finalize(), 0},
		{"grid6x5", gridGraph(6, 5), 9},
		// Disconnected graphs report their largest component diameter.
		{"components", componentMix(t), 9},
		{"edgeless", MustNewBuilder(3).Finalize(), 0},
		{"empty", MustNewBuilder(0).Finalize(), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got, ref := tc.g.Diameter(), componentsDiameter(tc.g); got != tc.want || ref != tc.want {
				t.Errorf("Diameter = %d, all-pairs per component %d, want %d", got, ref, tc.want)
			}
			if tc.g.NumNodes() == 0 || !tc.g.Connected() {
				return // ApproxDiameter's bound holds on connected graphs
			}
			if got := tc.g.ApproxDiameter(0); got > tc.want || got*2 < tc.want {
				t.Errorf("ApproxDiameter = %d, want in [%d, %d]", got, (tc.want+1)/2, tc.want)
			}
		})
	}
}

func TestSubsetDiameter(t *testing.T) {
	// 0-1-2-3-4 path; subset {0,1,4} is disconnected inside the subset.
	g := path(t, 5)
	if got := g.SubsetDiameter([]NodeID{0, 1, 4}); got != Unreached {
		t.Errorf("disconnected subset diameter = %d, want Unreached", got)
	}
	if got := g.SubsetDiameter([]NodeID{1, 2, 3}); got != 2 {
		t.Errorf("subset diameter = %d, want 2", got)
	}
	if got := g.SubsetDiameter(nil); got != Unreached {
		t.Errorf("empty subset diameter = %d, want Unreached", got)
	}
	if got := g.SubsetDiameter([]NodeID{3}); got != 0 {
		t.Errorf("singleton subset diameter = %d, want 0", got)
	}
	// Duplicate vertices in the set must be idempotent, not read as extra
	// members the BFS then fails to reach.
	if got := g.SubsetDiameter([]NodeID{1, 1, 2, 2, 3}); got != 2 {
		t.Errorf("duplicate-vertex subset diameter = %d, want 2", got)
	}

	// The same contract on a grid, checked against the all-pairs diameter of
	// the independently induced subgraph, on a fresh and a reused scratch.
	grid := gridGraph(6, 5) // vertex r*6+c
	all := make([]NodeID, 0, 30)
	for v := 29; v >= 0; v-- {
		all = append(all, v)
	}
	cases := []struct {
		name string
		set  []NodeID
		want int
	}{
		{"empty", nil, Unreached},
		{"singleton", []NodeID{7}, 0},
		{"duplicate-singleton", []NodeID{7, 7, 7}, 0},
		{"duplicates", []NodeID{0, 1, 1, 2, 0, 8, 2}, 3},
		{"disconnected", []NodeID{0, 1, 3, 4}, Unreached},
		{"disconnected-duplicates", []NodeID{0, 0, 29, 29}, Unreached},
		{"snake", []NodeID{0, 1, 2, 3, 4, 5, 11, 17, 16, 15, 14, 13, 12}, 12},
		{"ring", []NodeID{7, 8, 9, 10, 16, 22, 21, 20, 19, 13}, 5},
		{"whole", all, 9},
	}
	s := NewScratch(0)
	for _, tc := range cases {
		if ref := allPairsDiameter(inducedCSR(grid, tc.set)); ref != tc.want {
			t.Fatalf("%s: all-pairs reference = %d, want %d", tc.name, ref, tc.want)
		}
		if got := grid.SubsetDiameter(tc.set); got != tc.want {
			t.Errorf("%s: SubsetDiameter = %d, want %d", tc.name, got, tc.want)
		}
		if got := grid.SubsetDiameterScratch(s, tc.set); got != tc.want {
			t.Errorf("%s: SubsetDiameterScratch on a reused scratch = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBFSWithin(t *testing.T) {
	g := cycle(t, 8)
	// Restrict to one half of the cycle: distances must follow the arc.
	member := func(v NodeID) bool { return v <= 4 }
	dist := g.BFSWithin(0, member)
	if dist[4] != 4 {
		t.Errorf("dist[4] = %d, want 4 (restricted path)", dist[4])
	}
	if dist[5] != Unreached {
		t.Errorf("dist[5] = %d, want Unreached", dist[5])
	}
}

func TestCloneIndependence(t *testing.T) {
	g := path(t, 3)
	h := g.Clone()
	h.SetWeight(0, 99)
	if g.Edge(0).W == 99 {
		t.Error("Clone shares edge storage with original")
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Error("Clone changed size")
	}
}

func TestTotalWeight(t *testing.T) {
	b := MustNewBuilder(3)
	b.MustAddEdge(0, 1, 5)
	b.MustAddEdge(1, 2, -2)
	g := b.Finalize()
	if got := g.TotalWeight(); got != 3 {
		t.Errorf("TotalWeight = %d, want 3", got)
	}
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d, want 5", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("fresh unions reported as no-ops")
	}
	if uf.Union(1, 0) {
		t.Error("repeated union reported as a merge")
	}
	if uf.Sets() != 3 {
		t.Errorf("Sets = %d, want 3", uf.Sets())
	}
	if !uf.Same(0, 1) || uf.Same(0, 2) {
		t.Error("Same gives wrong partition")
	}
	uf.Union(0, 2)
	if !uf.Same(1, 3) {
		t.Error("transitive union not reflected")
	}
}

// TestUnionFindMatchesComponents cross-checks union-find against BFS
// component labeling on random graphs.
func TestUnionFindMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		b := MustNewBuilder(n)
		uf := NewUnionFind(n)
		for tries := 0; tries < 2*n; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if _, err := b.AddEdge(u, v, 1); err == nil {
				uf.Union(u, v)
			}
		}
		label, k := b.Finalize().Components()
		if uf.Sets() != k {
			t.Fatalf("trial %d: uf.Sets=%d components=%d", trial, uf.Sets(), k)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (label[u] == label[v]) != uf.Same(u, v) {
					t.Fatalf("trial %d: (%d,%d) disagree", trial, u, v)
				}
			}
		}
	}
}

// Property: in any connected graph, eccentricity from any vertex is between
// ceil(diameter/2) and diameter.
func TestEccentricityProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := MustNewBuilder(n)
		for i := 1; i < n; i++ { // random tree keeps it connected
			b.MustAddEdge(i, rng.Intn(i), 1)
		}
		for tries := 0; tries < n/2; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, 1) //nolint:errcheck // duplicates fine
			}
		}
		g := b.Finalize()
		diam := g.Diameter()
		for v := 0; v < n; v++ {
			ecc := g.Eccentricity(v)
			if ecc > diam || 2*ecc < diam {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestRevArcs checks the arc-reversal permutation on random graphs: for each
// CSR arc u→v, the mirror arc must lie in v's range, lead back to u, carry
// the same edge ID, and be an involution.
func TestRevArcs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		b := MustNewBuilder(n)
		for i := 1; i < n; i++ {
			b.MustAddEdge(i, rng.Intn(i), 1)
		}
		for tries := 0; tries < n; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, 1) //nolint:errcheck // duplicates fine
			}
		}
		g := b.Finalize()
		rev := g.RevArcs()
		for u := 0; u < n; u++ {
			to, edge := g.Arcs(u)
			lo := g.ArcOffset(u)
			for j := range to {
				k := lo + int32(j)
				r := rev[k]
				v := NodeID(to[j])
				if r < g.ArcOffset(v) || r >= g.ArcOffset(v+1) {
					t.Fatalf("rev[%d] = %d outside range of vertex %d", k, r, v)
				}
				vTo, vEdge := g.Arcs(v)
				rj := r - g.ArcOffset(v)
				if NodeID(vTo[rj]) != u || vEdge[rj] != edge[j] {
					t.Fatalf("rev[%d]: arc %d of %d is (%d,e%d), want (%d,e%d)",
						k, rj, v, vTo[rj], vEdge[rj], u, edge[j])
				}
				if rev[r] != k {
					t.Fatalf("rev not an involution at %d: rev[rev]=%d", k, rev[r])
				}
			}
		}
	}
}

// TestArcsByNeighborID checks the per-vertex neighbor-ID ordering is a
// permutation of the local arc indices and strictly increasing in neighbor.
func TestArcsByNeighborID(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		b := MustNewBuilder(n)
		for i := 1; i < n; i++ {
			b.MustAddEdge(i, rng.Intn(i), 1)
		}
		for tries := 0; tries < 2*n; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, 1) //nolint:errcheck // duplicates fine
			}
		}
		g := b.Finalize()
		order := g.ArcsByNeighborID()
		for v := 0; v < n; v++ {
			to, _ := g.Arcs(v)
			lo, deg := g.ArcOffset(v), g.Degree(v)
			seen := make(map[int32]bool, deg)
			last := NodeID(-1)
			for j := 0; j < deg; j++ {
				li := order[lo+int32(j)]
				if li < 0 || int(li) >= deg || seen[li] {
					t.Fatalf("vertex %d: order entry %d invalid or repeated", v, li)
				}
				seen[li] = true
				nbr := NodeID(to[li])
				if nbr <= last {
					t.Fatalf("vertex %d: neighbor order not strictly increasing: %d after %d", v, nbr, last)
				}
				last = nbr
			}
		}
	}
}
