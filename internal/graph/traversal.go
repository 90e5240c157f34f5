package graph

// Unreached marks vertices not reached by a traversal in distance slices.
const Unreached = -1

// bfsLoop drains the pre-seeded queue in s over the graph's CSR arrays.
// Callers seed s.dist/s.queue with the sources first.
func (g *Graph) bfsLoop(s *Scratch) {
	queue := s.queue[:len(s.dist)]
	s.queue = queue[:drainBFS(g.arcOffsets, g.arcTo, s.dist, queue, len(s.queue))]
}

// distToInt copies an int32 distance buffer into a fresh caller-owned []int.
func distToInt(src []int32) []int {
	out := make([]int, len(src))
	for i, d := range src {
		out[i] = int(d)
	}
	return out
}

// BFSScratch returns the unweighted distance (in hops) from src to every
// vertex, with Unreached for vertices in other components. The returned slice
// is owned by s (see the Scratch ownership contract); steady-state calls are
// allocation-free.
func (g *Graph) BFSScratch(s *Scratch, src NodeID) []int32 {
	s.ensure(g.NumNodes())
	s.resetDist()
	s.dist[src] = 0
	s.queue = append(s.queue, int32(src))
	g.bfsLoop(s)
	return s.dist
}

// BFS is the allocating convenience form of BFSScratch: it returns a fresh
// caller-owned distance slice.
func (g *Graph) BFS(src NodeID) []int {
	s := GetScratch()
	defer s.Release()
	return distToInt(g.BFSScratch(s, src))
}

// MultiSourceBFSScratch returns, for every vertex, the hop distance to the
// nearest source, with Unreached for vertices not connected to any source.
// The returned slice is owned by s.
func (g *Graph) MultiSourceBFSScratch(s *Scratch, sources []NodeID) []int32 {
	s.ensure(g.NumNodes())
	s.resetDist()
	for _, src := range sources {
		if s.dist[src] == Unreached {
			s.dist[src] = 0
			s.queue = append(s.queue, int32(src))
		}
	}
	g.bfsLoop(s)
	return s.dist
}

// MultiSourceBFS is the allocating convenience form of MultiSourceBFSScratch.
func (g *Graph) MultiSourceBFS(sources []NodeID) []int {
	s := GetScratch()
	defer s.Release()
	return distToInt(g.MultiSourceBFSScratch(s, sources))
}

// BFSWithinScratch runs a BFS from src restricted to the vertices for which
// member reports true, and returns hop distances (Unreached outside the
// reached region). src itself must be a member. The returned slice is owned
// by s.
func (g *Graph) BFSWithinScratch(s *Scratch, src NodeID, member func(NodeID) bool) []int32 {
	s.ensure(g.NumNodes())
	s.resetDist()
	s.dist[src] = 0
	s.queue = append(s.queue, int32(src))
	for head := 0; head < len(s.queue); head++ {
		v := NodeID(s.queue[head])
		d := s.dist[v] + 1
		lo, hi := g.arcOffsets[v], g.arcOffsets[v+1]
		for _, w := range g.arcTo[lo:hi] {
			if s.dist[w] == Unreached && member(NodeID(w)) {
				s.dist[w] = d
				s.queue = append(s.queue, w)
			}
		}
	}
	return s.dist
}

// BFSWithin is the allocating convenience form of BFSWithinScratch.
func (g *Graph) BFSWithin(src NodeID, member func(NodeID) bool) []int {
	s := GetScratch()
	defer s.Release()
	return distToInt(g.BFSWithinScratch(s, src, member))
}

// Components labels each vertex with a component index in [0, #components)
// and returns the labels plus the number of components. Component indices
// are assigned in order of their smallest vertex.
func (g *Graph) Components() ([]int, int) {
	n := g.NumNodes()
	s := GetScratch()
	defer s.Release()
	s.ensure(n)
	label := make([]int, n)
	for i := range label {
		label[i] = Unreached
	}
	next := 0
	for src := 0; src < n; src++ {
		if label[src] != Unreached {
			continue
		}
		label[src] = next
		s.queue = append(s.queue[:0], int32(src))
		for head := 0; head < len(s.queue); head++ {
			v := NodeID(s.queue[head])
			lo, hi := g.arcOffsets[v], g.arcOffsets[v+1]
			for _, w := range g.arcTo[lo:hi] {
				if label[w] == Unreached {
					label[w] = next
					s.queue = append(s.queue, w)
				}
			}
		}
		next++
	}
	return label, next
}

// Connected reports whether g is connected. The empty graph and the
// single-vertex graph are connected.
func (g *Graph) Connected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	_, k := g.Components()
	return k == 1
}

// EccentricityScratch returns the maximum BFS distance from src to any vertex
// of its component, reusing s's buffers.
func (g *Graph) EccentricityScratch(s *Scratch, src NodeID) int {
	ecc := int32(0)
	for _, d := range g.BFSScratch(s, src) {
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// Eccentricity is the pooled-scratch convenience form of EccentricityScratch.
func (g *Graph) Eccentricity(src NodeID) int {
	s := GetScratch()
	defer s.Release()
	return g.EccentricityScratch(s, src)
}

// Diameter returns the exact hop diameter of g (see ExactDiameter). For a
// disconnected graph it returns the largest diameter of any component, and
// for the empty graph 0.
func (g *Graph) Diameter() int {
	s := GetScratch()
	defer s.Release()
	if d := ExactDiameter(s, g.arcOffsets, g.arcTo); d != Unreached || g.NumNodes() == 0 {
		return max(d, 0)
	}
	label, k := g.Components()
	comps := make([][]NodeID, k)
	for v, c := range label {
		comps[c] = append(comps[c], v)
	}
	diam := 0
	for _, comp := range comps {
		diam = max(diam, g.SubsetDiameterScratch(s, comp))
	}
	return diam
}

// ApproxDiameter returns a lower bound on the diameter that is at least half
// the true value, computed with a double BFS sweep from src.
func (g *Graph) ApproxDiameter(src NodeID) int {
	s := GetScratch()
	defer s.Release()
	dist := g.BFSScratch(s, src)
	far, farD := src, int32(0)
	for v, d := range dist {
		if d > farD {
			far, farD = v, d
		}
	}
	return g.EccentricityScratch(s, far)
}

// SubsetDiameter returns the hop diameter of the subgraph induced by the
// given vertex set when communication may use only edges with both endpoints
// in the set. It returns Unreached if the induced subgraph is disconnected
// or the set is empty.
func (g *Graph) SubsetDiameter(set []NodeID) int {
	s := GetScratch()
	defer s.Release()
	return g.SubsetDiameterScratch(s, set)
}

// SubsetDiameterScratch is SubsetDiameter reusing s's buffers: it lays the
// induced subgraph out as a CSR over dense local indices (members are
// epoch-stamped, so repeated vertices collapse into one) and runs
// ExactDiameter on it. Steady-state calls are allocation-free.
func (g *Graph) SubsetDiameterScratch(s *Scratch, set []NodeID) int {
	if len(set) == 0 {
		return Unreached
	}
	s.ensure(g.NumNodes())
	s.nextEpoch()
	s.idx = fitInt32(s.idx, g.NumNodes())
	verts := s.queue[:0] // local index -> vertex
	for _, v := range set {
		if s.mark[v] != s.epoch {
			s.mark[v] = s.epoch
			s.idx[v] = int32(len(verts))
			verts = append(verts, int32(v))
		}
	}
	s.off = fitInt32(s.off, len(verts)+1)
	s.off[0] = 0
	to := s.to[:0]
	for i, v := range verts {
		for _, w := range g.arcTo[g.arcOffsets[v]:g.arcOffsets[v+1]] {
			if s.mark[w] == s.epoch {
				to = append(to, s.idx[w])
			}
		}
		s.off[i+1] = int32(len(to))
	}
	s.to = to
	return ExactDiameter(s, s.off, s.to)
}
