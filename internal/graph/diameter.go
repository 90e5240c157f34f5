package graph

// ExactDiameter returns the exact hop diameter of the undirected graph given
// in CSR form over dense vertex indices: the neighbours of vertex v are
// to[off[v]:off[v+1]], and there are len(off)-1 vertices. It returns
// Unreached for an empty or disconnected graph.
//
// The algorithm is BoundingDiameters (Takes & Kosters, "Determining the
// diameter of small world networks", CIKM 2011). Every candidate vertex w
// keeps bounds lo[w] ≤ ecc(w) ≤ hi[w]. A BFS from a source v of
// eccentricity e tightens them, for every candidate at distance d, to
// lo[w] ≥ max(d, e−d) and hi[w] ≤ e+d. The diameter is at least the largest
// eccentricity found, and at most 2e and the largest upper bound of any
// candidate. Sources alternate between the candidate with the smallest
// lower bound (central: it lowers the upper bounds) and the one with the
// largest upper bound (peripheral: it raises the lower bound), ties going to
// the higher degree and then the lower index; while all bounds are open the
// first source is thus a vertex of highest degree. A candidate is dropped
// once its eccentricity is known, or once its upper bound cannot exceed the
// diameter's lower bound while its lower bound is at least half the
// diameter's upper bound. The loop stops when the two diameter bounds meet.
//
// Every BFS drops its own source, so it never runs more BFSs than there are
// vertices. Vertex-transitive graphs (rings, tori, hypercubes) are the worst
// case: every eccentricity is equal, so no bound rules a vertex out early
// and it needs about one BFS per vertex.
//
// The computation runs on s's buffers and is allocation-free once they have
// grown; off and to are only read, so they may be s's own subset CSR.
func ExactDiameter(s *Scratch, off, to []int32) int {
	n := len(off) - 1
	s.sweeps = 0
	if n <= 0 {
		return Unreached
	}
	s.dist = fitInt32(s.dist, n)
	s.queue = fitInt32(s.queue, n)
	s.lo = fitInt32(s.lo, n)
	s.hi = fitInt32(s.hi, n)
	s.cand = fitInt32(s.cand, n)
	dist, queue, lo, hi, cand := s.dist, s.queue, s.lo, s.hi, s.cand
	for v := range cand {
		lo[v], hi[v], cand[v] = 0, int32(n), int32(v)
	}
	lower, upper := int32(0), int32(n)
	peripheral := false
	for len(cand) > 0 && lower < upper {
		src := pickSource(off, cand, lo, hi, peripheral)
		peripheral = !peripheral
		for i := range dist {
			dist[i] = Unreached
		}
		dist[src] = 0
		queue[0] = src
		reached := drainBFS(off, to, dist, queue, 1)
		s.sweeps++
		if reached < n {
			return Unreached
		}
		// Every lower bound is at most some source's eccentricity, so the
		// largest one seen so far is the lower bound on the diameter.
		ecc := dist[queue[reached-1]]
		lower = max(lower, ecc)
		upper = min(upper, 2*ecc)
		top, k := int32(0), 0
		for _, w := range cand {
			d := dist[w]
			lo[w] = max(lo[w], d, ecc-d)
			hi[w] = min(hi[w], ecc+d)
			if lo[w] == hi[w] || (hi[w] <= lower && 2*lo[w] >= upper) {
				continue // ecc(w) ≤ lower: w cannot widen the diameter
			}
			top = max(top, hi[w])
			cand[k] = w
			k++
		}
		cand = cand[:k]
		upper = min(upper, max(lower, top))
	}
	return int(lower)
}

// pickSource returns the candidate with the largest upper bound (peripheral)
// or the smallest lower bound (otherwise), preferring the higher degree and
// then the earlier candidate on ties. Candidates stay in ascending index
// order, so the earlier candidate is the lower index.
func pickSource(off, cand, lo, hi []int32, peripheral bool) int32 {
	best := cand[0]
	for _, w := range cand[1:] {
		var a, b int32 // the bound to maximise: hi, or lo negated
		if peripheral {
			a, b = hi[w], hi[best]
		} else {
			a, b = -lo[w], -lo[best]
		}
		if a > b || (a == b && off[w+1]-off[w] > off[best+1]-off[best]) {
			best = w
		}
	}
	return best
}

// drainBFS expands the BFS whose sources are queue[:tail], with their
// distances already set in dist, over the CSR off/to: it labels every
// vertex it reaches in dist (unreached entries must hold Unreached) and
// appends it to queue, which must have room for every vertex. It returns
// the number of vertices queued. Indexing a fixed-size queue (each vertex
// enters at most once) keeps append bookkeeping out of the inner loop.
func drainBFS(off, to, dist, queue []int32, tail int) int {
	for head := 0; head < tail; head++ {
		v := queue[head]
		d := dist[v] + 1
		for _, w := range to[off[v]:off[v+1]] {
			if dist[w] == Unreached {
				dist[w] = d
				queue[tail] = w
				tail++
			}
		}
	}
	return tail
}

// fitInt32 returns b resized to n entries, reallocating only when its
// capacity is short. The contents are unspecified.
func fitInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}
