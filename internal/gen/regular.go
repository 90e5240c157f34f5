package gen

import (
	"fmt"
	"math/rand"

	"lcshortcut/internal/graph"
)

// RandomRegular returns a random d-regular simple connected graph on n
// vertices via the pairing (configuration) model with seeded retry: n·d
// stubs are shuffled and paired; self loops and duplicate pairs are repaired
// by deterministic random swaps, and the whole construction is re-drawn from
// the same seeded stream until the result is simple and connected. For
// d >= 3 a random d-regular graph is connected with high probability, so the
// retry loop terminates almost immediately.
//
// Random regular graphs are expanders with high probability — constant
// conductance, logarithmic diameter — the family where shortcut congestion
// is information-theoretically easy but the paper's tree-restricted
// structure is maximally stressed. n·d must be even, d >= 1, and d < n.
func RandomRegular(n, d int, seed int64) *graph.Graph {
	switch {
	case d < 1 || d >= n:
		panic(fmt.Sprintf("gen: regular graph needs 1 <= d < n, got n=%d d=%d", n, d))
	case n*d%2 != 0:
		panic(fmt.Sprintf("gen: regular graph needs n*d even, got n=%d d=%d", n, d))
	case d < 3 && n > 2:
		// d=1 is a perfect matching, d=2 a disjoint union of cycles — neither
		// is connected in general, so the retry loop would never terminate.
		panic(fmt.Sprintf("gen: connected regular graph needs d >= 3, got d=%d", d))
	}
	const maxAttempts = 1000
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pairs, ok := pairingPairs(n, d, rng)
		if !ok {
			continue
		}
		uf := graph.NewUnionFind(n)
		for _, p := range pairs {
			uf.Union(p[0], p[1])
		}
		if uf.Sets() != 1 {
			continue
		}
		edges := make([]graph.Edge, len(pairs))
		for k, p := range pairs {
			edges[k] = unit(p[0], p[1])
		}
		return graph.MustFromEdges(n, edges)
	}
	panic(fmt.Sprintf("gen: no simple connected %d-regular graph on %d vertices after %d attempts", d, n, maxAttempts))
}

// pairingPairs draws one configuration-model pairing and repairs self loops
// and duplicates by random pair swaps. It reports failure (forcing a fresh
// draw) if the repair loop stops making progress.
func pairingPairs(n, d int, rng *rand.Rand) ([][2]graph.NodeID, bool) {
	m := n * d / 2
	pairs := make([][2]graph.NodeID, m)
	perm := rng.Perm(n * d)
	for k := 0; k < m; k++ {
		pairs[k] = [2]graph.NodeID{perm[2*k] / d, perm[2*k+1] / d}
	}
	count := make(map[[2]graph.NodeID]int, m)
	key := func(p [2]graph.NodeID) [2]graph.NodeID {
		if p[0] > p[1] {
			p[0], p[1] = p[1], p[0]
		}
		return p
	}
	for _, p := range pairs {
		if p[0] != p[1] {
			count[key(p)]++
		}
	}
	bad := func(p [2]graph.NodeID) bool { return p[0] == p[1] || count[key(p)] > 1 }
	// Swap-repair passes: every bad pair trades an endpoint with a random
	// partner pair. Each accepted swap is degree-preserving, so the multiset
	// of stubs — and hence d-regularity — is invariant.
	const maxPasses = 200
	for pass := 0; pass < maxPasses; pass++ {
		fixedAll := true
		for k := 0; k < m; k++ {
			if !bad(pairs[k]) {
				continue
			}
			fixedAll = false
			j := rng.Intn(m)
			if j == k {
				continue
			}
			pk, pj := pairs[k], pairs[j]
			nk := [2]graph.NodeID{pk[0], pj[1]}
			nj := [2]graph.NodeID{pj[0], pk[1]}
			// Tentatively remove the old pairs from the duplicate counts,
			// then accept the swap only if both new pairs come out good.
			if pk[0] != pk[1] {
				count[key(pk)]--
			}
			if pj[0] != pj[1] {
				count[key(pj)]--
			}
			if nk[0] != nk[1] && nj[0] != nj[1] && count[key(nk)] == 0 && key(nk) != key(nj) && count[key(nj)] == 0 {
				count[key(nk)]++
				count[key(nj)]++
				pairs[k], pairs[j] = nk, nj
			} else {
				if pk[0] != pk[1] {
					count[key(pk)]++
				}
				if pj[0] != pj[1] {
					count[key(pj)]++
				}
			}
		}
		if fixedAll {
			return pairs, true
		}
	}
	return nil, false
}
