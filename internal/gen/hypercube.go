package gen

import (
	"fmt"

	"lcshortcut/internal/graph"
)

// Hypercube returns the dim-dimensional Boolean hypercube: 2^dim vertices,
// with u adjacent to v iff their IDs differ in exactly one bit. It is
// dim-regular and vertex-transitive with diameter dim = log2 n — the
// classic interconnect topology, and (like expanders) far outside the
// bounded-genus regime: the genus of Q_dim grows as Θ(n·dim), so it probes
// how FindShortcut degrades when the paper's Theorem 1 precondition fails
// while the diameter stays logarithmic.
//
// Arcs are laid out in ascending-bit order per vertex, so the CSR layout is
// the natural one for dimension-ordered routing.
func Hypercube(dim int) *graph.Graph {
	if dim < 1 || dim > 24 {
		panic(fmt.Sprintf("gen: hypercube needs 1 <= dim <= 24, got %d", dim))
	}
	n := 1 << dim
	edges := make([]graph.Edge, 0, dim*n/2)
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			if u := v ^ (1 << b); u > v {
				edges = append(edges, unit(v, u))
			}
		}
	}
	return graph.MustFromEdges(n, edges)
}
