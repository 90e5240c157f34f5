package gen

import (
	"fmt"

	"lcshortcut/internal/graph"
)

// Caveman returns the connected caveman graph: k cliques ("caves") of s
// vertices arranged in a ring, where each clique has one internal edge
// removed and replaced by a link to the next clique — Watts' canonical
// community-structure model. Parts that follow the communities have tiny
// internal diameter while the quotient ring forces graph diameter ~ k/2,
// the inverse of the paper's §1.2 pathology (part diameter >> graph
// diameter) and the natural workload for community-aware decompositions
// (Ghaffari–Portmann 2019 evaluate on exactly this shape).
//
// Clique c occupies vertices [c*s, (c+1)*s); the removed internal edge is
// {c*s, c*s+1} and the replacement link is {c*s+1, (c+1 mod k)*s}. The graph
// is connected with exactly k*s*(s-1)/2 edges and is fully deterministic.
func Caveman(k, s int) *graph.Graph {
	if k < 3 || s < 3 {
		panic(fmt.Sprintf("gen: caveman graph needs k >= 3 cliques of size s >= 3, got k=%d s=%d", k, s))
	}
	edges := make([]graph.Edge, 0, k*s*(s-1)/2)
	for c := 0; c < k; c++ {
		off := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				if i == 0 && j == 1 {
					continue // rewired to the next cave
				}
				edges = append(edges, unit(off+i, off+j))
			}
		}
		edges = append(edges, unit(off+1, ((c+1)%k)*s))
	}
	return graph.MustFromEdges(k*s, edges)
}

// CavemanParts returns the community partition of a Caveman graph: one part
// per clique. Each part induces a connected subgraph (a clique minus one
// edge), so it is a valid shortcut-problem input.
func CavemanParts(k, s int) [][]graph.NodeID {
	parts := make([][]graph.NodeID, k)
	for c := 0; c < k; c++ {
		part := make([]graph.NodeID, s)
		for i := 0; i < s; i++ {
			part[i] = c*s + i
		}
		parts[c] = part
	}
	return parts
}
