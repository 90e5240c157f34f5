package graph

import (
	"fmt"
	"testing"
)

// canonical renders the full structural content a fingerprint must cover:
// node count plus every edge's endpoints and weight in edge-ID order (the
// CSR arrays are a pure function of this sequence, so byte-identical
// canonical strings ⇔ byte-identical structure).
func canonical(g *Graph) string {
	out := fmt.Sprintf("n=%d;", g.NumNodes())
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(e)
		out += fmt.Sprintf("%d-%d:%d;", ed.U, ed.V, ed.W)
	}
	return out
}

func buildFrom(n int, edges [][3]int) *Graph {
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = Edge{U: e[0], V: e[1], W: int64(e[2])}
	}
	return MustFromEdges(n, out)
}

// TestFingerprintDifferential pins the fingerprint contract: across a family
// of deliberately near-identical graphs (rebuilds, permuted insertion
// orders, weight tweaks, edge additions), fingerprint equality holds exactly
// when the structures are byte-identical.
func TestFingerprintDifferential(t *testing.T) {
	base := [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}, {0, 2, 5}}
	variants := map[string]*Graph{
		"base":        buildFrom(4, base),
		"rebuild":     buildFrom(4, base), // identical build sequence
		"permuted":    buildFrom(4, [][3]int{{1, 2, 1}, {0, 1, 1}, {2, 3, 1}, {3, 0, 1}, {0, 2, 5}}),
		"reweighted":  buildFrom(4, [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}, {0, 2, 6}}),
		"extra-edge":  buildFrom(4, append(append([][3]int{}, base...), [3]int{1, 3, 1})),
		"extra-node":  buildFrom(5, base),
		"missing":     buildFrom(4, base[:4]),
		"5-path":      buildFrom(5, [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}}),
		"5-path-perm": buildFrom(5, [][3]int{{3, 4, 1}, {2, 3, 1}, {1, 2, 1}, {0, 1, 1}}),
	}
	for na, ga := range variants {
		for nb, gb := range variants {
			fpEq := ga.Fingerprint() == gb.Fingerprint()
			structEq := canonical(ga) == canonical(gb)
			if fpEq != structEq {
				t.Errorf("%s vs %s: fingerprint equal=%v but structural equal=%v", na, nb, fpEq, structEq)
			}
		}
	}
}

// TestFingerprintStability pins that a fingerprint is a pure function of the
// structure: recomputing on the same graph, and computing on an
// independently rebuilt one, yields the same value every time.
func TestFingerprintStability(t *testing.T) {
	g1 := buildFrom(6, [][3]int{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {4, 5, 6}, {5, 0, 7}})
	fp := g1.Fingerprint()
	for i := 0; i < 3; i++ {
		if got := g1.Fingerprint(); got != fp {
			t.Fatalf("recompute %d changed fingerprint: %x != %x", i, got, fp)
		}
	}
	g2 := buildFrom(6, [][3]int{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {4, 5, 6}, {5, 0, 7}})
	if got := g2.Fingerprint(); got != fp {
		t.Fatalf("independent rebuild changed fingerprint: %x != %x", got, fp)
	}
}

// TestHashMixAvalanche sanity-checks the mixing primitive: single-bit input
// changes flip the output, zero is not a fixed point, and the fold is
// order-sensitive.
func TestHashMixAvalanche(t *testing.T) {
	if HashMix(0, 0) == 0 {
		t.Error("HashMix(0,0) is a zero fixed point")
	}
	seen := map[uint64]uint64{}
	for bit := 0; bit < 64; bit++ {
		v := HashMix(0, 1<<bit)
		if prev, dup := seen[v]; dup {
			t.Errorf("bits %d and %d collide", bit, prev)
		}
		seen[v] = uint64(bit)
	}
	if HashMix(HashMix(7, 1), 2) == HashMix(HashMix(7, 2), 1) {
		t.Error("HashMix fold is order-insensitive — sequences would collide")
	}
}
