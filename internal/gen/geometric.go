package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lcshortcut/internal/graph"
)

// RandomGeometric returns a unit-disk graph on a seeded point set: n points
// drawn uniformly in the unit square, with an edge between every pair at
// Euclidean distance at most radius. Vertex IDs follow Morton (Z-curve)
// order of the points, so CSR neighbor ranges are spatially local, and a
// backbone edge links each Morton-consecutive pair, guaranteeing
// connectivity at every radius (below the connectivity threshold a pure
// disk graph shatters into components no CONGEST protocol can cross).
//
// Geometric graphs are the evaluation family of the low-diameter
// decomposition literature (Rozhoň–Ghaffari 2019 and the references
// therein); they are not genus-bounded but have strong locality, probing how
// the paper's embedding-free construction behaves beyond its guarantee.
//
// The result is deterministic per (n, radius, seed). Neighbor search uses a
// radius-sized bucket grid, so construction is near-linear for the sparse
// radii the scenarios use.
func RandomGeometric(n int, radius float64, seed int64) *graph.Graph {
	if n < 2 || radius <= 0 {
		panic(fmt.Sprintf("gen: geometric graph needs n >= 2 and radius > 0, got n=%d r=%g", n, radius))
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	order := make([]int, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		mi, mj := morton(xs[i], ys[i]), morton(xs[j], ys[j])
		if mi != mj {
			return mi < mj
		}
		return i < j
	})
	// Re-ID points in Morton order.
	px := make([]float64, n)
	py := make([]float64, n)
	for newID, old := range order {
		px[newID], py[newID] = xs[old], ys[old]
	}

	// Morton backbone: consecutive points on the Z-curve are spatially close,
	// so these edges keep the disk-graph character while forcing connectivity.
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, unit(i, i+1))
	}
	// Disk edges via a bucket grid with cell side = radius: all pairs within
	// radius live in the same or an adjacent cell.
	cells := int(math.Ceil(1 / radius))
	if cells < 1 {
		cells = 1
	}
	cellOf := func(i int) (int, int) {
		cx := int(px[i] / radius)
		cy := int(py[i] / radius)
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	bucket := make(map[[2]int][]int32, n)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		bucket[[2]int{cx, cy}] = append(bucket[[2]int{cx, cy}], int32(i))
	}
	r2 := radius * radius
	var cand []int
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		cand = cand[:0]
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range bucket[[2]int{cx + dx, cy + dy}] {
					if int(j) > i {
						cand = append(cand, int(j))
					}
				}
			}
		}
		sort.Ints(cand)
		// Candidates j > i each appear once, so the only edge a disk pair can
		// repeat is the backbone edge {i, i+1}.
		for _, j := range cand {
			dx, dy := px[i]-px[j], py[i]-py[j]
			if dx*dx+dy*dy <= r2 && j != i+1 {
				edges = append(edges, unit(i, j))
			}
		}
	}
	return graph.MustFromEdges(n, edges)
}

// GeometricRadius returns the radius giving expected average degree avgDeg
// for n uniform points in the unit square (n·π·r² ≈ avgDeg), the
// parameterization the scenario registry uses.
func GeometricRadius(n int, avgDeg float64) float64 {
	return math.Sqrt(avgDeg / (math.Pi * float64(n)))
}

// morton interleaves the top 16 bits of the two coordinates into a Z-curve
// key, the spatial sort order behind RandomGeometric's vertex IDs.
func morton(x, y float64) uint64 {
	return interleave16(uint32(x*65535)) | interleave16(uint32(y*65535))<<1
}

func interleave16(v uint32) uint64 {
	b := uint64(v) & 0xFFFF
	b = (b | b<<16) & 0x0000FFFF0000FFFF
	b = (b | b<<8) & 0x00FF00FF00FF00FF
	b = (b | b<<4) & 0x0F0F0F0F0F0F0F0F
	b = (b | b<<2) & 0x3333333333333333
	b = (b | b<<1) & 0x5555555555555555
	return b
}
