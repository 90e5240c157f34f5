package scenario

import (
	"math"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// Shape parameters of the size-parameterized families. A scenario name pins
// its shape (attachment count, average degree, regularity degree, genus,
// cave size); only the size n and the seed vary per build, so a (name, n,
// seed) triple identifies a graph exactly.
const (
	baM          = 3  // Barabási–Albert attachment edges per vertex
	geoAvgDeg    = 8  // geometric target average degree
	regularD     = 4  // random-regular degree
	cavemanSize  = 8  // vertices per cave
	surfaceGenus = 3  // handles on the surface mesh
	surfaceTube  = 2  // quad rings per handle tube
	handledH     = 4  // extra edges of the handled grid
	erSparseDeg  = 5  // sparse Erdős–Rényi average degree
	erDenseDeg   = 16 // dense Erdős–Rényi average degree
)

// sideOf rounds requested size n to the side of the nearest square grid.
func sideOf(n, min int) int {
	side := int(math.Round(math.Sqrt(float64(n))))
	if side < min {
		side = min
	}
	return side
}

// dimOf rounds requested size n to the nearest hypercube dimension.
func dimOf(n int) int {
	dim := int(math.Round(math.Log2(float64(n))))
	if dim < 1 {
		dim = 1
	}
	return dim
}

// cavesOf rounds requested size n to a cave count.
func cavesOf(n int) int {
	k := (n + cavemanSize/2) / cavemanSize
	if k < 3 {
		k = 3
	}
	return k
}

func init() {
	Register(&Scenario{
		Name:        "grid",
		Tags:        []string{"planar", "mesh"},
		Ref:         "Theorem 1 with g=0: the planar baseline every genus bound extends",
		Description: "square planar grid",
		Sizes:       []int{256, 1024},
		Build: func(n int, _ int64) *graph.Graph {
			s := sideOf(n, 2)
			return gen.Grid(s, s)
		},
		Invariants: Invariants{
			Connected: true,
			Nodes:     func(n int) int { s := sideOf(n, 2); return s * s },
			Edges:     func(n int) int { s := sideOf(n, 2); return 2 * s * (s - 1) },
			Genus:     func(int) int { return 0 },
		},
	})
	Register(&Scenario{
		Name:        "torus",
		Tags:        []string{"genus-bounded", "mesh"},
		Ref:         "Theorem 1 with g=1: the smallest non-planar surface",
		Description: "square toroidal grid (genus 1)",
		Sizes:       []int{256, 1024},
		Build: func(n int, _ int64) *graph.Graph {
			s := sideOf(n, 3)
			return gen.Torus(s, s)
		},
		Invariants: Invariants{
			Connected: true,
			Nodes:     func(n int) int { s := sideOf(n, 3); return s * s },
			Edges:     func(n int) int { s := sideOf(n, 3); return 2 * s * s },
			Degree:    func(int) int { return 4 },
			Genus:     func(int) int { return 1 },
		},
	})
	Register(&Scenario{
		Name:        "surface",
		Tags:        []string{"genus-bounded", "mesh", "surface"},
		Ref:         "Theorem 1's O(g·D) regime: a genus-3 surface mesh with explicit handle tubes, constructed without ever handing the embedding to FindShortcut",
		Description: "grid with 3 genuine handle tubes (genus 3, max degree 5)",
		Sizes:       []int{256, 1024},
		Build: func(n int, _ int64) *graph.Graph {
			s := sideOf(n, 3*surfaceGenus+3)
			return gen.SurfaceMesh(s, s, surfaceGenus, surfaceTube)
		},
		Invariants: Invariants{
			Connected: true,
			Nodes: func(n int) int {
				s := sideOf(n, 3*surfaceGenus+3)
				return s*s + 4*surfaceTube*surfaceGenus
			},
			Edges: func(n int) int {
				s := sideOf(n, 3*surfaceGenus+3)
				return 2*s*(s-1) + surfaceGenus*(8*surfaceTube+4)
			},
			Genus: func(int) int { return surfaceGenus },
		},
	})
	Register(&Scenario{
		Name:        "handled",
		Tags:        []string{"genus-bounded"},
		Ref:         "Theorem 1 + E5: grid with degenerate single-edge handles (genus <= 4)",
		Description: "square grid with 4 long-range handle edges",
		Sizes:       []int{256, 1024},
		Build: func(n int, _ int64) *graph.Graph {
			s := sideOf(n, 4)
			return gen.HandledGrid(s, s, handledH)
		},
		Invariants: Invariants{
			Connected: true,
			Nodes:     func(n int) int { s := sideOf(n, 4); return s * s },
			Edges:     func(n int) int { s := sideOf(n, 4); return 2*s*(s-1) + handledH },
			Genus:     func(int) int { return handledH },
		},
	})
	Register(&Scenario{
		Name:        "ring",
		Tags:        []string{"planar"},
		Ref:         "diameter-dominated extreme: D = n/2 makes every O(D) bound vacuous but stresses barrier overhead",
		Description: "cycle on n vertices",
		Sizes:       []int{256, 1024},
		Build:       func(n int, _ int64) *graph.Graph { return gen.Ring(max(n, 3)) },
		Invariants: Invariants{
			Connected: true,
			Nodes:     func(n int) int { return max(n, 3) },
			Edges:     func(n int) int { return max(n, 3) },
			Degree:    func(int) int { return 2 },
			Genus:     func(int) int { return 0 },
		},
	})
	Register(&Scenario{
		Name:        "randtree",
		Tags:        []string{"planar", "tree", "random"},
		Ref:         "degenerate shortcut input: the BFS tree is the whole graph, so congestion collapses to the witness bound",
		Description: "uniform random attachment tree",
		Sizes:       []int{256, 1024},
		Build:       func(n int, seed int64) *graph.Graph { return gen.RandomTree(n, seed) },
		Invariants: Invariants{
			Connected: true,
			Edges:     func(n int) int { return n - 1 },
			Genus:     func(int) int { return 0 },
		},
	})
	Register(&Scenario{
		Name:        "outerplanar",
		Tags:        []string{"planar", "random"},
		Ref:         "seeded maximal outerplanar triangulations: planar (g=0) with random structure, unlike the rigid grid",
		Description: "random maximal outerplanar triangulation",
		Sizes:       []int{256, 1024},
		Build:       func(n int, seed int64) *graph.Graph { return gen.OuterplanarTriangulation(max(n, 3), seed) },
		Invariants: Invariants{
			Connected: true,
			Nodes:     func(n int) int { return max(n, 3) },
			Edges:     func(n int) int { return 2*max(n, 3) - 3 },
			Genus:     func(int) int { return 0 },
		},
	})
	Register(&Scenario{
		Name:        "er-sparse",
		Tags:        []string{"random"},
		Ref:         "sparse random graphs (avg degree ~5): the unstructured control group for every bound",
		Description: "connected Erdős–Rényi, average degree ~5",
		Sizes:       []int{256, 1024},
		Build: func(n int, seed int64) *graph.Graph {
			return gen.ErdosRenyi(n, float64(erSparseDeg)/float64(n-1), seed)
		},
		Invariants: Invariants{Connected: true},
	})
	Register(&Scenario{
		Name:        "er-dense",
		Tags:        []string{"random", "expander"},
		Ref:         "denser random graphs (avg degree ~16) are expanders whp: low diameter, high traffic — the engine's broadcast stress shape",
		Description: "connected Erdős–Rényi, average degree ~16",
		Sizes:       []int{256, 1024},
		Build: func(n int, seed int64) *graph.Graph {
			return gen.ErdosRenyi(n, float64(erDenseDeg)/float64(n-1), seed)
		},
		Invariants: Invariants{Connected: true},
	})
	Register(&Scenario{
		Name:        "ba",
		Tags:        []string{"scale-free", "random"},
		Ref:         "preferential attachment concentrates congestion on hubs — the adversarial degree profile for tree-restricted shortcuts",
		Description: "Barabási–Albert preferential attachment (m=3)",
		Sizes:       []int{256, 1024},
		Build:       func(n int, seed int64) *graph.Graph { return gen.BarabasiAlbert(max(n, baM+2), baM, seed) },
		Invariants: Invariants{
			Connected: true,
			Nodes:     func(n int) int { return max(n, baM+2) },
			Edges: func(n int) int {
				n = max(n, baM+2)
				return baM*(baM+1)/2 + (n-baM-1)*baM
			},
		},
	})
	Register(&Scenario{
		Name:        "geometric",
		Tags:        []string{"geometric", "random"},
		Ref:         "unit-disk graphs: the evaluation family of the low-diameter decomposition line (Rozhoň–Ghaffari 2019); strong locality without a genus bound",
		Description: "random unit-disk graph with Morton backbone (avg degree ~8)",
		Sizes:       []int{256, 1024},
		Build: func(n int, seed int64) *graph.Graph {
			n = max(n, 2)
			return gen.RandomGeometric(n, gen.GeometricRadius(n, geoAvgDeg), seed)
		},
		Invariants: Invariants{
			Connected: true,
			Nodes:     func(n int) int { return max(n, 2) },
		},
	})
	Register(&Scenario{
		Name:        "regular",
		Tags:        []string{"regular", "expander", "random"},
		Ref:         "random 4-regular graphs are expanders whp: constant conductance, log diameter — where shortcut existence is easy but tree restriction bites",
		Description: "random 4-regular graph (pairing model)",
		Sizes:       []int{256, 1024},
		Build:       func(n int, seed int64) *graph.Graph { return gen.RandomRegular(max(n, regularD+1), regularD, seed) },
		Invariants: Invariants{
			Connected: true,
			Nodes:     func(n int) int { return max(n, regularD+1) },
			Edges:     func(n int) int { return max(n, regularD+1) * regularD / 2 },
			Degree:    func(int) int { return regularD },
		},
	})
	Register(&Scenario{
		Name:        "hypercube",
		Tags:        []string{"regular", "low-diameter"},
		Ref:         "the classic interconnect: log-regular, log-diameter, genus Θ(n·log n) — probes FindShortcut far outside the Theorem 1 precondition",
		Description: "Boolean hypercube (n rounded to a power of two)",
		Sizes:       []int{256, 1024},
		Build:       func(n int, _ int64) *graph.Graph { return gen.Hypercube(dimOf(n)) },
		Invariants: Invariants{
			Connected: true,
			Nodes:     func(n int) int { return 1 << dimOf(n) },
			Edges:     func(n int) int { d := dimOf(n); return d << (d - 1) },
			Degree:    func(n int) int { return dimOf(n) },
		},
	})
	Register(&Scenario{
		Name:        "caveman",
		Tags:        []string{"community"},
		Ref:         "Watts' connected caveman: the community workload of the decomposition literature (Ghaffari–Portmann 2019), with quotient-ring diameter ~ k/2",
		Description: "k caves of 8 vertices, one rewired edge each, joined in a ring",
		Sizes:       []int{256, 1024},
		Build:       func(n int, _ int64) *graph.Graph { return gen.Caveman(cavesOf(n), cavemanSize) },
		Invariants: Invariants{
			Connected: true,
			Nodes:     func(n int) int { return cavesOf(n) * cavemanSize },
			Edges:     func(n int) int { return cavesOf(n) * cavemanSize * (cavemanSize - 1) / 2 },
		},
	})
}
