// Package mincut is the repository's second flagship shortcut application:
// a distributed (1+ε)-approximate minimum cut in the CONGEST model via
// greedy tree packing, in the style of the Ghaffari–Haeupler line of
// shortcut applications.
//
// The protocol has three stages, every one a composition of the repository's
// aligned phase functions:
//
//  1. Packing — k rounds of the distributed Boruvka MST (internal/mst,
//     routing over shortcuts from findshort.Route) where round t orders
//     edges by (load, weight, edge ID) and load(e) counts the packed trees
//     already using e. Greedy tree packing spreads the trees across the
//     graph, so some packed tree crosses a minimum cut few times.
//  2. Evaluation — for every packed tree, the minimum 1-respecting cut: the
//     best cut obtained by removing one tree edge (the subtree below it
//     against the rest). When a packed tree crosses a min cut exactly once,
//     the 1-respecting cut at the crossing edge is that min cut exactly. The
//     global minimum weighted degree joins the candidate set (it is the
//     1-respecting cut of any tree in which the argmin vertex is a leaf).
//  3. Certification — the best witness cut S is re-counted inside the
//     CONGEST model: a canonical shortcut for the single-part partition {S}
//     is built and the part-parallel sum (partops.PartSum, the §1.2
//     "function per part" primitive) adds up each member's crossing weight;
//     a final tree aggregate spreads the certified value to every node.
//
// The packing and certification stages are round-exact CONGEST protocols;
// the per-tree cut evaluation runs on the lifted trees (internal/tree), the
// same centralized-evaluation boundary the S1 experiment uses for shortcut
// quality. StoerWagner is the independent exact verifier the differential
// tests and the M1 experiment compare against.
//
// Approximation: with the theory schedule of TreesFor(n, ε) packed trees the
// classical tree-packing argument gives (1+ε)·OPT for unit-capacity graphs;
// the practical default (ceil(log2 n)+1 trees plus the degree candidate)
// achieves ratio 1.0 on every scenario-registry family, which the M1
// experiment checks against StoerWagner on every run.
package mincut

import (
	"math"

	"lcshortcut/internal/mst"
)

// Config parameterizes the distributed min-cut protocol.
type Config struct {
	// Trees is the number of spanning trees packed greedily; 0 means
	// ceil(log2 n) + 1.
	Trees int
	// Strategy selects how MST fragments communicate during packing
	// (default mst.StrategyCanonical: the full-ancestor shortcut, no
	// construction search — the cheapest shortcut-framework mode).
	Strategy mst.Strategy
	// MaxPhases is forwarded to every packing MST run; 0 means the mst
	// default.
	MaxPhases int
}

// TreesFor returns the theory packing schedule k = ceil(ln n / ε²): packing
// that many trees makes some tree cross a relative (1+ε)-minimum cut at most
// twice on unit-capacity graphs. The practical default in Config is far
// smaller; the M1 experiment verifies the achieved ratio against the exact
// verifier instead of relying on the worst-case schedule.
func TreesFor(n int, eps float64) int {
	if n < 2 {
		return 1
	}
	k := int(math.Ceil(math.Log(float64(n)) / (eps * eps)))
	if k < 1 {
		k = 1
	}
	return k
}

// defaultTrees is the practical packing width: ceil(log2 n) + 1.
func defaultTrees(n int) int { return ceilLog2(n) + 1 }

func ceilLog2(n int) int {
	k := 0
	for v := 1; v < n; v *= 2 {
		k++
	}
	return k
}
