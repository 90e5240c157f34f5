package mincut

import (
	"fmt"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/findshort"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/mst"
	"lcshortcut/internal/partition"
)

// PackResult is one node's output of the distributed packing stage.
type PackResult struct {
	// InTree[t][e] reports, per packed tree t, whether incident edge e was
	// chosen — both endpoints of an edge always agree.
	InTree []map[graph.EdgeID]bool
	// Load[e] is the final packing load of each incident edge.
	Load map[graph.EdgeID]int
	// DegW is this node's weighted degree.
	DegW int64
	// MinDeg and MinDegNode are the global minimum weighted degree and the
	// smallest vertex ID achieving it (known to every node).
	MinDeg     int64
	MinDegNode graph.NodeID
}

// PackPhase greedily packs k spanning trees on one node: iteration t runs
// the distributed Boruvka MST under the (load, weight, edge ID) order — the
// same rule as the centralized GreedyPack — then increments the load of the
// chosen edges. A closing pair of tree aggregates computes the global
// minimum weighted degree, the trivial-cut candidate. All nodes enter and
// leave aligned; edge weights must be positive.
func PackPhase(ctx *congest.Ctx, info *bfsproto.Info, cfg Config) (*PackResult, error) {
	k := cfg.Trees
	if k == 0 {
		k = defaultTrees(info.Count)
	}
	strategy := cfg.Strategy
	if strategy == 0 {
		strategy = mst.StrategyCanonical
	}
	// Global maximum weight scales the composite packing key; the minimum
	// validates positivity network-wide.
	localMax, localMin := int64(1), int64(1)<<62
	for _, a := range ctx.Neighbors() {
		w := ctx.EdgeWeight(a.Edge)
		if w > localMax {
			localMax = w
		}
		if w < localMin {
			localMin = w
		}
	}
	maxW, err := bfsproto.MaxPhase(ctx, info, localMax)
	if err != nil {
		return nil, err
	}
	negMin, err := bfsproto.MaxPhase(ctx, info, -localMin)
	if err != nil {
		return nil, err
	}
	if minW := -negMin; minW <= 0 {
		return nil, fmt.Errorf("mincut: edge weights must be positive, found %d", minW)
	}
	if maxW+1 > (int64(1)<<62)/int64(k+1) {
		return nil, fmt.Errorf("mincut: %d trees with max weight %d overflow the packing key", k, maxW)
	}
	res := &PackResult{Load: make(map[graph.EdgeID]int, ctx.Degree())}
	// The packing order: loads lexicographically before true weights, edge
	// IDs breaking ties inside mst's comparator.
	weightOf := func(e graph.EdgeID) int64 {
		return int64(res.Load[e])*(maxW+1) + ctx.EdgeWeight(e)
	}
	for t := 0; t < k; t++ {
		mr, err := mst.Phase(ctx, info, mst.Config{
			Strategy: strategy, MaxPhases: cfg.MaxPhases, WeightOf: weightOf})
		if err != nil {
			return nil, fmt.Errorf("mincut: packing round %d: %w", t, err)
		}
		in := make(map[graph.EdgeID]bool, len(mr.InMST))
		for e, ok := range mr.InMST {
			if ok {
				in[e] = true
				res.Load[e]++
			}
		}
		res.InTree = append(res.InTree, in)
	}
	for _, a := range ctx.Neighbors() {
		res.DegW += ctx.EdgeWeight(a.Edge)
	}
	minI64 := func(a, b int64) int64 {
		if b < a {
			return b
		}
		return a
	}
	res.MinDeg, err = bfsproto.AggregatePhase(ctx, info, res.DegW, minI64)
	if err != nil {
		return nil, err
	}
	argmin := int64(info.Count)
	if res.DegW == res.MinDeg {
		argmin = int64(ctx.ID())
	}
	node, err := bfsproto.AggregatePhase(ctx, info, argmin, minI64)
	if err != nil {
		return nil, err
	}
	res.MinDegNode = graph.NodeID(node)
	return res, nil
}

// sideAssign presents one node's witness membership as a PartAssign over the
// single-part partition {S}; nodes outside S are uncovered. Only local
// queries are legal (matching the protocols' locality).
type sideAssign struct {
	me graph.NodeID
	in bool
}

func (s sideAssign) Part(v graph.NodeID) int {
	if v != s.me {
		panic(fmt.Sprintf("mincut: non-local part query for %d from %d", v, s.me))
	}
	if s.in {
		return 0
	}
	return partition.None
}

// CertifyPhase re-counts the witness cut inside the CONGEST model: it builds
// the canonical shortcut for the single-part partition {S}, has every member
// contribute its crossing weight to the part-parallel sum (Lemma 3
// machinery), and spreads the certified value to every node with a closing
// tree aggregate. inWitness is this node's membership in S. Returns the
// certified cut weight, identical at every node.
func CertifyPhase(ctx *congest.Ctx, info *bfsproto.Info, inWitness bool) (int64, error) {
	m, steps, err := findshort.Route(ctx, info, sideAssign{me: ctx.ID(), in: inWitness}, 1, info.Seed, 0, 0, true)
	if err != nil {
		return 0, err
	}
	// Each member's crossing weight: incident edges whose far endpoint is
	// uncovered. Every crossing edge has exactly one member endpoint, so the
	// part sum is the exact cut weight.
	var cross int64
	if inWitness {
		for k, a := range ctx.Neighbors() {
			if m.NeighborPart[k] == partition.None {
				cross += ctx.EdgeWeight(a.Edge)
			}
		}
	}
	sums, err := m.PartSum(ctx, func(i int) int64 {
		if i == 0 && inWitness {
			return cross
		}
		return 0
	}, steps)
	if err != nil {
		return 0, err
	}
	const inf = int64(1) << 62
	local := inf
	if inWitness {
		r := sums[m.Index(0)]
		if !r.OK {
			return 0, fmt.Errorf("mincut: node %d: witness part sum not certified", ctx.ID())
		}
		local = r.Sum
	}
	cert, err := bfsproto.AggregatePhase(ctx, info, local, func(a, b int64) int64 {
		if b < a {
			return b
		}
		return a
	})
	if err != nil {
		return 0, err
	}
	if cert == inf {
		return 0, fmt.Errorf("mincut: node %d: empty witness side", ctx.ID())
	}
	return cert, nil
}

// Outcome is the global result of a min-cut run.
type Outcome struct {
	// Cut is the best witness cut weight — at most (1+ε)·OPT under the
	// TreesFor schedule, exact on every scenario-registry family.
	Cut int64
	// TreeIdx and CutEdge identify the winning 1-respecting cut (the packed
	// tree and the removed tree edge); both are -1 when the minimum-degree
	// cut wins.
	TreeIdx int
	CutEdge graph.EdgeID
	// MinDeg and MinDegNode are the trivial-cut candidate: the global
	// minimum weighted degree and its smallest achieving vertex.
	MinDeg     int64
	MinDegNode graph.NodeID
	// Witness is the membership bitmap of the winning side S.
	Witness []bool
	// WitnessSize is |S|.
	WitnessSize int
	// Certified is the distributed partagg re-count of the witness cut; Run
	// errors unless it equals Cut.
	Certified int64
	// NodeCuts is the cut value each node learned from the certification
	// spread (all equal Cut).
	NodeCuts []int64
	// Trees is the number of packed trees; TreeEdges lists each packed
	// tree's edges (sorted), and Loads the final per-edge packing loads —
	// byte-comparable against the centralized GreedyPack.
	Trees     int
	TreeEdges [][]graph.EdgeID
	Loads     []int
}

// Run executes the full protocol on g: one CONGEST run for BFS + packing,
// the centralized per-tree 1-respecting evaluation on the lifted trees, and
// a second CONGEST run certifying the chosen witness cut. The returned
// stats sum both simulations. Deterministic per (root, seed, cfg) on every
// engine and worker count.
func Run(g *graph.Graph, root graph.NodeID, seed int64, cfg Config, opts congest.Options) (*Outcome, congest.Stats, error) {
	n := g.NumNodes()
	if n < 2 {
		return nil, congest.Stats{}, fmt.Errorf("mincut: need at least 2 nodes, have %d", n)
	}
	for e := 0; e < g.NumEdges(); e++ {
		if g.Edge(e).W <= 0 {
			return nil, congest.Stats{}, fmt.Errorf("mincut: edge %d has non-positive weight %d", e, g.Edge(e).W)
		}
	}
	packs := make([]*PackResult, n)
	stats, err := congest.Run(g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, root, seed)
		if err != nil {
			return err
		}
		pr, err := PackPhase(ctx, info, cfg)
		if err != nil {
			return err
		}
		packs[ctx.ID()] = pr
		return nil
	}, opts)
	if err != nil {
		return nil, stats, err
	}

	// Lift each packed tree, checking that the endpoints of every edge agree
	// on its membership.
	loads := make([]int, g.NumEdges())
	treeEdges := make([][]graph.EdgeID, 0, len(packs[0].InTree))
	for t := range packs[0].InTree {
		edges := make([]graph.EdgeID, 0, n-1)
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(e)
			in := packs[ed.U].InTree[t][e]
			if in != packs[ed.V].InTree[t][e] {
				return nil, stats, fmt.Errorf("mincut: tree %d edge %d: endpoint membership disagrees", t, e)
			}
			if in {
				edges = append(edges, e)
				loads[e]++
			}
		}
		treeEdges = append(treeEdges, edges)
	}
	out, err := Evaluate(g, root, treeEdges, loads, packs[0].MinDeg, packs[0].MinDegNode)
	if err != nil {
		return nil, stats, err
	}

	// Certification pass: the distributed re-count over the witness side.
	out.NodeCuts = make([]int64, n)
	certStats, err := congest.Run(g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, root, seed)
		if err != nil {
			return err
		}
		cert, err := CertifyPhase(ctx, info, out.Witness[ctx.ID()])
		if err != nil {
			return err
		}
		out.NodeCuts[ctx.ID()] = cert
		return nil
	}, opts)
	stats.Add(certStats)
	if err != nil {
		return nil, stats, err
	}
	out.Certified = out.NodeCuts[0]
	if out.Certified != out.Cut {
		return nil, stats, fmt.Errorf("mincut: certification %d disagrees with witness cut %d", out.Certified, out.Cut)
	}
	return out, stats, nil
}
