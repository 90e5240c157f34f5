package mst

import (
	"fmt"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/findshort"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partops"
	"lcshortcut/internal/rnd"
)

// Strategy selects how Boruvka fragments communicate.
type Strategy int

const (
	// StrategyShortcut runs the paper's algorithm: per phase, construct
	// tree-restricted shortcuts for the current fragments with FindShortcut
	// (doubling for unknown parameters) and route over them. Lemma 4.
	StrategyShortcut Strategy = iota + 1
	// StrategyCanonical skips construction and uses the canonical
	// full-ancestor shortcut (b = 1, congestion c*): cheap to build, but
	// routing pays c* per cast — the "global pipelining over T" baseline.
	StrategyCanonical
	// StrategyNoShortcut restricts each fragment to its own induced edges —
	// the baseline whose round count scales with fragment diameter (§1.2).
	StrategyNoShortcut
)

// Config parameterizes the distributed MST.
type Config struct {
	Strategy Strategy
	// C and B, when non-zero, are witness shortcut parameters passed to
	// FindShortcut (StrategyShortcut only). When zero the Appendix A
	// doubling search is used.
	C, B int
	// MaxPhases caps Boruvka phases; 0 means 4·ceil(log2 n) + 16.
	MaxPhases int
	// WeightOf, when non-nil, replaces the edge weight in the Boruvka
	// selection order: edges are compared by (WeightOf(e), e) instead of
	// (EdgeWeight(e), e). Every node must supply the same deterministic
	// function of shared state — the min-cut tree packing reweights edges by
	// their accumulated load this way. NodeResult.Weight still reports the
	// true EdgeWeight total of the chosen tree.
	WeightOf func(graph.EdgeID) int64
}

// NodeResult is one node's MST output, matching the problem statement in
// §3.1: the global MST weight plus a membership bit per incident edge.
type NodeResult struct {
	// Weight is the global MST weight (known to every node).
	Weight int64
	// InMST[e] for each incident edge ID e.
	InMST map[graph.EdgeID]bool
	// Fragment is the final fragment ID (identical everywhere on success).
	Fragment int
	// Phases is the number of Boruvka phases executed.
	Phases int
}

// fragView adapts a node's current fragment ID to coredist.PartAssign. The
// construction protocols only ever query a node's own part; asking for
// another vertex would be non-local information and panics.
type fragView struct {
	me   graph.NodeID
	frag *int
}

func (f fragView) Part(v graph.NodeID) int {
	if v != f.me {
		panic(fmt.Sprintf("mst: non-local part query for %d from %d", v, f.me))
	}
	return *f.frag
}

// markMsg tells the far endpoint of a chosen merge edge that the edge joined
// the MST.
type markMsg struct{ edge, m int }

func (ms markMsg) Bits() int { return congest.BitsForID(ms.m) + 1 }

// mstVal is the Boruvka selection value: the minimum outgoing edge under the
// unique-MST order (weight, edge ID), carrying the target fragment along.
type mstVal struct {
	valid  bool
	w      int64
	edge   graph.EdgeID
	target int
	n, m   int
}

func (v mstVal) Bits() int { return 64 + congest.BitsForID(v.m) + congest.BitsForID(v.n) + 2 }

func lessVal(a, b partops.Value) bool {
	va, vb := a.(mstVal), b.(mstVal)
	switch {
	case va.valid != vb.valid:
		return va.valid
	case !va.valid:
		return false
	case va.w != vb.w:
		return va.w < vb.w
	default:
		return va.edge < vb.edge
	}
}

// Phase runs the distributed MST on one node, starting from a completed BFS
// phase. All strategies share the Boruvka skeleton (star merges with shared
// randomness head/tail coins — the Lemma 4 merge-shape restriction) and
// differ only in how a fragment agrees on its minimum outgoing edge.
func Phase(ctx *congest.Ctx, info *bfsproto.Info, cfg Config) (*NodeResult, error) {
	if cfg.Strategy == 0 {
		cfg.Strategy = StrategyShortcut
	}
	maxPhases := cfg.MaxPhases
	if maxPhases == 0 {
		maxPhases = 4*ceilLog2(info.Count) + 16
	}
	res := &NodeResult{InMST: make(map[graph.EdgeID]bool), Fragment: ctx.ID()}
	frag := ctx.ID()

	phase := 0
	for ; ; phase++ {
		// Fragment announce + global termination test. nbrFrag is indexed by
		// arc (ctx.Neighbors() order).
		nbrFrag, err := announceFrag(ctx, info, frag)
		if err != nil {
			return nil, err
		}
		anyOut := false
		for k := range ctx.Neighbors() {
			if nbrFrag[k] != frag {
				anyOut = true
			}
		}
		more, err := bfsproto.OrPhase(ctx, info, anyOut)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		if phase >= maxPhases {
			return nil, fmt.Errorf("mst: node %d: phase budget %d exhausted", ctx.ID(), maxPhases)
		}

		// Local minimum outgoing edge under the unique-MST order.
		weight := ctx.EdgeWeight
		if cfg.WeightOf != nil {
			weight = cfg.WeightOf
		}
		own := mstVal{valid: false, n: info.Count, m: 2 * info.Count * info.Count}
		for k, a := range ctx.Neighbors() {
			if nbrFrag[k] == frag {
				continue
			}
			cand := mstVal{valid: true, w: weight(a.Edge), edge: a.Edge,
				target: nbrFrag[k], n: own.n, m: own.m}
			if !own.valid || lessVal(cand, own) {
				own = cand
			}
		}

		// Fragment-wide agreement on the minimum outgoing edge.
		var best mstVal
		switch cfg.Strategy {
		case StrategyNoShortcut:
			best, err = agreeNoShortcut(ctx, info, frag, nbrFrag, own)
		default:
			best, err = agreeShortcut(ctx, info, &frag, own, cfg, phase)
		}
		if err != nil {
			return nil, err
		}

		// Star merge with shared-randomness head/tail coins: tails merge into
		// heads along their chosen edge.
		coin := func(f int) bool { return rnd.Bernoulli(info.Seed+int64(phase), int64(f), 0.5) }
		willMerge := best.valid && !coin(frag) && coin(best.target)
		// Mark round: the chosen edge's owner (its endpoint inside the tail
		// fragment) tells the far endpoint.
		if willMerge {
			for k, a := range ctx.Neighbors() {
				if a.Edge == best.edge && nbrFrag[k] == best.target {
					res.InMST[best.edge] = true
					ctx.SendArc(k, markMsg{edge: best.edge, m: own.m})
				}
			}
		}
		for _, m := range ctx.StepRound() {
			mm, ok := m.Payload.(markMsg)
			if !ok {
				return nil, fmt.Errorf("mst: unexpected payload %T in mark round", m.Payload)
			}
			res.InMST[mm.edge] = true
		}
		if willMerge {
			frag = best.target
		}
	}
	res.Fragment = frag
	res.Phases = phase

	// Global MST weight: each edge is counted once, by its smaller endpoint.
	var local int64
	for e := range res.InMST {
		for _, a := range ctx.Neighbors() {
			if a.Edge == e && ctx.ID() < a.To {
				local += ctx.EdgeWeight(e)
			}
		}
	}
	total, err := bfsproto.SumPhase(ctx, info, local)
	if err != nil {
		return nil, err
	}
	res.Weight = total
	return res, nil
}

// agreeShortcut routes over a shortcut for the current fragments — the
// canonical witness under StrategyCanonical, otherwise FindShortcut at
// cfg's (C, B) or the doubling search (findshort.Route) — and runs the
// Theorem 2 idempotent convergecast over it.
func agreeShortcut(ctx *congest.Ctx, info *bfsproto.Info, frag *int, own mstVal, cfg Config, phase int) (mstVal, error) {
	m, steps, err := findshort.Route(ctx, info, fragView{me: ctx.ID(), frag: frag}, info.Count,
		info.Seed+int64(7919*phase), cfg.C, cfg.B, cfg.Strategy == StrategyCanonical)
	if err != nil {
		return mstVal{}, fmt.Errorf("mst: %w", err)
	}
	top := mstVal{valid: false, n: own.n, m: own.m}
	var ownV partops.Value
	if own.valid {
		ownV = own
	}
	mins, err := m.MinToAll(ctx, func(int) partops.Value { return ownV }, top, lessVal, steps)
	if err != nil {
		return mstVal{}, err
	}
	return mins[m.Index(*frag)].(mstVal), nil
}

// agreeNoShortcut floods the minimum outgoing edge inside each fragment
// using only G[P_i] edges, in chunks with a global convergence check — the
// baseline whose cost per phase is the fragment diameter. Only a better
// value from a neighbor gives a node something to send, so between sends it
// waits in StepUntil for mail or the end of the chunk. nbrFrag is indexed by
// arc.
func agreeNoShortcut(ctx *congest.Ctx, info *bfsproto.Info, frag int, nbrFrag []int, own mstVal) (mstVal, error) {
	const chunk = 16
	cur := own
	changedSinceSend := true
	for {
		changedInChunk := false
		end := ctx.Round() + chunk
		for ctx.Round() < end {
			if changedSinceSend {
				for k := range ctx.Neighbors() {
					if nbrFrag[k] == frag {
						ctx.SendArc(k, cur)
					}
				}
				changedSinceSend = false
			}
			ctx.StepUntil(end)
			for k := range ctx.Neighbors() {
				p, ok := ctx.InboxArc(k)
				if !ok {
					continue
				}
				mv, ok := p.(mstVal)
				if !ok {
					return mstVal{}, fmt.Errorf("mst: unexpected payload %T in flood", p)
				}
				if lessVal(mv, cur) {
					cur = mv
					changedSinceSend = true
					changedInChunk = true
				}
			}
		}
		more, err := bfsproto.OrPhase(ctx, info, changedInChunk || changedSinceSend)
		if err != nil {
			return mstVal{}, err
		}
		if !more {
			return cur, nil
		}
	}
}

// announceFrag exchanges fragment IDs with every neighbor (one round) and
// returns them indexed by arc. Every live node announces, so each arc must
// carry exactly one fragAnnounce.
func announceFrag(ctx *congest.Ctx, info *bfsproto.Info, frag int) ([]int, error) {
	ctx.SendAll(fragAnnounce{frag: frag, n: info.Count})
	ctx.Step()
	out := make([]int, ctx.Degree())
	for k, a := range ctx.Neighbors() {
		p, ok := ctx.InboxArc(k)
		if !ok {
			return nil, fmt.Errorf("mst: node %d missing fragment announce from neighbor %d", ctx.ID(), a.To)
		}
		fa, ok := p.(fragAnnounce)
		if !ok {
			return nil, fmt.Errorf("mst: unexpected payload %T in announce", p)
		}
		out[k] = fa.frag
	}
	return out, nil
}

type fragAnnounce struct{ frag, n int }

func (f fragAnnounce) Bits() int { return congest.BitsForID(f.n) + 1 }

// Run executes BFS + MST on g and returns per-node results plus statistics.
func Run(g *graph.Graph, root graph.NodeID, seed int64, cfg Config, opts congest.Options) ([]*NodeResult, congest.Stats, error) {
	results := make([]*NodeResult, g.NumNodes())
	stats, err := congest.Run(g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, root, seed)
		if err != nil {
			return err
		}
		res, err := Phase(ctx, info, cfg)
		if err != nil {
			return err
		}
		results[ctx.ID()] = res
		return nil
	}, opts)
	if err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

func ceilLog2(n int) int {
	k := 0
	for v := 1; v < n; v *= 2 {
		k++
	}
	return k
}
