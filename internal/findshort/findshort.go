// Package findshort implements the paper's main algorithm as an end-to-end
// CONGEST protocol: FindShortcut (Theorem 3) — iterate the CoreFast (or
// CoreSlow) subroutine followed by Verification, fixing the parts whose
// tentative shortcut subgraph has at most 3b block components, until every
// part is fixed — plus the Appendix A doubling driver for unknown (b, c).
//
// Route is the one entry point the applications (MST, per-part
// aggregation, min-cut certification, experiments E6 and E9) use to get a
// shortcut they can route over: it picks the canonical witness, FindShortcut
// at a known (c, b) or the doubling search, and returns the annotated block
// membership with its Theorem 2 superstep budget.
//
// The protocol composes the phase functions of packages bfsproto, coredist
// and partops; every phase keeps all nodes aligned at the same global round,
// so the whole construction runs inside one simulation with exact round
// accounting.
package findshort

import (
	"fmt"
	"sort"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/coredist"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/partops"
)

// Config parameterizes the distributed FindShortcut; it mirrors
// core.FindConfig so the deterministic variants match the centralized
// reference bit-for-bit.
type Config struct {
	// C and B are the congestion and block parameter of a T-restricted
	// shortcut assumed to exist.
	C, B int
	// NumParts is N, the number of parts (used only for the default
	// iteration budget — nodes know a bound on N just as they know n).
	NumParts int
	// Seed feeds CoreFast's shared randomness; iteration k uses Seed+k,
	// matching core.FindConfig.
	Seed int64
	// UseSlow selects the deterministic CoreSlow core subroutine.
	UseSlow bool
	// MaxIterations bounds the loop; 0 means 4·ceil(log2 NumParts) + 8. It
	// is an upper bound only: an iteration that fixes no part ends the run
	// earlier, as in core.FindConfig (see Phase).
	MaxIterations int
}

// Result is one node's output of the FindShortcut protocol.
type Result struct {
	// NS is the accumulated final shortcut in distributed representation:
	// per-edge part lists merged over all iterations' fixed parts.
	NS *coredist.NodeShortcut
	// Iterations is the number of core+verification iterations executed.
	Iterations int
	// Fixed reports whether this node's own part was fixed (always true on
	// success for covered nodes).
	Fixed bool
	// FixedAt is the iteration (0-based) at which the node's own part was
	// fixed, or -1.
	FixedAt int
}

// Phase runs the FindShortcut protocol on one node. It returns ok=false
// (uniformly at every node — the decision is a global aggregate) when parts
// remain unfixed and either the previous iteration fixed none of them or the
// iteration budget is exhausted, which is the failure signal the Appendix A
// doubling driver keys on. All nodes enter and leave aligned.
//
// Each iteration opens with one aggregate that ORs two bits per node: bit 0
// says the node's part is still unfixed, bit 1 that it was fixed by the
// previous iteration. No bit 0 anywhere means success. Bit 0 without bit 1
// at iteration k ≥ 1 means iteration k−1 fixed no part, so the run stops
// with Iterations = k — the zero-progress rule of core.FindShortcut, which
// stops after the same iteration. The two bits ride in the aggregate's one
// 64-bit word, so the rule costs no extra rounds or message bits.
func Phase(ctx *congest.Ctx, info *bfsproto.Info, assign coredist.PartAssign, cfg Config) (*Result, bool, error) {
	if cfg.C < 1 || cfg.B < 1 {
		return nil, false, fmt.Errorf("findshort: need C,B >= 1, got C=%d B=%d", cfg.C, cfg.B)
	}
	budget := cfg.MaxIterations
	if budget == 0 {
		budget = 4*ceilLog2(cfg.NumParts) + 8
	}
	res := &Result{NS: emptyAccum(info), FixedAt: -1}
	ownPart := assign.Part(ctx.ID())
	res.Fixed = ownPart == partition.None // uncovered nodes have nothing to fix

	for iter := 0; ; iter++ {
		// Global termination / progress / budget check (keeps every node in
		// lockstep).
		var local int64
		if !res.Fixed {
			local |= unfixedBit
		}
		if iter > 0 && res.FixedAt == iter-1 {
			local |= progressBit
		}
		global, err := bfsproto.AggregatePhase(ctx, info, local, func(a, b int64) int64 { return a | b })
		if err != nil {
			return nil, false, err
		}
		if global&unfixedBit == 0 {
			res.Iterations = iter
			return res, true, nil
		}
		if iter >= budget || (iter > 0 && global&progressBit == 0) {
			res.Iterations = iter
			return res, false, nil
		}

		// Core subroutine on the remaining parts.
		var ns *coredist.NodeShortcut
		if cfg.UseSlow {
			ns, err = coredist.CoreSlowPhase(ctx, info, assign, cfg.C, res.Fixed && ownPart != partition.None)
		} else {
			ns, err = coredist.CoreFastPhase(ctx, info, assign, coredist.FastParams{
				C:           cfg.C,
				ActSeed:     cfg.Seed + int64(iter),
				SkipOwnPart: res.Fixed && ownPart != partition.None,
			})
		}
		if err != nil {
			return nil, false, err
		}

		// Verification: annotated membership, block counting vs 3B.
		m, err := partops.BuildMembership(ctx, ns, assign)
		if err != nil {
			return nil, false, err
		}
		verdicts, err := m.VerifyBlockCount(ctx, 3*cfg.B)
		if err != nil {
			return nil, false, err
		}

		// Adopt the good parts' assignments on my incident edges.
		good := func(i int) bool {
			k := m.Index(i)
			return k >= 0 && verdicts[k].OK
		}
		mergeAccum(res.NS, ns, good)
		if !res.Fixed && ownPart != partition.None && good(ownPart) {
			res.Fixed = true
			res.FixedAt = iter
		}
	}
}

// The two bits of the aggregate that opens each iteration of Phase.
const (
	unfixedBit  = 1 << 0 // my part is not fixed yet
	progressBit = 1 << 1 // my part was fixed by the previous iteration
)

// emptyAccum returns an all-empty accumulated shortcut view.
func emptyAccum(info *bfsproto.Info) *coredist.NodeShortcut {
	return &coredist.NodeShortcut{
		Info:        info,
		ChildParts:  make([][]int, len(info.Children)),
		ChildUsable: make([]bool, len(info.Children)),
	}
}

// mergeAccum merges the good parts of an iteration's tentative shortcut into
// the accumulator. A part is fixed in exactly one iteration, so merging is a
// sorted-set union.
func mergeAccum(acc, ns *coredist.NodeShortcut, good func(int) bool) {
	merge := func(dst []int, src []int) []int {
		for _, i := range src {
			if !good(i) {
				continue
			}
			k := sort.SearchInts(dst, i)
			if k == len(dst) || dst[k] != i {
				dst = append(dst, 0)
				copy(dst[k+1:], dst[k:])
				dst[k] = i
			}
		}
		return dst
	}
	acc.ParentParts = merge(acc.ParentParts, ns.ParentParts)
	acc.ParentUsable = len(acc.ParentParts) > 0
	for k, parts := range ns.ChildParts {
		acc.ChildParts[k] = merge(acc.ChildParts[k], parts)
		acc.ChildUsable[k] = len(acc.ChildParts[k]) > 0
	}
}

// AutoResult augments Result with the doubling estimate that succeeded.
type AutoResult struct {
	*Result
	// Est is the successful (c, b) = (Est, Est) estimate.
	Est int
	// Probes counts failed estimates before success.
	Probes int
}

// AutoPhase is the distributed Appendix A doubling driver: FindShortcut with
// (c, b) = (1, 1), (2, 2), (4, 4), ... until a probe completes within its
// iteration budget. A probe fails at its first iteration that fixes no part,
// or when its ceil(log2 numParts)+6 iterations run out. Nodes stay in
// lockstep — the per-probe failure signal is a global aggregate. Mirrors
// core.FindShortcutAuto (seed schedule and stopping rule included).
func AutoPhase(ctx *congest.Ctx, info *bfsproto.Info, assign coredist.PartAssign, numParts int, seed int64, useSlow bool) (*AutoResult, error) {
	probes := 0
	for est := 1; est <= 2*info.Count; est *= 2 {
		res, ok, err := Phase(ctx, info, assign, Config{
			C:             est,
			B:             est,
			NumParts:      numParts,
			Seed:          seed + int64(1000*probes),
			UseSlow:       useSlow,
			MaxIterations: ceilLog2(numParts) + 6,
		})
		if err != nil {
			return nil, err
		}
		if ok {
			return &AutoResult{Result: res, Est: est, Probes: probes}, nil
		}
		probes++
	}
	return nil, fmt.Errorf("findshort: doubling search exhausted at estimate > 2n = %d", 2*info.Count)
}

// Route builds the shortcut a Theorem 2 application routes over and returns
// this node's annotated block membership of it together with the superstep
// budget 3·b that makes the part-wide casts globally consistent. canonical
// selects the canonical full-ancestor witness (b = 1, no search); otherwise
// c, b > 0 run FindShortcut at that (c, b), failing if it does not finish,
// and anything else runs the Appendix A doubling search, whose successful
// estimate is b. numParts bounds the iteration budget and seed feeds
// CoreFast, as in Config. All nodes enter and leave aligned.
func Route(ctx *congest.Ctx, info *bfsproto.Info, assign coredist.PartAssign, numParts int, seed int64, c, b int, canonical bool) (*partops.Membership, int, error) {
	var ns *coredist.NodeShortcut
	switch {
	case canonical:
		cns, err := coredist.CanonicalPhase(ctx, info, assign)
		if err != nil {
			return nil, 0, err
		}
		ns, b = cns, 1
	case c > 0 && b > 0:
		res, ok, err := Phase(ctx, info, assign, Config{C: c, B: b, NumParts: numParts, Seed: seed})
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, 0, fmt.Errorf("findshort: FindShortcut failed with C=%d B=%d; use the doubling search", c, b)
		}
		ns = res.NS
	default:
		ar, err := AutoPhase(ctx, info, assign, numParts, seed, false)
		if err != nil {
			return nil, 0, err
		}
		ns, b = ar.NS, ar.Est
	}
	m, err := partops.BuildMembership(ctx, ns, assign)
	if err != nil {
		return nil, 0, err
	}
	return m, 3 * b, nil
}

// Run executes BFS + FindShortcut on graph g with the given partition and
// returns per-node results plus run statistics — the standalone entry point
// for tests, experiments and the CLI.
func Run(g *graph.Graph, p *partition.Partition, root graph.NodeID, cfg Config, opts congest.Options) ([]*Result, congest.Stats, bool, error) {
	if cfg.NumParts == 0 {
		cfg.NumParts = p.NumParts()
	}
	results := make([]*Result, g.NumNodes())
	oks := make([]bool, g.NumNodes())
	stats, err := congest.Run(g, func(ctx *congest.Ctx) error {
		info, err := bfsproto.Phase(ctx, root, cfg.Seed)
		if err != nil {
			return err
		}
		res, ok, err := Phase(ctx, info, p, cfg)
		if err != nil {
			return err
		}
		oks[ctx.ID()] = ok
		results[ctx.ID()] = res
		return nil
	}, opts)
	if err != nil {
		return nil, stats, false, err
	}
	allOK := true
	for _, ok := range oks {
		allOK = allOK && ok
	}
	return results, stats, allOK, nil
}

func ceilLog2(n int) int {
	k := 0
	for v := 1; v < n; v *= 2 {
		k++
	}
	return k
}
