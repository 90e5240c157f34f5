// Package findshort implements the paper's main algorithm as an end-to-end
// CONGEST protocol: FindShortcut (Theorem 3) — iterate the CoreFast (or
// CoreSlow) subroutine followed by Verification, fixing the parts whose
// tentative shortcut subgraph has at most 3b block components, until every
// part is fixed — plus the Appendix A doubling driver for unknown (b, c).
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
	// MaxIterations bounds the loop; 0 means 4·ceil(log2 NumParts) + 8.
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
// (uniformly at every node — the decision is a global aggregate) when the
// iteration budget was exhausted before all parts were fixed, which is the
// failure signal the Appendix A doubling driver keys on. All nodes enter and
// leave aligned.
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
		// Global termination / budget check (keeps every node in lockstep).
		morework, err := bfsproto.OrPhase(ctx, info, !res.Fixed)
		if err != nil {
			return nil, false, err
		}
		if !morework {
			res.Iterations = iter
			return res, true, nil
		}
		if iter >= budget {
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

		// Verification: membership, annotation, block counting vs 3B.
		m, err := partops.BuildMembership(ctx, ns, assign)
		if err != nil {
			return nil, false, err
		}
		if err := m.Annotate(ctx); err != nil {
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
// iteration budget. Nodes stay in lockstep — the per-probe failure signal is
// a global aggregate. Mirrors core.FindShortcutAuto (seed schedule included).
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
