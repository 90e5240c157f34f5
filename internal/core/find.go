package core

import (
	"errors"
	"fmt"
	"runtime"

	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

// FindConfig parameterizes FindShortcut (Theorem 3).
type FindConfig struct {
	// C and B are the congestion and block parameter of a T-restricted
	// shortcut assumed to exist (e.g. the canonical witness (c*, 1), or the
	// genus bound (O(gD log D), O(log D)) on genus-g graphs).
	C, B int
	// Seed feeds CoreFast's shared randomness; iteration k uses Seed+k.
	Seed int64
	// UseSlow selects the deterministic CoreSlow subroutine instead of
	// CoreFast (slower in rounds, guarantee-wise identical apart from the
	// congestion constant: 2c instead of 8c).
	UseSlow bool
	// MaxIterations bounds the verification loop; 0 means a generous
	// 4·ceil(log2 N) + 8. Exceeding it returns ErrIterationBudget, which the
	// Appendix A doubling driver uses as its failure signal.
	MaxIterations int
	// Workers is the per-part walk parallelism of the construction: 1 (or
	// negative) runs sequentially, 0 uses GOMAXPROCS, k > 1 a bounded pool
	// of k workers. The result is byte-identical for every value — each
	// part's walk is a pure function of the shared pass-1 state, outputs go
	// to per-part slots, and all merges are ordered by part ID (the
	// determinism-under-parallelism contract; see DESIGN.md).
	Workers int
}

// FindResult is the output of FindShortcut.
type FindResult struct {
	// S is the constructed shortcut; nil when FindShortcut returns
	// ErrIterationBudget.
	S *Shortcut
	// Iterations is the number of core+verification rounds executed.
	Iterations int
	// GoodPerIteration records how many parts were marked good (block count
	// ≤ 3B) in each iteration.
	GoodPerIteration []int
}

// ErrIterationBudget reports that FindShortcut failed to finish within its
// iteration budget — the signal that the assumed (C, B) parameters were too
// small (no such shortcut exists, or CoreFast got unlucky).
var ErrIterationBudget = errors.New("core: FindShortcut exceeded its iteration budget")

// FindShortcut is the centralized reference implementation of the paper's
// main algorithm (Theorem 3): repeat the core subroutine, keep the parts
// whose tentative shortcut subgraph has at most 3B block components, and
// re-run on the rest. Given that a (C, B) T-restricted shortcut exists, each
// iteration fixes at least half the remaining parts (deterministically for
// CoreSlow, w.h.p. for CoreFast), so O(log N) iterations suffice and the
// final shortcut has block parameter ≤ 3B and shortcut-congestion
// O(C·log N).
//
// The loop runs entirely on a pooled construction scratch: block counts come
// out of the per-part walks for free, and good parts are adopted by copying
// their flat edge lists. On success the result Shortcut is measured (part
// edge lists, blocks, diameters, quality scalars) on the same worker budget.
// On ErrIterationBudget no shortcut is built: the result carries only the
// iteration trace, which is all the doubling driver needs to move on.
func FindShortcut(t *tree.Tree, p *partition.Partition, cfg FindConfig) (*FindResult, error) {
	if cfg.C < 1 || cfg.B < 1 {
		return nil, fmt.Errorf("core: FindShortcut needs C,B >= 1, got C=%d B=%d", cfg.C, cfg.B)
	}
	n := p.NumParts()
	budget := cfg.MaxIterations
	if budget == 0 {
		budget = 4*ceilLog2(n) + 8
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	result := &FindResult{}
	remaining := make([]bool, n)
	for i := range remaining {
		remaining[i] = true
	}
	cs := getConstruct()
	defer putConstruct(cs)
	final := make([][]int32, n)
	var finalArena []int32
	left := n
	for left > 0 {
		if result.Iterations >= budget {
			return result, fmt.Errorf("%w: %d parts unresolved after %d iterations (C=%d B=%d)",
				ErrIterationBudget, left, result.Iterations, cfg.C, cfg.B)
		}
		if cfg.UseSlow {
			cs.runSlow(t, p, cfg.C, remaining, workers)
		} else {
			cs.runFast(t, p, FastConfig{
				C:         cfg.C,
				Seed:      cfg.Seed + int64(result.Iterations),
				Remaining: remaining,
			}, workers)
		}
		good := 0
		for i := 0; i < n; i++ {
			if remaining[i] && cs.blockCnt[i] <= 3*cfg.B {
				remaining[i] = false
				good++
				// Adopt the good part's subgraph into the final shortcut.
				start := len(finalArena)
				finalArena = append(finalArena, cs.partEdges[i]...)
				final[i] = finalArena[start:len(finalArena):len(finalArena)]
			}
		}
		left -= good
		result.Iterations++
		result.GoodPerIteration = append(result.GoodPerIteration, good)
	}
	result.S = flattenShortcut(t, p, final, workers)
	return result, nil
}

// AutoResult augments FindResult with the parameters the Appendix A doubling
// search settled on.
type AutoResult struct {
	*FindResult
	// EstC and EstB are the successful parameter estimates (equal, by the
	// doubling schedule).
	EstC, EstB int
	// Probes counts the failed doubling attempts before success.
	Probes int
}

// FindShortcutAuto implements the Appendix A doubling mechanism for when no
// bound on (c, b) is known: try (c, b) = (1, 1), (2, 2), (4, 4), ... until
// FindShortcut completes within its iteration budget. Because the canonical
// witness guarantees a (c*, 1) shortcut exists, the search terminates by
// est = 2·c* at the latest; it often succeeds much earlier, finding shortcuts
// better than any a-priori bound — the Appendix's closing observation.
//
// workers is forwarded to FindConfig.Workers (0 = GOMAXPROCS, 1 =
// sequential); it cannot change the output.
func FindShortcutAuto(t *tree.Tree, p *partition.Partition, seed int64, useSlow bool, workers int) (*AutoResult, error) {
	n := t.Graph().NumNodes()
	probes := 0
	for est := 1; est <= 2*n; est *= 2 {
		fr, err := FindShortcut(t, p, FindConfig{
			C:             est,
			B:             est,
			Seed:          seed + int64(1000*probes),
			UseSlow:       useSlow,
			MaxIterations: ceilLog2(p.NumParts()) + 6,
			Workers:       workers,
		})
		if err == nil {
			return &AutoResult{FindResult: fr, EstC: est, EstB: est, Probes: probes}, nil
		}
		if !errors.Is(err, ErrIterationBudget) {
			return nil, err
		}
		probes++
	}
	return nil, fmt.Errorf("core: doubling search exhausted at estimate > 2n = %d", 2*n)
}

// blockCountsCoreOutput counts, for every remaining part, the block
// components of its tentative shortcut subgraph, in a single pass over the
// shortcut. It relies on a structural property of core-subroutine outputs:
// every connected component of H_i contains a vertex of P_i (each assigned
// edge lies on a usable ancestor path rooted at a P_i vertex, and the whole
// path below it is assigned too). Under that precondition,
//
//	blocks(i) = touched(i) − |H_i| + isolated(i)
//
// where touched(i) counts vertices with an incident H_i edge (components of
// a forest = vertices − edges) and isolated(i) counts P_i vertices with no
// incident H_i edge. The construction computes the same quantity inline in
// its per-part walks (constructScratch.walkOne); this helper recomputes it
// from a finished Shortcut so tests can cross-check both against the general
// Shortcut.BlockCount, which needs no precondition.
func blockCountsCoreOutput(s *Shortcut, remaining []bool) []int {
	nParts := s.p.NumParts()
	edgeCnt := make([]int, nParts)
	touched := make([]int, nParts)
	isolated := make([]int, nParts)
	stamp := make([]int, nParts)
	for i := range stamp {
		stamp[i] = -1
	}
	for _, parts := range s.edgeParts {
		for _, i := range parts {
			edgeCnt[i]++
		}
	}
	t := s.t
	for v := 0; v < t.Graph().NumNodes(); v++ {
		mark := func(e graph.EdgeID) {
			for _, i := range s.edgeParts[e] {
				if stamp[i] != v {
					stamp[i] = v
					touched[i]++
				}
			}
		}
		if pe := t.ParentEdge(v); pe != -1 {
			mark(pe)
		}
		for _, ch := range t.Children(v) {
			mark(t.ParentEdge(ch))
		}
		if i := s.p.Part(v); i != partition.None && stamp[i] != v {
			isolated[i]++
		}
	}
	out := make([]int, nParts)
	for i := range out {
		if remaining == nil || remaining[i] {
			out[i] = touched[i] - edgeCnt[i] + isolated[i]
		}
	}
	return out
}

func ceilLog2(n int) int {
	k := 0
	for v := 1; v < n; v *= 2 {
		k++
	}
	return k
}
