package core

import (
	"fmt"
	"math"

	"lcshortcut/internal/partition"
	"lcshortcut/internal/rnd"
	"lcshortcut/internal/tree"
)

// FastConfig parameterizes CoreFast.
type FastConfig struct {
	// C is the congestion parameter c of the assumed existing shortcut.
	C int
	// Seed is the shared randomness all parts sample their activation from.
	Seed int64
	// Remaining optionally restricts the run to the marked parts.
	Remaining []bool
}

// DefaultGamma is CoreFast's sampling constant γ in p = γ·ln(n)/(2c). It is
// chosen so the Chernoff arguments of Lemma 5 hold with comfortable margin at
// the experiment scales in this repository.
const DefaultGamma = 4

// CoreFast is the centralized reference implementation of Algorithm 2, the
// randomized O(D·log n + c)-round core subroutine. Each part becomes active
// with probability p = γ·ln(n)/(2c) using shared randomness; the bottom-up
// pass propagates only active part IDs and declares an edge unusable when at
// least 4c·p active parts want it. The assignment pass then gives every
// usable edge all (active or not) parts it can see — realized here as
// per-part root walks on the pooled construction scratch (see cscratch.go),
// which produce exactly the bottom-up assignment.
//
// Guarantees (Lemma 5), given that a T-restricted shortcut with congestion c
// and block parameter b exists: shortcut-congestion ≤ 8c w.h.p. and at least
// half of the remaining parts end with block count ≤ 3b.
func CoreFast(t *tree.Tree, p *partition.Partition, cfg FastConfig) *CoreResult {
	cs := getConstruct()
	defer putConstruct(cs)
	cs.runFast(t, p, cfg, 1)
	return cs.sealResult(t, p, true)
}

// runFast executes both passes of Algorithm 2 into the scratch, leaving
// partEdges/blockCnt/unusable/active populated for the walked parts.
func (cs *constructScratch) runFast(t *tree.Tree, p *partition.Partition, cfg FastConfig, workers int) {
	if cfg.C < 1 {
		panic(fmt.Sprintf("core: CoreFast needs c >= 1, got %d", cfg.C))
	}
	g := t.Graph()
	n := g.NumNodes()
	prob := DefaultGamma * math.Log(float64(n)+2) / (2 * float64(cfg.C))
	if prob > 1 {
		prob = 1
	}
	threshold := 4 * float64(cfg.C) * prob

	if cap(cs.active) < p.NumParts() {
		cs.active = make([]bool, p.NumParts())
	}
	cs.active = cs.active[:p.NumParts()]
	for i := range cs.active {
		cs.active[i] = (cfg.Remaining == nil || cfg.Remaining[i]) && rnd.Bernoulli(cfg.Seed, int64(i), prob)
	}

	cs.prepare(n, g.NumEdges(), p.NumParts())
	// Pass 1 (Algorithm 2, steps 1-2): unusable ⇔ |L_v| ≥ threshold over
	// active parts only, so gathering may stop at ceil(threshold) parts.
	cs.passUnusable(t, p, int(math.Ceil(threshold))-1, cfg.Remaining, cs.active)
	// Pass 2 (steps 3-5): route every remaining part up to the first
	// unusable edge, assigning usable edges everything they can see.
	cs.walkParts(t, p, cfg.Remaining, workers)
}
