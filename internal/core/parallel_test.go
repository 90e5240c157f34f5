package core

import (
	"fmt"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

// shortcutFingerprint renders a FindResult's observable content exactly: the
// iteration trace plus every edge's part list (none when the run failed and
// built no shortcut). Byte-equal fingerprints mean byte-identical results.
func shortcutFingerprint(fr *FindResult) string {
	s := fr.S
	out := fmt.Sprintf("iters=%d good=%v\n", fr.Iterations, fr.GoodPerIteration)
	if s == nil {
		return out
	}
	for e := 0; e < s.Tree().Graph().NumEdges(); e++ {
		if parts := s.PartsOn(e); len(parts) > 0 {
			out += fmt.Sprintf("e%d:%v\n", e, parts)
		}
	}
	return out
}

// workerCounts spans the determinism contract's interesting values: the
// sequential path, a pool smaller than the part count, an oversized pool,
// and GOMAXPROCS.
var workerCounts = []int{1, 2, 3, 8, 0}

// TestFindShortcutWorkerIdentity is the golden cross-worker contract: the
// same seeded construction must produce byte-identical shortcuts for every
// Workers value, on both core subroutines.
func TestFindShortcutWorkerIdentity(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid12x12", gen.Grid(12, 12)},
		{"torus9x9", gen.Torus(9, 9)},
		{"er150", gen.ErdosRenyi(150, 0.05, 3)},
		{"caterpillar", gen.Caterpillar(40, 2)},
	}
	for _, tc := range cases {
		for _, useSlow := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/slow=%v", tc.name, useSlow), func(t *testing.T) {
				tr := tree.BFSTree(tc.g, 0)
				p := partition.Voronoi(tc.g, 8, 2)
				var want string
				for _, w := range workerCounts {
					fr, err := FindShortcut(tr, p, FindConfig{C: 8, B: 4, Seed: 11, UseSlow: useSlow, Workers: w})
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					got := shortcutFingerprint(fr)
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Errorf("workers=%d diverged from sequential output:\n--- want\n%s--- got\n%s", w, want, got)
					}
				}
			})
		}
	}
}

// FuzzFindShortcutWorkerIdentity fuzzes the same contract over random
// connected graphs and Voronoi partitions: parallel construction (pool sizes
// 3 and 8) must match the sequential output byte for byte.
func FuzzFindShortcutWorkerIdentity(f *testing.F) {
	f.Add(uint8(30), int64(1), uint8(4), int64(7))
	f.Add(uint8(90), int64(5), uint8(9), int64(2))
	f.Add(uint8(200), int64(9), uint8(15), int64(40))
	f.Fuzz(func(t *testing.T, nRaw uint8, gSeed int64, seedsRaw uint8, cSeed int64) {
		n := 8 + int(nRaw)
		g := gen.ErdosRenyi(n, 0.04, gSeed)
		seeds := 2 + int(seedsRaw)%14
		if seeds > n {
			seeds = n
		}
		p := partition.Voronoi(g, seeds, 2)
		tr := tree.BFSTree(g, 0)
		base, baseErr := FindShortcut(tr, p, FindConfig{C: 6, B: 3, Seed: cSeed, Workers: 1})
		for _, w := range []int{3, 8} {
			got, err := FindShortcut(tr, p, FindConfig{C: 6, B: 3, Seed: cSeed, Workers: w})
			if (err == nil) != (baseErr == nil) {
				t.Fatalf("workers=%d: err %v, sequential err %v", w, err, baseErr)
			}
			// ErrIterationBudget builds no shortcut, but its iteration
			// trace must be identical too.
			if shortcutFingerprint(got) != shortcutFingerprint(base) {
				t.Errorf("workers=%d output differs from sequential (n=%d gSeed=%d cSeed=%d)", w, n, gSeed, cSeed)
			}
		}
	})
}

// TestAllocGuardFindShortcut holds steady-state construction allocations at
// the flat-scratch baseline. The pooled scratch makes repeat constructions
// nearly allocation-free on the walk side; what remains is the result (one
// Shortcut + its arenas) and the doubling driver's bookkeeping; failed
// probes build no shortcut. Measured at 42 allocs per construction on this
// workload; the bound leaves over 3x headroom before failing.
func TestAllocGuardFindShortcut(t *testing.T) {
	g := gen.Grid(32, 32)
	tr := tree.BFSTree(g, 0)
	p := partition.Voronoi(g, 32, 2)
	// Warm the construct pool outside the measured region.
	if _, err := FindShortcutAuto(tr, p, 11, false, 1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := FindShortcutAuto(tr, p, 11, false, 1); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 150
	if avg > maxAllocs {
		t.Errorf("FindShortcutAuto allocates %.0f objects per construction, want <= %d — construction scratch regressed", avg, maxAllocs)
	}
	t.Logf("FindShortcutAuto: %.1f allocs per construction", avg)
}
