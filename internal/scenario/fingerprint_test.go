package scenario

import (
	"fmt"
	"testing"

	"lcshortcut/internal/graph"
)

// graphKey renders the structural content graph.Fingerprint covers: node
// count plus the edge list in edge-ID order.
func graphKey(g *graph.Graph) string {
	out := fmt.Sprintf("n=%d;", g.NumNodes())
	for _, e := range g.Edges() {
		out += fmt.Sprintf("%d-%d:%d;", e.U, e.V, e.W)
	}
	return out
}

// TestFingerprintAcrossRegistry pins the cache-key contract shortcutd relies
// on, across every registry family at two sizes and two seeds: rebuilds
// agree, and any two distinct fingerprints in the whole sweep correspond to
// distinct structures — fingerprint equality ⇔ byte-identical structure.
func TestFingerprintAcrossRegistry(t *testing.T) {
	type entry struct {
		label string
		fp    uint64
		key   string
	}
	var entries []entry
	for _, sc := range All() {
		for _, n := range []int{64, 128} {
			for _, seed := range []int64{1, 2} {
				g := sc.Build(n, seed)
				fp := g.Fingerprint()
				if got := sc.Build(n, seed).Fingerprint(); got != fp {
					t.Errorf("%s n=%d seed=%d: rebuild changed fingerprint", sc.Name, n, seed)
				}
				entries = append(entries, entry{
					label: fmt.Sprintf("%s/n%d/s%d", sc.Name, n, seed),
					fp:    fp,
					key:   graphKey(g),
				})
			}
		}
	}
	for i := range entries {
		for j := i + 1; j < len(entries); j++ {
			fpEq := entries[i].fp == entries[j].fp
			structEq := entries[i].key == entries[j].key
			if fpEq != structEq {
				t.Errorf("%s vs %s: fingerprint equal=%v but structure equal=%v",
					entries[i].label, entries[j].label, fpEq, structEq)
			}
		}
	}
}
