package scenario

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// fingerprintTablePath holds one line per build: a label, the node and edge
// counts, and graph.Fingerprint in hex. It was recorded once and must never
// change: every seeded output downstream (goldens, bench rows, cache keys)
// depends on the exact CSR each build produces.
const fingerprintTablePath = "testdata/fingerprints.txt"

// fingerprintRow names one build of the table and the subtest that checks
// it: a generator, or a registry family.
type fingerprintRow struct {
	group, label string
	build        func() *graph.Graph
}

type fingerprintRows []fingerprintRow

func (rs *fingerprintRows) add(group, label string, build func() *graph.Graph) {
	*rs = append(*rs, fingerprintRow{group, label, build})
}

// generatorRows lists every exported generator at the parameters its
// callers use and at degenerate sizes, and both re-weighting helpers on two
// registry families.
func generatorRows() fingerprintRows {
	var rows fingerprintRows
	add := rows.add
	for _, wh := range [][2]int{{0, 0}, {1, 0}, {1, 1}, {2, 1}, {5, 6}, {7, 5}, {10, 10}, {12, 12}, {64, 4}} {
		add("grid", fmt.Sprintf("Grid(%d,%d)", wh[0], wh[1]), func() *graph.Graph { return gen.Grid(wh[0], wh[1]) })
	}
	for _, wh := range [][2]int{{3, 3}, {6, 4}, {7, 7}, {10, 10}} {
		add("torus", fmt.Sprintf("Torus(%d,%d)", wh[0], wh[1]), func() *graph.Graph { return gen.Torus(wh[0], wh[1]) })
	}
	for _, a := range [][3]int{{8, 8, -1}, {8, 8, 0}, {8, 8, 1}, {8, 8, 2}, {8, 8, 5}, {8, 7, 3}, {4, 4, 4}, {16, 16, 4}, {20, 20, 8}} {
		add("handled-grid", fmt.Sprintf("HandledGrid(%d,%d,%d)", a[0], a[1], a[2]), func() *graph.Graph { return gen.HandledGrid(a[0], a[1], a[2]) })
	}
	for _, a := range [][4]int{{8, 8, 0, 1}, {9, 6, 1, 1}, {11, 8, 3, 2}, {12, 10, 2, 2}, {16, 16, 4, 2}, {24, 12, 6, 3}} {
		// Genus 0 adds no handles, so its mesh is the plain grid.
		group := "surface"
		if a[2] == 0 {
			group = "surface-genus0"
		}
		add(group, fmt.Sprintf("SurfaceMesh(%d,%d,%d,%d)", a[0], a[1], a[2], a[3]), func() *graph.Graph { return gen.SurfaceMesh(a[0], a[1], a[2], a[3]) })
	}
	for _, n := range []int{0, 1, 2, 7, 32} {
		add("path", fmt.Sprintf("Path(%d)", n), func() *graph.Graph { return gen.Path(n) })
	}
	for _, n := range []int{3, 8, 41} {
		add("ring", fmt.Sprintf("Ring(%d)", n), func() *graph.Graph { return gen.Ring(n) })
	}
	for _, n := range []int{0, 1, 9, 64} {
		add("star", fmt.Sprintf("Star(%d)", n), func() *graph.Graph { return gen.Star(n) })
	}
	for _, d := range []int{0, 4, 5} {
		add("binary-tree", fmt.Sprintf("CompleteBinaryTree(%d)", d), func() *graph.Graph { return gen.CompleteBinaryTree(d) })
	}
	for _, a := range [][2]int{{0, 1}, {1, 1}, {40, 4}, {90, 7}} {
		add("random-tree", fmt.Sprintf("RandomTree(%d,%d)", a[0], a[1]), func() *graph.Graph { return gen.RandomTree(a[0], int64(a[1])) })
	}
	for _, a := range [][2]int{{0, 2}, {6, 3}, {40, 2}} {
		add("caterpillar", fmt.Sprintf("Caterpillar(%d,%d)", a[0], a[1]), func() *graph.Graph { return gen.Caterpillar(a[0], a[1]) })
	}
	for _, a := range [][2]int{{1, 0}, {8, 12}, {10, 20}, {20, 50}} {
		add("lollipop", fmt.Sprintf("Lollipop(%d,%d)", a[0], a[1]), func() *graph.Graph { return gen.Lollipop(a[0], a[1]) })
	}
	for _, a := range []struct {
		n    int
		p    float64
		seed int64
	}{{0, 0.5, 1}, {1, 0.5, 1}, {30, 0.15, 2}, {80, 0.08, 13}, {150, 0.05, 3}, {2048, 16.0 / 2047, 7}} {
		add("erdos-renyi", fmt.Sprintf("ErdosRenyi(%d,%g,%d)", a.n, a.p, a.seed), func() *graph.Graph { return gen.ErdosRenyi(a.n, a.p, a.seed) })
	}
	for _, a := range [][2]int{{3, 0}, {4, 1}, {40, 6}, {70, 11}} {
		add("outerplanar", fmt.Sprintf("OuterplanarTriangulation(%d,%d)", a[0], a[1]), func() *graph.Graph { return gen.OuterplanarTriangulation(a[0], int64(a[1])) })
	}
	for _, a := range [][2]int{{1, 3}, {5, 0}, {12, 3}, {20, 3}} {
		add("path-power", fmt.Sprintf("PathPower(%d,%d)", a[0], a[1]), func() *graph.Graph { return gen.PathPower(a[0], a[1]) })
	}
	for _, a := range [][2]int{{1, 2}, {4, 6}, {5, 8}, {6, 12}} {
		add("lower-bound", fmt.Sprintf("LowerBound(%d,%d)", a[0], a[1]), func() *graph.Graph { return gen.LowerBound(a[0], a[1]) })
	}
	for _, a := range [][2]int{{3, 1}, {5, 4}} {
		add("ring-of-cliques", fmt.Sprintf("RingOfCliques(%d,%d)", a[0], a[1]), func() *graph.Graph { return gen.RingOfCliques(a[0], a[1]) })
	}
	for _, a := range [][3]int{{10, 1, 0}, {60, 3, 5}, {120, 3, 17}, {500, 3, 42}} {
		add("barabasi-albert", fmt.Sprintf("BarabasiAlbert(%d,%d,%d)", a[0], a[1], a[2]), func() *graph.Graph { return gen.BarabasiAlbert(a[0], a[1], int64(a[2])) })
	}
	for _, a := range []struct {
		n    int
		r    float64
		seed int64
	}{{2, 0.5, 1}, {90, 0.18, 19}, {400, gen.GeometricRadius(400, 8), 9}} {
		add("geometric", fmt.Sprintf("RandomGeometric(%d,%g,%d)", a.n, a.r, a.seed), func() *graph.Graph { return gen.RandomGeometric(a.n, a.r, a.seed) })
	}
	for _, a := range [][3]int{{8, 3, 0}, {60, 4, 23}, {101, 4, 1}} {
		add("regular", fmt.Sprintf("RandomRegular(%d,%d,%d)", a[0], a[1], a[2]), func() *graph.Graph { return gen.RandomRegular(a[0], a[1], int64(a[2])) })
	}
	for _, d := range []int{1, 5, 10} {
		add("hypercube", fmt.Sprintf("Hypercube(%d)", d), func() *graph.Graph { return gen.Hypercube(d) })
	}
	for _, a := range [][2]int{{3, 3}, {6, 5}, {20, 5}} {
		add("caveman", fmt.Sprintf("Caveman(%d,%d)", a[0], a[1]), func() *graph.Graph { return gen.Caveman(a[0], a[1]) })
	}
	for _, name := range []string{"grid", "er-sparse"} {
		sc := MustGet(name)
		add("random-weights", fmt.Sprintf("WithRandomWeights(%s/n256/s1,3,100)", name), func() *graph.Graph { return gen.WithRandomWeights(sc.Build(256, 1), 3, 100) })
		add("unique-weights", fmt.Sprintf("WithUniqueWeights(%s/n256/s1,5)", name), func() *graph.Graph { return gen.WithUniqueWeights(sc.Build(256, 1), 5) })
	}
	return rows
}

// familyRows lists every registry family at its default sizes plus 16, 137
// and 4096 under seeds 1, 2 and 7.
func familyRows() fingerprintRows {
	var rows fingerprintRows
	add := rows.add
	for _, sc := range All() {
		sizes := append(append([]int(nil), sc.Sizes...), 16, 137, 4096)
		for _, n := range sizes {
			for _, seed := range []int64{1, 2, 7} {
				add(sc.Name, fmt.Sprintf("%s/n%d/s%d", sc.Name, n, seed), func() *graph.Graph { return sc.Build(n, seed) })
			}
		}
	}
	return rows
}

// fingerprintLine renders one table row.
func fingerprintLine(label string, g *graph.Graph) string {
	return fmt.Sprintf("%s %d %d %016x", label, g.NumNodes(), g.NumEdges(), g.Fingerprint())
}

// loadFingerprintTable reads testdata/fingerprints.txt into lines keyed by
// label.
func loadFingerprintTable(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(fingerprintTablePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		label, _, _ := strings.Cut(line, " ")
		want[label] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkFingerprints rebuilds rows, one subtest per group, and requires the
// exact recorded node count, edge count and fingerprint of each. A
// construction change that shifts one edge ID, one arc or one weight
// anywhere fails here by label.
func checkFingerprints(t *testing.T, rows fingerprintRows) {
	want := loadFingerprintTable(t)
	var groups []string
	byGroup := map[string][]fingerprintRow{}
	for _, r := range rows {
		if _, ok := byGroup[r.group]; !ok {
			groups = append(groups, r.group)
		}
		byGroup[r.group] = append(byGroup[r.group], r)
	}
	for _, group := range groups {
		t.Run(group, func(t *testing.T) {
			for _, r := range byGroup[group] {
				got := fingerprintLine(r.label, r.build())
				if want[r.label] != got {
					t.Errorf("fingerprint drift:\n  want %q\n  got  %q", want[r.label], got)
				}
			}
		})
	}
}

// TestGeneratorFingerprints pins every exported generator, one subtest per
// generator, to the recorded table.
func TestGeneratorFingerprints(t *testing.T) {
	checkFingerprints(t, generatorRows())
}

// TestFamilyFingerprints pins every registry family's Build, one subtest
// per family, to the recorded table.
func TestFamilyFingerprints(t *testing.T) {
	checkFingerprints(t, familyRows())
}

// TestFingerprintTable requires the recorded table and the two build lists
// to name the same rows, so that no recorded row goes unchecked and no
// build is checked against a missing line. It is the refactoring net under
// the generators together with the two tests above.
func TestFingerprintTable(t *testing.T) {
	want := loadFingerprintTable(t)
	built := map[string]bool{}
	for _, r := range append(generatorRows(), familyRows()...) {
		if built[r.label] {
			t.Errorf("row %s is built twice", r.label)
		}
		built[r.label] = true
		if _, ok := want[r.label]; !ok {
			t.Errorf("row %s is built but not recorded", r.label)
		}
	}
	for label := range want {
		if !built[label] {
			t.Errorf("row %s is recorded but not built", label)
		}
	}
}
