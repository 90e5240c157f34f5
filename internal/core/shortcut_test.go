package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/scenario"
	"lcshortcut/internal/tree"
)

// shortcutView is everything a shortcut answers, read through its accessors.
type shortcutView struct {
	Quality    Quality
	ShortCong  int
	Blocks     [][]Block
	BlockCount []int
	Diameter   []int
	Edges      [][]graph.EdgeID
	Parts      [][]int
}

func viewOf(s *Shortcut) shortcutView {
	nParts := s.Partition().NumParts()
	v := shortcutView{
		Quality:    s.Measure(),
		ShortCong:  s.ShortcutCongestion(),
		Blocks:     make([][]Block, nParts),
		BlockCount: make([]int, nParts),
		Diameter:   make([]int, nParts),
		Edges:      make([][]graph.EdgeID, nParts),
		Parts:      make([][]int, s.Tree().Graph().NumEdges()),
	}
	for i := 0; i < nParts; i++ {
		v.Blocks[i] = s.Blocks(i)
		v.BlockCount[i] = s.BlockCount(i)
		v.Diameter[i] = s.PartDiameter(i)
		v.Edges[i] = s.EdgesOf(i)
	}
	for e := range v.Parts {
		v.Parts[e] = s.PartsOn(e)
	}
	return v
}

// resealed rebuilds s from its per-edge part lists through the internal
// seal at the given worker count.
func resealed(s *Shortcut, workers int) *Shortcut {
	edgeParts := make([][]int, s.Tree().Graph().NumEdges())
	for e := range edgeParts {
		edgeParts[e] = s.PartsOn(e)
	}
	r := &Shortcut{t: s.Tree(), p: s.Partition(), edgeParts: edgeParts}
	r.seal(workers)
	return r
}

func TestNewShortcut(t *testing.T) {
	g := gen.Grid(3, 3)
	tr := tree.BFSTree(g, 0)
	p := partition.GridColumns(3, 3)
	m := g.NumEdges()
	te := tr.ParentEdge(4)
	nonTree := -1
	for e := 0; e < m; e++ {
		if !tr.IsTreeEdge(e) {
			nonTree = e
			break
		}
	}
	if nonTree == -1 {
		t.Fatal("no non-tree edge found")
	}
	on := func(e graph.EdgeID, parts ...int) [][]int {
		edgeParts := make([][]int, m)
		edgeParts[e] = parts
		return edgeParts
	}
	cases := []struct {
		name      string
		edgeParts [][]int
		wantErr   string // "" means the input is accepted
	}{
		{"valid", on(te, 0, 2), ""},
		{"empty", make([][]int, m), ""},
		{"non-tree-edge", on(nonTree, 1), "non-tree edge"},
		{"part-out-of-range", on(te, 3), "invalid part 3"},
		{"negative-part", on(te, -1), "invalid part -1"},
		{"unsorted", on(te, 2, 0), "not sorted/unique"},
		{"duplicate-part", on(te, 1, 1), "not sorted/unique"},
		{"too-few-lists", make([][]int, m-1), fmt.Sprintf("%d edge part lists for a graph with %d edges", m-1, m)},
		{"too-many-lists", make([][]int, m+1), fmt.Sprintf("%d edge part lists for a graph with %d edges", m+1, m)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewShortcut(tr, p, tc.edgeParts)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if s != nil {
					t.Error("a rejected input returned a shortcut")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			want := tc.edgeParts[te]
			if got := s.PartsOn(te); !slices.Equal(got, want) {
				t.Errorf("PartsOn = %v, want %v", got, want)
			}
			for i := 0; i < p.NumParts(); i++ {
				var wantEdges []graph.EdgeID
				if slices.Contains(want, i) {
					wantEdges = []graph.EdgeID{te}
				}
				if got := s.Contains(te, i); got != (wantEdges != nil) {
					t.Errorf("Contains(%d) = %v", i, got)
				}
				if got := s.EdgesOf(i); !slices.Equal(got, wantEdges) {
					t.Errorf("EdgesOf(%d) = %v, want %v", i, got, wantEdges)
				}
			}
			if got := s.ShortcutCongestion(); got != len(want) {
				t.Errorf("ShortcutCongestion = %d, want %d", got, len(want))
			}
		})
	}
}

// breaksShortcutRules is the fuzz oracle for NewShortcut, written without
// Validate: the input is bad when it has the wrong length, or some edge
// carries parts while being no vertex's tree parent edge, or names a part
// outside [0, N), twice, or out of ascending order.
func breaksShortcutRules(tr *tree.Tree, p *partition.Partition, edgeParts [][]int) bool {
	g := tr.Graph()
	if len(edgeParts) != g.NumEdges() {
		return true
	}
	treeEdge := make(map[graph.EdgeID]bool)
	for v := 0; v < g.NumNodes(); v++ {
		if v != tr.Root() {
			treeEdge[tr.ParentEdge(v)] = true
		}
	}
	for e, parts := range edgeParts {
		if len(parts) == 0 {
			continue
		}
		if !treeEdge[e] || !sort.IntsAreSorted(parts) {
			return true
		}
		seen := make(map[int]bool)
		for _, i := range parts {
			if i < 0 || i >= p.NumParts() || seen[i] {
				return true
			}
			seen[i] = true
		}
	}
	return false
}

// FuzzNewShortcut feeds NewShortcut arbitrary per-edge part lists over
// column-partitioned grids of up to 4×4. data encodes the lists: a byte
// ≥ 0xF0 moves to the next edge, any other byte b appends part b%16 − 2.
// NewShortcut must never panic, must fail exactly when breaksShortcutRules
// says so, and an accepted input must read back unchanged through PartsOn.
func FuzzNewShortcut(f *testing.F) {
	f.Add(uint8(3), uint8(3), int8(0), []byte{0xF0, 0x02, 0x04, 0xF0, 0x03})
	f.Add(uint8(2), uint8(4), int8(-1), []byte{})
	f.Add(uint8(4), uint8(2), int8(1), []byte{0x03, 0x02, 0xF0, 0xF0, 0x04, 0x04})
	f.Add(uint8(1), uint8(1), int8(0), []byte{0x02})
	f.Fuzz(func(t *testing.T, w, h uint8, lenDelta int8, data []byte) {
		W, H := 1+int(w)%4, 1+int(h)%4
		g := gen.Grid(W, H)
		tr := tree.BFSTree(g, 0)
		p := partition.GridColumns(W, H)
		edgeParts := make([][]int, max(0, g.NumEdges()+int(lenDelta)%3))
		e := 0
		for _, b := range data {
			if e >= len(edgeParts) {
				break
			}
			if b >= 0xF0 {
				e++
				continue
			}
			edgeParts[e] = append(edgeParts[e], int(b%16)-2)
		}
		want := make([][]int, len(edgeParts))
		for e, parts := range edgeParts {
			want[e] = slices.Clone(parts)
		}
		s, err := NewShortcut(tr, p, edgeParts)
		if bad := breaksShortcutRules(tr, p, want); (err != nil) != bad {
			t.Fatalf("NewShortcut(%v) err = %v, but the oracle says breaks a rule = %v", want, err, bad)
		}
		if err != nil {
			return
		}
		maxLen := 0
		for e, parts := range want {
			if got := s.PartsOn(e); !slices.Equal(got, parts) {
				t.Fatalf("PartsOn(%d) = %v, want %v", e, got, parts)
			}
			maxLen = max(maxLen, len(parts))
		}
		if got := s.ShortcutCongestion(); got != maxLen {
			t.Fatalf("ShortcutCongestion = %d, want the longest list %d", got, maxLen)
		}
	})
}

// namedShortcut is one constructor's output.
type namedShortcut struct {
	name string
	s    *Shortcut
}

// everyConstructor builds one fresh, never-queried shortcut over (tr, p)
// with each way of making one: FindShortcutAuto, CoreSlow, CoreFast,
// CanonicalWitness and NewShortcut (fed the FindShortcutAuto assignment).
func everyConstructor(tb testing.TB, tr *tree.Tree, p *partition.Partition, seed int64) []namedShortcut {
	tb.Helper()
	ar, err := FindShortcutAuto(tr, p, seed, false, 0)
	if err != nil {
		tb.Fatal(err)
	}
	edgeParts := make([][]int, tr.Graph().NumEdges())
	for e := range edgeParts {
		edgeParts[e] = ar.S.PartsOn(e)
	}
	built, err := NewShortcut(tr, p, edgeParts)
	if err != nil {
		tb.Fatal(err)
	}
	cStar := WitnessCongestion(tr, p)
	witness, _ := CanonicalWitness(tr, p)
	return []namedShortcut{
		{"FindShortcutAuto", ar.S},
		{"CoreSlow", CoreSlow(tr, p, cStar, nil).S},
		{"CoreFast", CoreFast(tr, p, FastConfig{C: cStar, Seed: seed}).S},
		{"CanonicalWitness", witness},
		{"NewShortcut", built},
	}
}

// TestShortcutConcurrentReaders pins that every shortcut, whichever
// constructor made it, is safe to share: readers start on freshly built
// shortcuts (no warm-up query), call every accessor concurrently under
// -race, and must see exactly what a single-threaded reader sees on an
// identical construction. When CoreSlow, CoreFast, CanonicalWitness and the
// mutable constructor returned lazily memoized shortcuts, the first
// concurrent reads populated shared memos and this test raced.
func TestShortcutConcurrentReaders(t *testing.T) {
	const (
		n       = 256
		seed    = 4
		readers = 8
		rounds  = 3
	)
	for _, sc := range scenario.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			g := sc.Build(n, seed)
			tr := tree.BFSTree(g, 0)
			p := partition.Voronoi(g, 8, seed)
			var want []shortcutView
			for _, ns := range everyConstructor(t, tr, p, seed) {
				want = append(want, viewOf(ns.s))
			}
			shared := everyConstructor(t, tr, p, seed)

			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						for k, ns := range shared {
							if got := viewOf(ns.s); !reflect.DeepEqual(got, want[k]) {
								errs <- fmt.Errorf("reader %d: %s shortcut diverged from a single-threaded read", r, ns.name)
								return
							}
							if err := ns.s.Validate(); err != nil {
								errs <- fmt.Errorf("reader %d: %s: %w", r, ns.name, err)
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestSealWorkerIdentity pins the determinism-under-parallelism contract for
// the seal step itself: sealing with any worker count produces byte-identical
// views (blocks, diameters, edge lists, quality scalars) — each part's
// decomposition is a pure function of the inputs, and the stitch is ordered
// by part ID, never by completion order.
func TestSealWorkerIdentity(t *testing.T) {
	families := []string{"grid", "er-sparse", "ba", "randtree"}
	for _, name := range families {
		sc := scenario.MustGet(name)
		g := sc.Build(300, 11)
		tr := tree.BFSTree(g, 0)
		p := partition.Voronoi(g, 9, 11)
		fr, err := FindShortcut(tr, p, FindConfig{C: 16, B: 8, Seed: 11, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := viewOf(fr.S) // sealed with workers=1 by FindShortcut
		for _, workers := range []int{1, 2, 3, 8, 0} {
			if got := viewOf(resealed(fr.S, workers)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: sealed view diverged from the sequential seal", name, workers)
			}
		}
	}
}

// TestSealedDefensiveViews is the regression test for the leaked-internal-
// slice bug: PartsOn and Blocks once returned the shortcut's own backing
// arrays, so a caller writing into a result silently corrupted every later
// query. Every accessor must hand out owned copies: mutate everything a
// shortcut returns and assert subsequent queries are unaffected.
func TestSealedDefensiveViews(t *testing.T) {
	g := gen.Grid(12, 12)
	tr := tree.BFSTree(g, 0)
	p := partition.Voronoi(g, 7, 1)
	fr, err := FindShortcut(tr, p, FindConfig{C: 8, B: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := fr.S
	want := viewOf(s)

	for e := 0; e < g.NumEdges(); e++ {
		if parts := s.PartsOn(e); len(parts) > 0 {
			parts[0] = -999
		}
	}
	for i := 0; i < p.NumParts(); i++ {
		for _, b := range s.Blocks(i) {
			for k := range b.Nodes {
				b.Nodes[k] = -1
			}
		}
		if edges := s.EdgesOf(i); len(edges) > 0 {
			edges[0] = graph.EdgeID(-5)
		}
	}

	if got := viewOf(s); !reflect.DeepEqual(got, want) {
		t.Fatal("mutating returned slices corrupted the shortcut")
	}
}

// TestBlocksQueryStability pins the query results of a seeded construction
// against repeated querying orders: asking for diameters, congestion and
// blocks in any interleaving yields the same decomposition bytes.
func TestBlocksQueryStability(t *testing.T) {
	g := gen.Torus(8, 8)
	tr := tree.BFSTree(g, 0)
	p := partition.Voronoi(g, 6, 2)
	fr, err := FindShortcut(tr, p, FindConfig{C: 6, B: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	render := func(s *Shortcut, order []func(*Shortcut)) string {
		for _, q := range order {
			q(s)
		}
		out := ""
		for i := 0; i < p.NumParts(); i++ {
			out += fmt.Sprintf("%d:%v\n", i, s.Blocks(i))
		}
		return out
	}
	qBlocks := func(s *Shortcut) { s.BlockParameter() }
	qDiam := func(s *Shortcut) { s.Dilation() }
	qCong := func(s *Shortcut) { s.Congestion() }
	base := render(fr.S, []func(*Shortcut){qBlocks, qDiam, qCong})
	fr2, err := FindShortcut(tr, p, FindConfig{C: 6, B: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := render(fr2.S, []func(*Shortcut){qCong, qDiam, qBlocks}); got != base {
		t.Errorf("query order changed Blocks output:\n--- want\n%s--- got\n%s", base, got)
	}
}
