package core

import (
	"sync"
	"sync/atomic"

	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

// constructScratch bundles the flat working state of the two-pass shortcut
// construction: pass 1 walks the tree bottom-up computing the unusable-edge
// bitmap with epoch-stamped part dedup (no sorted-list merging), pass 2 walks
// each part's root paths assigning usable edges and counting blocks. It is
// the construction-side sibling of graph.Scratch: pooled, grown on demand,
// never shrunk below the retention cap, so FindShortcut's iteration loop and
// repeated harness runs touch the allocator only for their outputs.
//
// Nothing stored here survives a call: results are flattened into freshly
// allocated Shortcuts (see flattenShortcut) before the scratch returns to
// the pool.
type constructScratch struct {
	// Pass 1 (bottom-up visibility): per-vertex part lists alias arena;
	// gatherStamp[i] == gatherTag marks part i as already in the list under
	// construction. The tag is monotonic for the scratch's lifetime, so
	// stamps never need clearing (zeroed growth is always stale).
	lists       [][]int32
	arena       []int32
	gatherStamp []int64
	gatherTag   int64

	// unusable[e] is the pass-1 verdict for tree edge e, reset per run.
	unusable []bool

	// Pass 2 (per-part root walks): partEdges[i] is H_i as edge IDs (aliasing
	// a walker arena), blockCnt[i] its block-component count. Both are only
	// meaningful for parts the run walked.
	partEdges [][]int32
	blockCnt  []int
	work      []int32
	walkers   []*walkScratch

	// Shared randomness buffer for CoreFast activation sampling.
	active []bool
}

// walkScratch is the per-worker state of pass 2. Each worker owns one, so
// the parallel mode shares nothing but the read-only inputs and the
// per-part output slots (distinct indices per part — race-free by
// construction, and byte-identical to the sequential walk because every
// part's walk is a pure function of (tree, partition, unusable)).
type walkScratch struct {
	edgeStamp []int64
	nodeStamp []int64
	tag       int64
	arena     []int32
}

var constructPool = sync.Pool{New: func() any { return new(constructScratch) }}

// maxRetainArena bounds, in int32 entries, the arena capacity a pooled
// scratch keeps between runs (4 MiB): runs at doubling estimates near c*
// can transiently gather very long visibility lists.
const maxRetainArena = 1 << 20

func getConstruct() *constructScratch { return constructPool.Get().(*constructScratch) }

func putConstruct(cs *constructScratch) {
	if cap(cs.arena) > maxRetainArena {
		cs.arena = nil
	}
	for _, ws := range cs.walkers {
		if cap(ws.arena) > maxRetainArena {
			ws.arena = nil
		}
	}
	constructPool.Put(cs)
}

// prepare grows the scratch to the instance size and resets the per-run
// state (lists, unusable, arenas). Stamp arrays are never reset: the tags
// are monotonic and fresh growth is zero, which is always stale.
func (cs *constructScratch) prepare(n, m, nParts int) {
	if cap(cs.lists) < n {
		cs.lists = make([][]int32, n)
	}
	cs.lists = cs.lists[:n]
	for i := range cs.lists {
		cs.lists[i] = nil
	}
	cs.arena = cs.arena[:0]
	if cap(cs.gatherStamp) < nParts {
		cs.gatherStamp = make([]int64, nParts)
	}
	cs.gatherStamp = cs.gatherStamp[:nParts]
	if cap(cs.unusable) < m {
		cs.unusable = make([]bool, m)
	}
	cs.unusable = cs.unusable[:m]
	for i := range cs.unusable {
		cs.unusable[i] = false
	}
	if cap(cs.partEdges) < nParts {
		cs.partEdges = make([][]int32, nParts)
	}
	cs.partEdges = cs.partEdges[:nParts]
	for i := range cs.partEdges {
		cs.partEdges[i] = nil
	}
	if cap(cs.blockCnt) < nParts {
		cs.blockCnt = make([]int, nParts)
	}
	cs.blockCnt = cs.blockCnt[:nParts]
}

func (cs *constructScratch) walker(w int) *walkScratch {
	for len(cs.walkers) <= w {
		cs.walkers = append(cs.walkers, new(walkScratch))
	}
	return cs.walkers[w]
}

func (ws *walkScratch) prepare(n, m int) {
	if cap(ws.edgeStamp) < m {
		ws.edgeStamp = make([]int64, m)
	}
	ws.edgeStamp = ws.edgeStamp[:m]
	if cap(ws.nodeStamp) < n {
		ws.nodeStamp = make([]int64, n)
	}
	ws.nodeStamp = ws.nodeStamp[:n]
	ws.arena = ws.arena[:0]
}

// passUnusable is pass 1, shared by CoreSlow (Algorithm 1) and CoreFast
// (Algorithm 2 steps 1-2): process vertices bottom-up, gathering at each
// vertex v the set L_v of parts visible through usable edges — v's own part
// (when it passes the remaining/activeOnly filters) unioned with the lists
// of children reached over usable edges. A vertex whose set would exceed
// maxKeep distinct parts makes its parent edge unusable and propagates
// nothing; gathering stops as soon as the (maxKeep+1)-th part appears, so no
// oversized list is ever materialized. maxKeep is 2c for CoreSlow
// (unusable ⇔ |L_v| > 2c) and ceil(4c·p)−1 for CoreFast
// (unusable ⇔ |L_v| ≥ 4c·p).
func (cs *constructScratch) passUnusable(t *tree.Tree, p *partition.Partition, maxKeep int, remaining, activeOnly []bool) {
	order := t.BFSOrder()
	root := t.Root()
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		if v == root {
			continue
		}
		cs.gatherTag++
		tag := cs.gatherTag
		start := len(cs.arena)
		count := 0
		over := false
		if i := p.Part(v); i != partition.None && (remaining == nil || remaining[i]) && (activeOnly == nil || activeOnly[i]) {
			cs.gatherStamp[i] = tag
			if maxKeep < 1 {
				over = true
			} else {
				cs.arena = append(cs.arena, int32(i))
				count = 1
			}
		}
		for _, ch := range t.Children(v) {
			if over {
				break
			}
			if cs.unusable[t.ParentEdge(ch)] {
				continue
			}
			for _, part := range cs.lists[ch] {
				if cs.gatherStamp[part] == tag {
					continue
				}
				cs.gatherStamp[part] = tag
				if count == maxKeep {
					over = true
					break
				}
				cs.arena = append(cs.arena, part)
				count++
			}
		}
		cs.lists[v] = nil
		if over {
			cs.unusable[t.ParentEdge(v)] = true
			cs.arena = cs.arena[:start]
			continue
		}
		cs.lists[v] = cs.arena[start:len(cs.arena):len(cs.arena)]
	}
}

// walkParts is pass 2: for every part i passing the remaining filter,
// compute H_i — walk up from each u ∈ P_i assigning tree edges until the
// first unusable or already-assigned edge (exactly the set of edges whose
// whole path down to some P_i vertex is usable, i.e. the parts the bottom-up
// assignment of Algorithms 1 and 2 produces) — and its block count via the
// forest identity blocks = touched − |H_i| + isolated.
//
// Each part is a pure function of the shared read-only inputs and writes
// only its own output slots, so workers > 1 distributes parts over a
// bounded pool without changing a single byte of the result; the merge
// order downstream (flattenShortcut, FindShortcut adoption) is by part ID,
// never by completion order.
func (cs *constructScratch) walkParts(t *tree.Tree, p *partition.Partition, remaining []bool, workers int) {
	cs.work = cs.work[:0]
	for i := 0; i < p.NumParts(); i++ {
		if remaining == nil || remaining[i] {
			cs.work = append(cs.work, int32(i))
		}
	}
	n, m := t.Graph().NumNodes(), t.Graph().NumEdges()
	if workers > len(cs.work) {
		workers = len(cs.work)
	}
	if workers <= 1 {
		ws := cs.walker(0)
		ws.prepare(n, m)
		for _, i := range cs.work {
			cs.walkOne(t, p, ws, int(i))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ws := cs.walker(w)
		ws.prepare(n, m)
		wg.Add(1)
		go func(ws *walkScratch) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(len(cs.work)) {
					return
				}
				cs.walkOne(t, p, ws, int(cs.work[k]))
			}
		}(ws)
	}
	wg.Wait()
}

// walkOne computes H_i and its block count for one part (see walkParts).
func (cs *constructScratch) walkOne(t *tree.Tree, p *partition.Partition, ws *walkScratch, i int) {
	ws.tag++
	tag := ws.tag
	start := len(ws.arena)
	root := t.Root()
	touched := 0
	for _, u := range p.Nodes(i) {
		for v := u; v != root; {
			e := t.ParentEdge(v)
			if cs.unusable[e] || ws.edgeStamp[e] == tag {
				break // blocked, or the rest of this root path is already assigned
			}
			ws.edgeStamp[e] = tag
			ws.arena = append(ws.arena, int32(e))
			if ws.nodeStamp[v] != tag {
				ws.nodeStamp[v] = tag
				touched++
			}
			v = t.Parent(v)
			if ws.nodeStamp[v] != tag {
				ws.nodeStamp[v] = tag
				touched++
			}
		}
	}
	isolated := 0
	for _, u := range p.Nodes(i) {
		if ws.nodeStamp[u] != tag {
			isolated++
		}
	}
	edges := ws.arena[start:len(ws.arena):len(ws.arena)]
	if len(edges) == 0 {
		edges = nil
	}
	cs.partEdges[i] = edges
	// Every component of H_i contains a P_i vertex (each assigned edge lies
	// on a usable path rooted at one), so components of the forest =
	// edge-touched vertices − edges, plus the P_i vertices no edge reached.
	cs.blockCnt[i] = touched - len(edges) + isolated
}

// flattenShortcut builds the shortcut whose H_i is partEdges[i], sealed on
// workers. Two counting passes turn the per-part lists into per-edge part
// lists over one flat arena; the fill iterates parts in ascending ID order —
// the deterministic merge order — so every per-edge list comes out sorted
// without a single sort call.
func flattenShortcut(t *tree.Tree, p *partition.Partition, partEdges [][]int32, workers int) *Shortcut {
	m := t.Graph().NumEdges()
	s := &Shortcut{t: t, p: p, edgeParts: make([][]int, m)}
	total := 0
	off := make([]int, m+1)
	for _, list := range partEdges {
		total += len(list)
		for _, e := range list {
			off[e+1]++
		}
	}
	for e := 1; e <= m; e++ {
		off[e] += off[e-1]
	}
	flat := make([]int, total)
	for i, list := range partEdges {
		for _, e := range list {
			flat[off[e]] = i
			off[e]++
		}
	}
	prev := 0
	for e := 0; e < m; e++ {
		if end := off[e]; end > prev {
			s.edgeParts[e] = flat[prev:end:end]
			prev = end
		}
	}
	s.seal(workers)
	return s
}
