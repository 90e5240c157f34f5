// Package partops implements routing on tree-restricted shortcuts (§4.3 of
// the paper): the distributed block-membership representation (§4.1) with
// its block-root annotation pass, the pipelined multi-subtree convergecast
// and broadcast of Lemma 2, the part-parallel leader election / broadcast /
// convergecast of Theorem 2, and the block-counting Verification subroutine
// of Lemmas 3 and 6.
//
// BuildMembership turns any shortcut's distributed representation into an
// annotated Membership the casts run on. The applications get theirs from
// findshort.Route, which also picks the shortcut and the Theorem 2
// superstep budget.
//
// All routines are per-node phase functions over the congest simulator: each
// enters and leaves with every node aligned at the same global round, so they
// compose sequentially into larger protocols (FindShortcut, MST).
//
// Per-part state and per-part results are slices aligned with the sorted
// Membership.Parts: entry k describes part Parts[k], and Membership.Index
// maps a part back to k. Every exported call returns slices of its own, so
// a later call never overwrites a result the caller still holds.
package partops

import (
	"fmt"
	"slices"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/coredist"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
)

// Membership is one node's view of the blocks it belongs to, derived from
// the distributed shortcut representation. A node belongs to (at most) one
// block per part: the component of H_i containing it. Vertices of P_i with
// no incident H_i edge form singleton blocks.
type Membership struct {
	Info *bfsproto.Info
	// OwnPart is the part this vertex belongs to (partition.None if
	// uncovered). Only part members exchange over G[P_i] edges; Steiner
	// vertices participate in intra-block casts only.
	OwnPart int
	// Parts lists, sorted, every part for which this node is in a block.
	// ParentIn, ChildrenIn, RootDepth and RootID are aligned with it.
	Parts []int
	// ParentIn[k] reports whether the parent edge belongs to H_{Parts[k]}
	// (the block continues upward; nodes with ParentIn false are their
	// block's root).
	ParentIn []bool
	// ChildrenIn[k] lists, ascending, the children connected through
	// H_{Parts[k]} edges, as indices into Info.Children and Info.ChildArcs.
	ChildrenIn [][]int
	// RootDepth[k] and RootID[k] identify this node's block of part
	// Parts[k], learned by BuildMembership's annotation pass; the pair
	// (RootDepth, part) is Lemma 2's routing priority and RootID is the
	// block's unique key.
	RootDepth []int
	RootID    []graph.NodeID
	// NeighborPart[a] is the part of the neighbor on arc a (ctx.Neighbors()
	// order), learned by the one-round announce in BuildMembership.
	NeighborPart []int
	// CMax is the global maximum number of parts on any tree edge — the
	// shortcut congestion bound used to size Lemma 2 round budgets.
	CMax int

	// own is the index of OwnPart in Parts (-1 if uncovered).
	own int
	s   castScratch
}

// castScratch is the working state of the casts. The Membership owns it and
// every cast reuses it, so a cast allocates nothing beyond the payloads it
// sends; the unexported casts return views into it that the next cast
// overwrites.
type castScratch struct {
	// acc, got and cur hold per-part values: the gather fold, the scatter
	// receipt and the spreadMin state. recv holds the exchange receipt per
	// arc.
	acc, got, cur, recv []Value
	// await counts the child values a gather still expects per part; sent
	// and arrived mark parts whose gather value went up and whose scatter
	// value came down.
	await         []int
	sent, arrived []bool
	// pending[c] lists the part indices still to forward to child c in a
	// scatter or the annotation pass.
	pending [][]int
	// sum is PartSum's per-part state.
	sum []sumState
}

// partAnnounce is the one-round "my part is i" message.
type partAnnounce struct{ part, n int }

func (m partAnnounce) Bits() int { return congest.BitsForID(m.n) + 1 }

// BuildMembership derives block membership from the node's shortcut state,
// announces parts to neighbors (1 round), aggregates the global
// per-edge-part-count maximum (2·depth(T)+3 rounds) and annotates every
// block with its root (CastBudget rounds), so the casts can run on the
// Membership it returns. All nodes must call it aligned; they leave
// aligned.
func BuildMembership(ctx congest.Net, ns *coredist.NodeShortcut, assign coredist.PartAssign) (*Membership, error) {
	info := ns.Info
	m := &Membership{Info: info, OwnPart: assign.Part(ctx.ID())}

	// Parts is the union of the parent edge's parts, every child edge's
	// parts and the own part; chParts counts the child-edge entries.
	localMax := len(ns.ParentParts)
	chParts := 0
	for c := range info.Children {
		cp := len(ns.ChildPartsAt(c))
		chParts += cp
		localMax = max(localMax, cp)
	}
	parts := make([]int, 0, len(ns.ParentParts)+chParts+1)
	parts = append(parts, ns.ParentParts...)
	for c := range info.Children {
		parts = append(parts, ns.ChildPartsAt(c)...)
	}
	if m.OwnPart != partition.None {
		parts = append(parts, m.OwnPart)
	}
	slices.Sort(parts)
	m.Parts = slices.Compact(parts)
	m.own = m.Index(m.OwnPart)

	np := len(m.Parts)
	m.ParentIn = make([]bool, np)
	for _, i := range ns.ParentParts {
		m.ParentIn[m.Index(i)] = true
	}
	// ChildrenIn and the per-child pending queues each cut chParts entries
	// from one array: every part's children are counted first (in await,
	// which each gather overwrites), and child c never queues more than its
	// own edge's parts.
	m.s.await = make([]int, np)
	for c := range info.Children {
		for _, i := range ns.ChildPartsAt(c) {
			m.s.await[m.Index(i)]++
		}
	}
	m.ChildrenIn = make([][]int, np)
	m.s.pending = make([][]int, len(info.Children))
	flat := make([]int, 2*chParts)
	off := 0
	for k, cnt := range m.s.await {
		m.ChildrenIn[k] = flat[off : off : off+cnt]
		off += cnt
	}
	for c := range info.Children {
		cp := ns.ChildPartsAt(c)
		for _, i := range cp {
			k := m.Index(i)
			m.ChildrenIn[k] = append(m.ChildrenIn[k], c)
		}
		m.s.pending[c] = flat[off : off : off+len(cp)]
		off += len(cp)
	}
	m.RootDepth = make([]int, np)
	m.RootID = make([]graph.NodeID, np)
	m.NeighborPart = make([]int, ctx.Degree())
	vals := make([]Value, 3*np+ctx.Degree())
	m.s.acc, m.s.got, m.s.cur, m.s.recv = vals[:np:np], vals[np:2*np:2*np], vals[2*np:3*np:3*np], vals[3*np:]
	flags := make([]bool, 2*np)
	m.s.sent, m.s.arrived = flags[:np:np], flags[np:]
	m.s.sum = make([]sumState, np)

	// One-round part announce; every node sends, so every arc carries one.
	ctx.SendAll(partAnnounce{part: m.OwnPart, n: info.Count})
	ctx.Step()
	for k, a := range ctx.Neighbors() {
		p, ok := ctx.InboxArc(k)
		if !ok {
			return nil, fmt.Errorf("partops: node %d missing part announce from neighbor %d", ctx.ID(), a.To)
		}
		pa, ok := p.(partAnnounce)
		if !ok {
			return nil, fmt.Errorf("partops: unexpected payload %T in announce", p)
		}
		m.NeighborPart[k] = pa.part
	}

	// Global congestion bound for Lemma 2 budgets.
	cMax, err := bfsproto.MaxPhase(ctx, info, int64(localMax))
	if err != nil {
		return nil, err
	}
	m.CMax = int(cMax)
	if err := m.annotate(ctx); err != nil {
		return nil, err
	}
	return m, nil
}

// Index returns the position of part in Parts — its index into every
// per-part slice and result — or -1 if this node is in no block of it.
func (m *Membership) Index(part int) int {
	if k, ok := slices.BinarySearch(m.Parts, part); ok {
		return k
	}
	return -1
}

// CastBudget returns the per-direction Lemma 2 round budget for this
// shortcut: depth(T) + congestion + 2.
func (m *Membership) CastBudget() int { return m.Info.Height + m.CMax + 2 }

// before orders part indices by (RootDepth, part) — the Lemma 2 routing
// priority (part order is index order, since Parts is sorted).
func (m *Membership) before(a, b int) bool {
	if m.RootDepth[a] != m.RootDepth[b] {
		return m.RootDepth[a] < m.RootDepth[b]
	}
	return a < b
}

// nextDown returns the position in list of the highest-priority part index
// whose block root is known, or -1 if there is none.
func (m *Membership) nextDown(list []int) int {
	best := -1
	for j, k := range list {
		if m.RootDepth[k] < 0 {
			continue
		}
		if best == -1 || m.before(k, list[best]) {
			best = j
		}
	}
	return best
}

// removeAt drops list[j], moving the last entry into its place.
func removeAt(list []int, j int) []int {
	list[j] = list[len(list)-1]
	return list[:len(list)-1]
}
