package partops

import (
	"fmt"
	"slices"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/partition"
)

// Value is the payload type flowing through block casts. Implementations
// must report honest encodings via Bits.
type Value = congest.Payload

// IDVal carries one identifier/counter bounded by n.
type IDVal struct {
	V int64
	N int
}

// Bits reports the ID encoding size.
func (v IDVal) Bits() int { return congest.BitsForID(v.N) + 1 }

// PairVal carries two identifiers/counters bounded by n.
type PairVal struct {
	A, B int64
	N    int
}

// Bits reports the two-ID encoding size.
func (v PairVal) Bits() int { return 2*congest.BitsForID(v.N) + 2 }

// WideVal carries an arbitrary 64-bit quantity plus an identifier (used for
// MST edge weights).
type WideVal struct {
	W int64
	A int64
	N int
}

// Bits reports a 64-bit weight plus one ID.
func (v WideVal) Bits() int { return 64 + congest.BitsForID(v.N) + 1 }

// castMsg moves one per-part value along a block edge.
type castMsg struct {
	part, rootDepth, n int
	val                Value
}

func (m castMsg) Bits() int { return 2*congest.BitsForID(m.n) + 2 + m.val.Bits() }

// exchMsg moves a value across a G[P_i] edge during exchange.
type exchMsg struct {
	n   int
	val Value
}

func (m exchMsg) Bits() int { return 1 + m.val.Bits() }

// Gather is the convergecast half of Lemma 2 over all blocks at once: every
// block member contributes own(part) and the block root obtains the
// combine-fold of all member values. Messages sharing a tree edge are
// scheduled by (rootDepth, part) priority, so the pass completes within the
// CastBudget; Gather errors if it does not. Returns this node's results
// aligned with Parts: the fold for every block it roots, nil for the others.
// All nodes enter and leave aligned.
//
// Gather and Scatter read only the tree arcs their traffic can arrive on
// (InboxArc fast path); stray traffic on other arcs during the cast window
// is ignored rather than reported, relying on the phase-alignment contract.
// A node with nothing ready or queued to send waits in StepUntil for a
// message or the end of the budget.
func (m *Membership) Gather(ctx congest.Net, own func(part int) Value, combine func(a, b Value) Value, extraRounds int) ([]Value, error) {
	acc, err := m.gather(ctx, func(k int) Value { return own(m.Parts[k]) }, combine, extraRounds)
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(acc))
	for k, v := range acc {
		if !m.ParentIn[k] {
			out[k] = v
		}
	}
	return out, nil
}

// gather is Gather on part indices. The returned slice is scratch: entry k
// is the block fold where this node roots part k's block.
func (m *Membership) gather(ctx congest.Net, own func(k int) Value, combine func(a, b Value) Value, extraRounds int) ([]Value, error) {
	acc, await, sent := m.s.acc, m.s.await, m.s.sent
	for k := range acc {
		acc[k] = own(k)
		await[k] = len(m.ChildrenIn[k])
		sent[k] = false
	}
	budget := m.CastBudget() + extraRounds
	start := ctx.Round()
	for r := 0; ; r = ctx.Round() - start {
		if r > 0 {
			// Gather traffic climbs tree edges only: read the child arcs
			// directly instead of materializing an inbox.
			for _, ka := range m.Info.ChildArcs {
				p, ok := ctx.InboxArc(ka)
				if !ok {
					continue
				}
				cm, ok := p.(castMsg)
				if !ok {
					return nil, fmt.Errorf("partops: unexpected payload %T in gather", p)
				}
				k := m.Index(cm.part)
				if k < 0 {
					return nil, fmt.Errorf("partops: node %d got a gather value for part %d outside its blocks", ctx.ID(), cm.part)
				}
				acc[k] = combine(acc[k], cm.val)
				await[k]--
			}
		}
		if r == budget {
			break
		}
		// Send the highest-priority ready value up the parent edge.
		if best := m.bestReady(); best != -1 {
			ctx.SendArc(m.Info.ParentArc, castMsg{part: m.Parts[best], rootDepth: m.RootDepth[best], n: m.Info.Count, val: acc[best]})
			sent[best] = true
		}
		// Without another ready value only a child's message can give this
		// node work before the budget ends.
		next := start + budget
		if m.bestReady() != -1 {
			next = ctx.Round() + 1
		}
		ctx.StepUntil(next)
	}
	for k, i := range m.Parts {
		if await[k] != 0 {
			return nil, fmt.Errorf("partops: node %d part %d: gather missing %d child values (budget %d)", ctx.ID(), i, await[k], budget)
		}
		if m.ParentIn[k] && !sent[k] {
			return nil, fmt.Errorf("partops: node %d part %d: gather value never sent (budget %d)", ctx.ID(), i, budget)
		}
	}
	return acc, nil
}

// Scatter is the broadcast half of Lemma 2: each block root disseminates
// atRoot(part) to every member of its block. Returns the value this node
// received per part (roots included), aligned with Parts. All nodes enter
// and leave aligned.
func (m *Membership) Scatter(ctx congest.Net, atRoot func(part int) Value, extraRounds int) ([]Value, error) {
	got, err := m.scatter(ctx, func(k int) Value { return atRoot(m.Parts[k]) }, extraRounds)
	if err != nil {
		return nil, err
	}
	return slices.Clone(got), nil
}

// scatter is Scatter on part indices; the returned slice is scratch.
func (m *Membership) scatter(ctx congest.Net, atRoot func(k int) Value, extraRounds int) ([]Value, error) {
	got, arrived, pending := m.s.got, m.s.arrived, m.s.pending
	for c := range pending {
		pending[c] = pending[c][:0]
	}
	for k := range got {
		got[k], arrived[k] = nil, false
		if !m.ParentIn[k] {
			got[k], arrived[k] = atRoot(k), true
			m.enqueue(k)
		}
	}
	budget := m.CastBudget() + extraRounds
	start := ctx.Round()
	for r := 0; ; r = ctx.Round() - start {
		if r > 0 && m.Info.ParentArc != -1 {
			// Scatter traffic descends tree edges: only the parent arc can
			// carry a message to this node.
			if p, ok := ctx.InboxArc(m.Info.ParentArc); ok {
				cm, ok := p.(castMsg)
				if !ok {
					return nil, fmt.Errorf("partops: unexpected payload %T in scatter", p)
				}
				k := m.Index(cm.part)
				if k < 0 {
					return nil, fmt.Errorf("partops: node %d got a scatter value for part %d outside its blocks", ctx.ID(), cm.part)
				}
				got[k], arrived[k] = cm.val, true
				m.enqueue(k)
			}
		}
		if r == budget {
			break
		}
		// Forward the highest-priority queued value down each child edge;
		// with nothing left queued only the parent's message can give this
		// node work before the budget ends.
		next := start + budget
		for c, list := range pending {
			j := m.nextDown(list)
			if j == -1 {
				continue
			}
			k := list[j]
			ctx.SendArc(m.Info.ChildArcs[c], castMsg{part: m.Parts[k], rootDepth: m.RootDepth[k], n: m.Info.Count, val: got[k]})
			if pending[c] = removeAt(list, j); len(pending[c]) > 0 {
				next = ctx.Round() + 1
			}
		}
		ctx.StepUntil(next)
	}
	for _, list := range pending {
		if len(list) > 0 {
			return nil, fmt.Errorf("partops: node %d: scatter unfinished (budget %d)", ctx.ID(), budget)
		}
	}
	for k, i := range m.Parts {
		if !arrived[k] {
			return nil, fmt.Errorf("partops: node %d part %d: scatter value never arrived (budget %d)", ctx.ID(), i, budget)
		}
	}
	return got, nil
}

// enqueue queues part index k for every child edge of its block.
func (m *Membership) enqueue(k int) {
	for _, c := range m.ChildrenIn[k] {
		m.s.pending[c] = append(m.s.pending[c], k)
	}
}

// exchange is the one-round supergraph step: every covered vertex sends val
// to each neighbor inside its part and receives theirs. Vertices may pass
// val == nil to stay silent; uncovered vertices always do. Returns the
// received values aligned with ctx.Neighbors(), nil on arcs that carried
// none, in a scratch slice valid until the next exchange. All nodes enter
// and leave aligned (exactly one round).
func (m *Membership) exchange(ctx congest.Net, val Value) ([]Value, error) {
	if m.OwnPart != partition.None && val != nil {
		for a, part := range m.NeighborPart {
			if part == m.OwnPart {
				ctx.SendArc(a, exchMsg{n: m.Info.Count, val: val})
			}
		}
	}
	recv := m.s.recv
	ctx.Step()
	for a := range recv {
		recv[a] = nil
		p, ok := ctx.InboxArc(a)
		if !ok {
			continue
		}
		em, ok := p.(exchMsg)
		if !ok {
			return nil, fmt.Errorf("partops: unexpected payload %T in exchange", p)
		}
		recv[a] = em.val
	}
	return recv, nil
}

// bestReady returns the highest-priority part index still to be sent up
// whose child values have all arrived, or -1 if none is ready.
func (m *Membership) bestReady() int {
	best := -1
	for k, w := range m.s.await {
		if w != 0 || m.s.sent[k] || !m.ParentIn[k] {
			continue
		}
		if best == -1 || m.before(k, best) {
			best = k
		}
	}
	return best
}
