package partops

import (
	"fmt"
	"sort"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/graph"
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

// exchMsg moves a value across a G[P_i] edge during Exchange.
type exchMsg struct {
	n   int
	val Value
}

func (m exchMsg) Bits() int { return 1 + m.val.Bits() }

// Gather is the convergecast half of Lemma 2 over all blocks at once: every
// block member contributes own(part) and the block root obtains the
// combine-fold of all member values. Messages sharing a tree edge are
// scheduled by (rootDepth, part) priority, so the pass completes within the
// CastBudget; Gather errors if it does not. Returns this node's results for
// the blocks it roots. All nodes enter and leave aligned.
//
// Gather and Scatter read only the tree arcs their traffic can arrive on
// (InboxArc fast path); stray traffic on other arcs during the cast window
// is ignored rather than reported, relying on the phase-alignment contract.
// A node with nothing ready or queued to send waits in StepUntil for a
// message or the end of the budget.
func (m *Membership) Gather(ctx congest.Net, own func(part int) Value, combine func(a, b Value) Value, extraRounds int) (map[int]Value, error) {
	acc := make(map[int]Value, len(m.Parts))
	await := make(map[int]int, len(m.Parts))
	unsent := make([]int, len(m.Parts))
	copy(unsent, m.Parts)
	for _, i := range m.Parts {
		acc[i] = own(i)
		await[i] = len(m.ChildrenIn[i])
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
				acc[cm.part] = combine(acc[cm.part], cm.val)
				await[cm.part]--
			}
		}
		if r == budget {
			break
		}
		// Send the highest-priority ready value up the parent edge.
		if best := m.bestReady(unsent, await); best != -1 {
			ctx.SendArc(m.Info.ParentArc, castMsg{part: best, rootDepth: m.RootDepth[best], n: m.Info.Count, val: acc[best]})
			unsent = removeInt(unsent, best)
		}
		// Without another ready value only a child's message can give this
		// node work before the budget ends.
		next := start + budget
		if m.bestReady(unsent, await) != -1 {
			next = ctx.Round() + 1
		}
		ctx.StepUntil(next)
	}
	results := make(map[int]Value)
	for _, i := range m.Parts {
		if await[i] != 0 {
			return nil, fmt.Errorf("partops: node %d part %d: gather missing %d child values (budget %d)", ctx.ID(), i, await[i], budget)
		}
		if m.ParentIn[i] {
			if k := sort.SearchInts(unsent, i); k < len(unsent) && unsent[k] == i {
				return nil, fmt.Errorf("partops: node %d part %d: gather value never sent (budget %d)", ctx.ID(), i, budget)
			}
			continue
		}
		results[i] = acc[i]
	}
	return results, nil
}

// Scatter is the broadcast half of Lemma 2: each block root disseminates
// atRoot(part) to every member of its block. Returns the per-part value this
// node received (roots included). All nodes enter and leave aligned.
func (m *Membership) Scatter(ctx congest.Net, atRoot func(part int) Value, extraRounds int) (map[int]Value, error) {
	got := make(map[int]Value, len(m.Parts))
	// pending[child] = parts still to forward down that edge.
	pending := make(map[graph.NodeID][]int, len(m.ChildrenIn))
	enqueue := func(i int) {
		for _, ch := range m.ChildrenIn[i] {
			pending[ch] = append(pending[ch], i)
		}
	}
	for _, i := range m.Parts {
		if !m.ParentIn[i] {
			got[i] = atRoot(i)
			enqueue(i)
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
				got[cm.part] = cm.val
				enqueue(cm.part)
			}
		}
		if r == budget {
			break
		}
		for ch, parts := range pending {
			best := -1
			for _, i := range parts {
				if best == -1 || less2(m.RootDepth[i], i, m.RootDepth[best], best) {
					best = i
				}
			}
			if best != -1 {
				ctx.SendArc(m.childArc[ch], castMsg{part: best, rootDepth: m.RootDepth[best], n: m.Info.Count, val: got[best]})
				if rest := removeUnsorted(parts, best); len(rest) > 0 {
					pending[ch] = rest
				} else {
					delete(pending, ch)
				}
			}
		}
		// With nothing queued only the parent's message can give this node
		// work before the budget ends.
		next := start + budget
		if len(pending) > 0 {
			next = ctx.Round() + 1
		}
		ctx.StepUntil(next)
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("partops: node %d: scatter unfinished (budget %d)", ctx.ID(), budget)
	}
	for _, i := range m.Parts {
		if _, ok := got[i]; !ok {
			return nil, fmt.Errorf("partops: node %d part %d: scatter value never arrived (budget %d)", ctx.ID(), i, budget)
		}
	}
	return got, nil
}

// Exchange is the one-round supergraph step: every covered vertex sends val
// to each neighbor inside its part and receives theirs. Vertices may pass
// val == nil to stay silent; uncovered vertices always do. Returns values
// keyed by sender. All nodes enter and leave aligned (exactly one round).
func (m *Membership) Exchange(ctx congest.Net, val Value) (map[graph.NodeID]Value, error) {
	if m.OwnPart != partition.None && val != nil {
		for k := range ctx.Neighbors() {
			if m.nbrPart[k] == m.OwnPart {
				ctx.SendArc(k, exchMsg{n: m.Info.Count, val: val})
			}
		}
	}
	got := make(map[graph.NodeID]Value)
	ctx.Step()
	for k, a := range ctx.Neighbors() {
		p, ok := ctx.InboxArc(k)
		if !ok {
			continue
		}
		em, ok := p.(exchMsg)
		if !ok {
			return nil, fmt.Errorf("partops: unexpected payload %T in exchange", p)
		}
		got[a.To] = em.val
	}
	return got, nil
}

// bestReady returns the highest-priority part still to be sent up whose
// child values have all arrived, or -1 if none is ready.
func (m *Membership) bestReady(unsent []int, await map[int]int) int {
	best := -1
	for _, i := range unsent {
		if !m.ParentIn[i] || await[i] != 0 {
			continue
		}
		if best == -1 || less2(m.RootDepth[i], i, m.RootDepth[best], best) {
			best = i
		}
	}
	return best
}

func removeUnsorted(list []int, x int) []int {
	for k, v := range list {
		if v == x {
			list[k] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}
