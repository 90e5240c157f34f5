package partops

import (
	"fmt"
	"sort"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/graph"
)

// annMsg tells the lower endpoint of a block edge the depth and ID of the
// block's root, pipelined down the tree (§4.1's distributed representation:
// "the depth of their respective block component root").
type annMsg struct {
	part, rootDepth, n int
	rootID             graph.NodeID
}

func (m annMsg) Bits() int { return 3*congest.BitsForID(m.n) + 1 }

// Annotate fills RootDepth and RootID for every block this node belongs to,
// by a downward pipelined pass: block roots know their role locally (their
// parent edge is not in H_i) and every other member learns its root from its
// tree parent. Messages on a shared edge are scheduled by (rootDepth, part)
// priority; by the broadcast half of Lemma 2 the pass completes within
// depth(T) + CMax rounds — Annotate runs exactly CastBudget rounds and
// errors if anything is left undelivered (which would disprove the bound).
// A node with no queued annotation whose root it knows waits in StepUntil
// for its parent's message or the end of the budget. All nodes enter and
// leave aligned.
func (m *Membership) Annotate(ctx congest.Net) error {
	// Roots know themselves.
	for _, i := range m.Parts {
		if !m.ParentIn[i] {
			m.RootDepth[i] = m.Info.Depth
			m.RootID[i] = ctx.ID()
		}
	}
	// Pending per child: parts whose annotation still must go down that edge.
	pending := make(map[graph.NodeID][]int, len(m.ChildrenIn))
	for _, i := range m.Parts {
		for _, ch := range m.ChildrenIn[i] {
			pending[ch] = append(pending[ch], i)
		}
	}
	budget := m.CastBudget()
	start := ctx.Round()
	var inbox []congest.Message
	for r := 0; ; r = ctx.Round() - start {
		for _, msg := range inbox {
			am, ok := msg.Payload.(annMsg)
			if !ok {
				return fmt.Errorf("partops: unexpected payload %T in annotate", msg.Payload)
			}
			if msg.From != m.Info.Parent {
				return fmt.Errorf("partops: node %d got annotation from non-parent %d", ctx.ID(), msg.From)
			}
			m.RootDepth[am.part] = am.rootDepth
			m.RootID[am.part] = am.rootID
		}
		if r == budget {
			break
		}
		for ch, parts := range pending {
			if best := m.bestKnown(parts); best != -1 {
				ctx.SendArc(m.childArc[ch], annMsg{part: best, rootDepth: m.RootDepth[best], rootID: m.RootID[best], n: m.Info.Count})
				pending[ch] = removeInt(parts, best)
				if len(pending[ch]) == 0 {
					delete(pending, ch)
				}
			}
		}
		next := start + budget
		for _, parts := range pending {
			if m.bestKnown(parts) != -1 {
				next = ctx.Round() + 1
				break
			}
		}
		inbox = ctx.StepUntil(next)
	}
	if len(pending) > 0 {
		return fmt.Errorf("partops: node %d: annotation unfinished after %d rounds (Lemma 2 budget violated)", ctx.ID(), budget)
	}
	for _, i := range m.Parts {
		if _, ok := m.RootDepth[i]; !ok {
			return fmt.Errorf("partops: node %d: no root annotation for part %d", ctx.ID(), i)
		}
	}
	return nil
}

// bestKnown returns the highest-priority queued part whose block root is
// already known, or -1 if none is.
func (m *Membership) bestKnown(parts []int) int {
	best := -1
	for _, i := range parts {
		if _, known := m.RootDepth[i]; !known {
			continue
		}
		if best == -1 || less2(m.RootDepth[i], i, m.RootDepth[best], best) {
			best = i
		}
	}
	return best
}

// less2 orders (rootDepth, part) pairs — the Lemma 2 routing priority.
func less2(d1, i1, d2, i2 int) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return i1 < i2
}

func removeInt(list []int, x int) []int {
	k := sort.SearchInts(list, x)
	if k < len(list) && list[k] == x {
		return append(list[:k], list[k+1:]...)
	}
	return list
}
