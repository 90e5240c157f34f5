package partops

import (
	"fmt"

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

// annotate fills RootDepth and RootID for every block this node belongs to,
// by a downward pipelined pass: block roots know their role locally (their
// parent edge is not in H_i) and every other member learns its root from its
// tree parent. Messages on a shared edge are scheduled by (rootDepth, part)
// priority; by the broadcast half of Lemma 2 the pass completes within
// depth(T) + CMax rounds — annotate runs exactly CastBudget rounds and
// errors if anything is left undelivered (which would disprove the bound).
// A node with no queued annotation whose root it knows waits in StepUntil
// for its parent's message or the end of the budget. All nodes enter and
// leave aligned.
func (m *Membership) annotate(ctx congest.Net) error {
	pending := m.s.pending
	// Roots know themselves; every other block learns its root from above.
	for k := range m.Parts {
		m.RootDepth[k] = -1
		if !m.ParentIn[k] {
			m.RootDepth[k], m.RootID[k] = m.Info.Depth, ctx.ID()
		}
		m.enqueue(k)
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
			k := m.Index(am.part)
			if k < 0 {
				return fmt.Errorf("partops: node %d got an annotation for part %d outside its blocks", ctx.ID(), am.part)
			}
			m.RootDepth[k], m.RootID[k] = am.rootDepth, am.rootID
		}
		if r == budget {
			break
		}
		// Send the highest-priority queued annotation whose root is known
		// down each child edge; step on at once while another is sendable.
		next := start + budget
		for c, list := range pending {
			j := m.nextDown(list)
			if j == -1 {
				continue
			}
			k := list[j]
			ctx.SendArc(m.Info.ChildArcs[c], annMsg{part: m.Parts[k], rootDepth: m.RootDepth[k], rootID: m.RootID[k], n: m.Info.Count})
			if pending[c] = removeAt(list, j); m.nextDown(pending[c]) != -1 {
				next = ctx.Round() + 1
			}
		}
		inbox = ctx.StepUntil(next)
	}
	for _, list := range pending {
		if len(list) > 0 {
			return fmt.Errorf("partops: node %d: annotation unfinished after %d rounds (Lemma 2 budget violated)", ctx.ID(), budget)
		}
	}
	for k, i := range m.Parts {
		if m.RootDepth[k] < 0 {
			return fmt.Errorf("partops: node %d: no root annotation for part %d", ctx.ID(), i)
		}
	}
	return nil
}
