package coredist

import (
	"fmt"
	"math"
	"sort"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/core"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/rnd"
)

// routeMsg carries one part ID up the tree during Algorithm 2's routing
// stage (steps 3-5).
type routeMsg struct{ part, n int }

func (m routeMsg) Bits() int { return congest.BitsForID(m.n) + 1 }

// checkUpMsg aggregates "does anyone still hold an unforwarded ID?" up the
// tree during a completion check.
type checkUpMsg struct{ pending bool }

func (checkUpMsg) Bits() int { return 1 }

// checkDownMsg broadcasts the root's continue/stop decision.
type checkDownMsg struct{ cont bool }

func (checkDownMsg) Bits() int { return 1 }

// FastParams parameterizes the distributed CoreFast; it mirrors
// core.FastConfig so the two implementations sample identically.
type FastParams struct {
	// C is the congestion parameter of the assumed existing shortcut.
	C int
	// ActSeed feeds the shared-randomness activation sampling. In standalone
	// runs this is the seed broadcast in the BFS phase; FindShortcut varies
	// it per iteration.
	ActSeed int64
	// SkipOwnPart keeps this node from injecting its own part ID (its part
	// was fixed in an earlier FindShortcut iteration).
	SkipOwnPart bool
}

// CoreFastPhase runs Algorithm 2 on one node, starting from a completed BFS
// phase. Stage 1 determines unusable edges from sampled (active) part IDs in
// O(D·log n) rounds; stage 2 routes every part ID up the tree to the first
// unusable edge, in chunks of D+8c+4 rounds each followed by an O(D)
// completion check (the check makes the protocol deterministic-safe even
// when the w.h.p. congestion bound is exceeded). The result is bit-identical
// to the centralized core.CoreFast with the same parameters.
func CoreFastPhase(ctx *congest.Ctx, info *bfsproto.Info, assign PartAssign, prm FastParams) (*NodeShortcut, error) {
	if prm.C < 1 {
		return nil, fmt.Errorf("coredist: CoreFast needs c >= 1, got %d", prm.C)
	}
	n := info.Count
	prob := core.DefaultGamma * math.Log(float64(n)+2) / (2 * float64(prm.C))
	if prob > 1 {
		prob = 1
	}
	threshold := 4 * float64(prm.C) * prob
	isActive := func(i int) bool { return rnd.Bernoulli(prm.ActSeed, int64(i), prob) }

	// Stage 1: unusable-edge determination on sampled IDs.
	phaseLen := int(threshold) + 2
	pass, err := upwardPass(ctx, info, assign, phaseLen, prm.SkipOwnPart, isActive,
		func(k int) bool { return float64(k) >= threshold })
	if err != nil {
		return nil, err
	}

	// Stage 2: route all (not just active) part IDs up to the first unusable
	// edge. The stage-1 part lists were only samples; reset them and keep the
	// usability verdicts.
	return routeUp(ctx, info, assign, prm.SkipOwnPart, pass.ParentUsable, pass.ChildUsable, info.Height+8*prm.C+4)
}

// routeUp is Algorithm 2's routing stage (steps 3-5), also used standalone
// by CanonicalPhase: every part ID climbs the tree across usable edges, one
// ID per edge per round (smallest pending first), in fixed-size chunks each
// followed by an O(D) completion check so termination is deterministic even
// beyond the w.h.p. congestion bound.
func routeUp(
	ctx *congest.Ctx,
	info *bfsproto.Info,
	assign PartAssign,
	skipOwnPart bool,
	parentUsable bool,
	childUsable []bool, // aligned with info.Children
	chunk int,
) (*NodeShortcut, error) {
	ns := newNodeShortcut(info)
	ns.ParentUsable = parentUsable
	copy(ns.ChildUsable, childUsable)
	n := info.Count

	seen := make(map[int]bool)
	var unforwarded []int
	add := func(id int) {
		if !seen[id] {
			seen[id] = true
			unforwarded = sortedInsert(unforwarded, id)
		}
	}
	if i := assign.Part(ctx.ID()); i != partition.None && !skipOwnPart {
		add(i)
	}
	recvChild := make([][]int, len(info.Children)) // per child index

	process := func(inbox []congest.Message) error {
		for _, m := range inbox {
			switch msg := m.Payload.(type) {
			case routeMsg:
				k := ns.ChildIndex(m.From)
				if k < 0 {
					return fmt.Errorf("coredist: node %d got a route message from non-child %d", ctx.ID(), m.From)
				}
				recvChild[k] = append(recvChild[k], msg.part)
				add(msg.part)
			default:
				return fmt.Errorf("coredist: unexpected payload %T in routing chunk", m.Payload)
			}
		}
		return nil
	}

	var inbox []congest.Message
	for {
		// Routing chunk: each round, forward the smallest unforwarded ID;
		// with none left, wait for a child's ID or the end of the chunk.
		end := ctx.Round() + chunk
		for ctx.Round() < end {
			if err := process(inbox); err != nil {
				return nil, err
			}
			if ns.ParentUsable && len(unforwarded) > 0 {
				ctx.SendArc(info.ParentArc, routeMsg{part: unforwarded[0], n: n})
				unforwarded = unforwarded[1:]
			}
			next := end
			if ns.ParentUsable && len(unforwarded) > 0 {
				next = ctx.Round() + 1
			}
			inbox = ctx.StepUntil(next)
		}
		// Completion check: OR-convergecast of pending status, then a
		// broadcast of the continue/stop decision; everyone stays aligned.
		cont, newInbox, err := completionCheck(ctx, info, inbox, process, func() bool {
			return ns.ParentUsable && len(unforwarded) > 0
		})
		if err != nil {
			return nil, err
		}
		inbox = newInbox
		if !cont {
			break
		}
	}
	if err := process(inbox); err != nil {
		return nil, err
	}

	// Assemble the final per-edge part lists.
	if ns.ParentUsable {
		ns.ParentParts = make([]int, 0, len(seen))
		for id := range seen {
			ns.ParentParts = append(ns.ParentParts, id)
		}
		sort.Ints(ns.ParentParts)
	}
	for k, u := range ns.ChildUsable {
		if u {
			ns.ChildParts[k] = sortedDedup(recvChild[k])
		}
	}
	return ns, nil
}

// completionCheck runs the 2·depth(T)+2 round OR-convergecast/broadcast that
// decides whether another routing chunk is needed. process handles stray
// route messages still in flight at the chunk boundary; pending reports this
// node's status (evaluated at its scheduled report round, after in-flight
// messages have been absorbed). Between its own actions a node waits in
// StepUntil, as in bfsproto.AggregatePhase. Returns the decision and the
// final inbox.
func completionCheck(
	ctx *congest.Ctx,
	info *bfsproto.Info,
	inbox []congest.Message,
	process func([]congest.Message) error,
	pending func() bool,
) (bool, []congest.Message, error) {
	h := info.Height
	subtreePending := false
	childReports := 0
	decision := false
	haveDecision := info.Parent == -1 && len(info.Children) == 0 // trivial tree
	start := ctx.Round()
	for k := 0; ; k = ctx.Round() - start {
		var stray []congest.Message
		for _, m := range inbox {
			switch msg := m.Payload.(type) {
			case checkUpMsg:
				childReports++
				subtreePending = subtreePending || msg.pending
			case checkDownMsg:
				decision = msg.cont
				haveDecision = true
				for _, ka := range info.ChildArcs {
					ctx.SendArc(ka, checkDownMsg{cont: decision})
				}
			default:
				stray = append(stray, m)
			}
		}
		if err := process(stray); err != nil {
			return false, nil, err
		}
		if k == h-info.Depth {
			if childReports != len(info.Children) {
				return false, nil, fmt.Errorf("coredist: node %d check round: %d of %d child reports",
					ctx.ID(), childReports, len(info.Children))
			}
			mine := subtreePending || pending()
			if info.Parent != -1 {
				ctx.SendArc(info.ParentArc, checkUpMsg{pending: mine})
			} else {
				decision = mine
				haveDecision = true
				for _, ka := range info.ChildArcs {
					ctx.SendArc(ka, checkDownMsg{cont: decision})
				}
			}
		}
		if k >= 2*h+2 {
			inbox = nil
			break
		}
		next := 2*h + 2
		if k < h-info.Depth {
			next = h - info.Depth
		}
		inbox = ctx.StepUntil(start + next)
	}
	if !haveDecision {
		return false, nil, fmt.Errorf("coredist: node %d finished check without a decision", ctx.ID())
	}
	return decision, inbox, nil
}

// CanonicalPhase constructs the canonical full-ancestor shortcut (the b = 1
// existence witness): every tree edge stays usable and H_i is the union of
// the tree paths from P_i's vertices to the root. Pipelined upward routing
// costs O(D + c*) rounds, where c* is the witness congestion — the paper's
// "global pipelining over T" baseline, with no core subroutine at all.
func CanonicalPhase(ctx *congest.Ctx, info *bfsproto.Info, assign PartAssign) (*NodeShortcut, error) {
	childUsable := make([]bool, len(info.Children))
	for k := range childUsable {
		childUsable[k] = true
	}
	return routeUp(ctx, info, assign, false, info.Parent != -1, childUsable, info.Height+64)
}
