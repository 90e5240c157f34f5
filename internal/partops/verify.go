package partops

import (
	"fmt"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/graph"
)

// countMsg carries a subtree sum (plus a conflict flag) from a child block's
// chosen uplink vertex to the parent block during the supergraph-BFS
// convergecast.
type countMsg struct {
	sum      int64
	conflict bool
	n        int
}

func (m countMsg) Bits() int { return congest.BitsForID(m.n) + 2 }

// SumResult is the outcome of PartSum / VerifyBlockCount for one part.
type SumResult struct {
	// Sum is the aggregated value (valid only when OK).
	Sum int64
	// OK reports that the part's supergraph procedure certified itself:
	// a single leader, every block reached within the step horizon, and no
	// conflicts — exactly the success condition of the paper's Lemma 3.
	OK bool
}

// sumState is PartSum's per-part state at one node.
type sumState struct {
	// leader is the elected leader; layer and port are the block's place in
	// the supergraph BFS forest (port = uplink·n + uplink's neighbor, -1
	// none); cnt and confl accumulate the forest sum at block roots.
	leader, port, cnt int64
	layer             int
	confl             bool
}

// PartSum aggregates, for every part, the sum of own(part) over all block
// members — a non-idempotent convergecast realized by the paper's Lemma 3
// machinery: elect leaders (steps supersteps), build a BFS forest over each
// part's supergraph rooted at the leader block (steps supersteps, adopting
// parents only among same-leader neighbors), converge sums up the forest
// (steps supersteps scheduled by layer) and spread the verdict/result back
// (steps+1 supersteps). A part whose supergraph has at most `steps` blocks is
// guaranteed OK with an exact sum; parts with more blocks are reported not-OK
// at every member (never a wrong sum). Returns the results aligned with
// Parts.
//
// Total cost: (4·steps+2)·O(D+c) rounds = O(steps·(D+c)), matching Lemma 3.
// All nodes enter and leave aligned.
func (m *Membership) PartSum(ctx congest.Net, own func(part int) int64, steps int) ([]SumResult, error) {
	return m.partSum(ctx, func(k int) int64 { return own(m.Parts[k]) }, steps)
}

// partSum is PartSum on part indices.
func (m *Membership) partSum(ctx congest.Net, own func(k int) int64, steps int) ([]SumResult, error) {
	if steps < 1 {
		return nil, fmt.Errorf("partops: PartSum needs steps >= 1, got %d", steps)
	}
	n := m.Info.Count
	leaders, err := m.electLeaders(ctx, steps)
	if err != nil {
		return nil, err
	}

	// --- Supergraph BFS forest construction -------------------------------
	const unreached = -1
	ps := m.s.sum
	for k := range ps {
		ps[k] = sumState{leader: leaders[k].(IDVal).V, layer: unreached, port: -1}
		if int64(m.RootID[k]) == ps[k].leader {
			ps[k].layer = 0
		}
	}
	conflictLocal := false
	const noPort = int64(1) << 62
	noCand := Value(IDVal{V: noPort, N: n * n})
	for t := 1; t <= steps; t++ {
		// Exchange (layer, leader) with same-part neighbors. Only members
		// send, and only to members of their own part.
		var mine Value
		if m.own >= 0 {
			mine = PairVal{A: int64(ps[m.own].layer), B: ps[m.own].leader, N: n}
		}
		recv, err := m.exchange(ctx, mine)
		if err != nil {
			return nil, err
		}
		cand := noPort
		for a, v := range recv {
			if v == nil {
				continue
			}
			pv := v.(PairVal)
			if pv.B != ps[m.own].leader {
				conflictLocal = true
				continue
			}
			if pv.A == int64(t-1) {
				if p := int64(ctx.ID())*int64(n) + int64(ctx.Neighbors()[a].To); p < cand {
					cand = p
				}
			}
		}
		// Gather the minimum candidate port to the block root.
		res, err := m.gather(ctx, func(k int) Value {
			if k == m.own && ps[k].layer == unreached {
				return IDVal{V: cand, N: n * n}
			}
			return noCand
		}, minID, 0)
		if err != nil {
			return nil, err
		}
		// Roots adopt; scatter the (layer, port) state.
		adopted, err := m.scatter(ctx, func(k int) Value {
			if ps[k].layer == unreached {
				if p := res[k].(IDVal).V; p != noPort {
					return PairVal{A: int64(t), B: p, N: n * n}
				}
			}
			return PairVal{A: int64(ps[k].layer), B: ps[k].port, N: n * n}
		}, 0)
		if err != nil {
			return nil, err
		}
		for k, v := range adopted {
			pv := v.(PairVal)
			ps[k].layer, ps[k].port = int(pv.A), pv.B
		}
	}

	// --- Sum convergecast up the BFS forest -------------------------------
	// cnt and confl accumulate at block roots; inSum/inConfl buffer the
	// child counts this vertex receives for its own part between
	// supersteps.
	conflBit := func(c bool) int64 {
		if c {
			return 1
		}
		return 0
	}
	// Initial intra-block sum of member contributions (+ conflict bits). A
	// conflict was seen in the exchange with same-part neighbors, so it
	// belongs to the own part only: a vertex that sits in another part's
	// block as a Steiner vertex must not fail that part's verdict.
	first, err := m.gather(ctx, func(k int) Value {
		return PairVal{A: own(k), B: conflBit(k == m.own && conflictLocal), N: n}
	}, addPair, 0)
	if err != nil {
		return nil, err
	}
	for k, v := range first {
		if !m.ParentIn[k] {
			pv := v.(PairVal)
			ps[k].cnt, ps[k].confl = pv.A, pv.B > 0
		}
	}
	var (
		inSum   int64
		inConfl bool
	)
	noCount := Value(PairVal{N: n})
	for s := steps; s >= 1; s-- {
		// Roots scatter their current (cnt, conflict) so uplink members of
		// layer-s blocks can forward. (Members already know layer and port
		// from the BFS phase.)
		state, err := m.scatter(ctx, func(k int) Value {
			return PairVal{A: ps[k].cnt, B: conflBit(ps[k].confl), N: n}
		}, 0)
		if err != nil {
			return nil, err
		}
		// One round: chosen uplink vertices of layer-s blocks forward.
		if k := m.own; k >= 0 && ps[k].layer == s && ps[k].port != -1 {
			pv := state[k].(PairVal)
			up := graph.NodeID(ps[k].port / int64(n))
			nbr := graph.NodeID(ps[k].port % int64(n))
			if up == ctx.ID() {
				ctx.Send(nbr, countMsg{sum: pv.A, conflict: pv.B == 1, n: n})
			}
		}
		for _, msg := range ctx.StepRound() {
			cm, ok := msg.Payload.(countMsg)
			if !ok {
				return nil, fmt.Errorf("partops: unexpected payload %T in count step", msg.Payload)
			}
			inSum += cm.sum
			inConfl = inConfl || cm.conflict
		}
		// Gather this superstep's receipts into roots.
		got, err := m.gather(ctx, func(k int) Value {
			if k != m.own {
				return noCount
			}
			v := PairVal{A: inSum, B: conflBit(inConfl), N: n}
			inSum, inConfl = 0, false
			return v
		}, addPair, 0)
		if err != nil {
			return nil, err
		}
		for k, v := range got {
			if !m.ParentIn[k] {
				pv := v.(PairVal)
				ps[k].cnt += pv.A
				ps[k].confl = ps[k].confl || pv.B > 0
			}
		}
	}

	// --- Verdict / result spread ------------------------------------------
	// The leader-block root knows the forest total and conflict status; every
	// believed leader broadcasts (verdict, sum). Bad dominates under min.
	const vGood, vBad, vUnknown = 0, 1, 2
	unknown := Value(PairVal{A: vUnknown, B: 0, N: n})
	spread, err := m.spreadMin(ctx, func(k int) Value {
		if int64(ctx.ID()) == ps[k].leader && !m.ParentIn[k] {
			v := int64(vGood)
			if ps[k].confl {
				v = vBad
			}
			return PairVal{A: v, B: ps[k].cnt, N: n}
		}
		return unknown
	}, lessPair, steps+1)
	if err != nil {
		return nil, err
	}
	out := make([]SumResult, len(spread))
	for k, v := range spread {
		pv := v.(PairVal)
		out[k] = SumResult{Sum: pv.B, OK: pv.A == vGood && ps[k].layer != unreached}
	}
	return out, nil
}

// minID folds IDVals to their minimum.
func minID(a, b Value) Value {
	if b.(IDVal).V < a.(IDVal).V {
		return b
	}
	return a
}

func addPair(a, b Value) Value {
	pa, pb := a.(PairVal), b.(PairVal)
	return PairVal{A: pa.A + pb.A, B: pa.B | pb.B, N: pa.N}
}

// VerifyBlockCount implements the Verification subroutine (Lemmas 3 and 6):
// it marks good every part whose shortcut subgraph has at most bLimit block
// components. Every member of a good part learns the verdict and the exact
// block count; parts with more than bLimit blocks are reported bad at every
// member. Returns the verdicts aligned with Parts. Runs in
// O(bLimit·(D+c)) rounds.
func (m *Membership) VerifyBlockCount(ctx congest.Net, bLimit int) ([]SumResult, error) {
	res, err := m.partSum(ctx, func(k int) int64 {
		if !m.ParentIn[k] {
			return 1
		}
		return 0
	}, bLimit)
	if err != nil {
		return nil, err
	}
	for k, r := range res {
		if r.OK && r.Sum > int64(bLimit) {
			res[k] = SumResult{Sum: r.Sum, OK: false}
		}
	}
	return res, nil
}
