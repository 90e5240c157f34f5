package partops

import (
	"slices"

	"lcshortcut/internal/congest"
)

// A superstep (Theorem 2's supergraph step) is one round of value exchange
// over G[P_i] edges followed by an intra-block convergecast to the block root
// and a broadcast back — O(D + c) rounds by Lemma 2. Supergraph algorithms
// (leader election, BFS, counting) advance one supergraph hop per superstep.

// spreadMin runs `steps` min-propagation supersteps: every node starts with
// init(k) for each of its blocks (k indexes Parts) and after j steps holds
// the minimum (by less) over all blocks within j supergraph hops whose
// members initially held smaller values. It implements at once Theorem 2's
// leader election (init = block root ID), broadcast (init = value at the
// leader, +∞ elsewhere) and idempotent convergecast (init = member values).
// init need not be uniform within a block — the first intra-block cast
// folds it. Returns the values aligned with Parts in a scratch slice. All
// nodes enter and leave aligned: steps·(2·CastBudget+1) rounds.
func (m *Membership) spreadMin(ctx congest.Net, init func(k int) Value, less func(a, b Value) bool, steps int) ([]Value, error) {
	minC := func(a, b Value) Value {
		if less(b, a) {
			return b
		}
		return a
	}
	cur := m.s.cur
	for k := range cur {
		cur[k] = init(k)
	}
	for s := 0; s < steps; s++ {
		var mine Value
		if m.own >= 0 {
			mine = cur[m.own]
		}
		recv, err := m.exchange(ctx, mine)
		if err != nil {
			return nil, err
		}
		cand := mine
		for _, v := range recv {
			if v != nil {
				cand = minC(cand, v)
			}
		}
		res, err := m.gather(ctx, func(k int) Value {
			if k == m.own {
				return cand
			}
			return cur[k]
		}, minC, 0)
		if err != nil {
			return nil, err
		}
		got, err := m.scatter(ctx, func(k int) Value { return res[k] }, 0)
		if err != nil {
			return nil, err
		}
		copy(cur, got)
	}
	return cur, nil
}

// lessID orders IDVals ascending.
func lessID(a, b Value) bool { return a.(IDVal).V < b.(IDVal).V }

// lessPair orders PairVals by (A, B).
func lessPair(a, b Value) bool {
	pa, pb := a.(PairVal), b.(PairVal)
	if pa.A != pb.A {
		return pa.A < pb.A
	}
	return pa.B < pb.B
}

// ElectLeaders implements Theorem 2 i): after steps supersteps every member
// of part i knows the part's leader — the minimum block-root ID. steps must
// be at least the part's block count (the block parameter b) for the result
// to be globally consistent; VerifyBlockCount detects when it is not.
// Returns the leaders aligned with Parts.
func (m *Membership) ElectLeaders(ctx congest.Net, steps int) ([]int64, error) {
	res, err := m.electLeaders(ctx, steps)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(res))
	for k, v := range res {
		out[k] = v.(IDVal).V
	}
	return out, nil
}

// electLeaders is ElectLeaders with the IDVals left in spreadMin's scratch.
func (m *Membership) electLeaders(ctx congest.Net, steps int) ([]Value, error) {
	return m.spreadMin(ctx, func(k int) Value {
		return IDVal{V: int64(m.RootID[k]), N: m.Info.Count}
	}, lessID, steps)
}

// BroadcastResult is one part's outcome of BroadcastValue.
type BroadcastResult struct {
	// Value is the leader's value; it is meaningful only when Arrived.
	Value int64
	// Arrived reports that the leader's value reached this node within the
	// horizon.
	Arrived bool
}

// BroadcastValue implements Theorem 2 iii): the node whose ID equals
// leaders[k] (as returned by ElectLeaders) injects value(Parts[k]); after
// steps+1 supersteps every member of the part holds it. (One extra superstep
// flushes the leader's value through its own block.) Returns, aligned with
// Parts, the received value per part, with Arrived false where the value did
// not arrive within the horizon.
func (m *Membership) BroadcastValue(ctx congest.Net, leaders []int64, value func(part int) int64, steps int) ([]BroadcastResult, error) {
	const missing = int64(1) << 62
	res, err := m.spreadMin(ctx, func(k int) Value {
		if int64(ctx.ID()) == leaders[k] {
			return PairVal{A: 0, B: value(m.Parts[k]), N: m.Info.Count}
		}
		return PairVal{A: 1, B: missing, N: m.Info.Count}
	}, lessPair, steps+1)
	if err != nil {
		return nil, err
	}
	out := make([]BroadcastResult, len(res))
	for k, v := range res {
		if pv := v.(PairVal); pv.A == 0 {
			out[k] = BroadcastResult{Value: pv.B, Arrived: true}
		}
	}
	return out, nil
}

// MinToAll implements Theorem 2 ii) for idempotent aggregates: every part
// member contributes a value and after steps+1 supersteps all members
// (the leader included) know the part-wide minimum under less. Members
// without a contribution pass nil (treated as +∞). Steiner nodes contribute
// nothing. Returns the minima aligned with Parts.
func (m *Membership) MinToAll(ctx congest.Net, own func(part int) Value, top Value, less func(a, b Value) bool, steps int) ([]Value, error) {
	cur, err := m.spreadMin(ctx, func(k int) Value {
		if k == m.own {
			if v := own(m.OwnPart); v != nil {
				return v
			}
		}
		return top
	}, less, steps+1)
	if err != nil {
		return nil, err
	}
	return slices.Clone(cur), nil
}
