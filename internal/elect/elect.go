// Package elect implements leader election on the CONGEST engine — the first
// protocols written for the faulty regime rather than merely tolerating it.
//
// Two protocols live here:
//
//   - Flood (this file): randomized flood-max election in the style of the
//     Czumaj–Davies line of leader-election work — each node draws a random
//     rank of Θ(log n) bits, and the maximum (rank, ID) pair is flooded until
//     it saturates the graph. Re-broadcasting every round (instead of only on
//     change) buys loss-tolerance for free: a dropped ballot is retried next
//     round, so under DropProb < 1 the maximum still spreads, just slower.
//   - Raft (raft.go): a heartbeat/term consensus skeleton that keeps a leader
//     alive under crash-stop failures by re-electing on silence.
//
// Every decision a node makes is a function of its own RNG draw and the
// *multiset* of messages it received — never of inbox order — so outcomes are
// invariant under the engine's scheduler adversary by construction, and
// identical at every shard count.
package elect

import (
	"lcshortcut/internal/congest"
	"lcshortcut/internal/graph"
)

// rankBits returns the width of the random rank: 3 ID-widths (collision
// probability ≤ 1/n over all pairs), capped so a ballot stays a single
// O(log n)-bit CONGEST message.
func rankBits(idBits int) int {
	b := 3 * idBits
	if b > 60 {
		b = 60
	}
	return b
}

// ballot is the flooded token: a random rank with the node ID as tiebreak.
type ballot struct {
	rank uint64
	id   graph.NodeID
	bits int
}

func (b ballot) Bits() int { return b.bits }

// beats reports whether b wins against o in the (rank, id) total order.
func (b ballot) beats(o ballot) bool {
	if b.rank != o.rank {
		return b.rank > o.rank
	}
	return b.id > o.id
}

// Outcome is one node's final view of the election.
type Outcome struct {
	// Leader is the node this node believes won.
	Leader graph.NodeID
	// Rank is the winning ballot's random rank.
	Rank uint64
	// LastChange is the last round at which this node's belief changed; on a
	// fault-free connected graph it is at most the winner's eccentricity.
	LastChange int
}

// Agreed reports whether every outcome in out names the same leader, and that
// leader. skip selects nodes to ignore (crashed nodes hold a stale view);
// pass nil to require unanimity.
func Agreed(out []Outcome, skip func(graph.NodeID) bool) (graph.NodeID, bool) {
	leader, seen := -1, false
	for v, o := range out {
		if skip != nil && skip(v) {
			continue
		}
		if !seen {
			leader, seen = o.Leader, true
			continue
		}
		if o.Leader != leader {
			return -1, false
		}
	}
	return leader, seen
}

// Flood returns the flood-max election Proc: run for exactly `rounds` rounds,
// writing each node's final view into out (indexed by node ID). On a
// fault-free connected graph, rounds ≥ diameter+1 guarantees unanimous
// agreement on the maximum ballot; under message loss the protocol degrades
// by needing more rounds (each ballot is re-offered every round), and under
// crash-stop failures survivors agree on the best ballot that reached them.
func Flood(rounds int, out []Outcome) congest.Proc {
	return func(ctx *congest.Ctx) error {
		return FloodNet(ctx, rounds, out)
	}
}

// FloodNet is the flood-max election against the abstract transport surface:
// it runs on a raw *congest.Ctx (via Flood) and unmodified over wrappers
// like reliable.Ctx, where the loss-tolerance of per-round re-broadcast is
// replaced by the transport's retransmission guarantee.
func FloodNet(ctx congest.Net, rounds int, out []Outcome) error {
	bits := rankBits(ctx.IDBits()) + ctx.IDBits()
	best := ballot{
		rank: ctx.Rand().Uint64() >> (64 - uint(rankBits(ctx.IDBits()))),
		id:   ctx.ID(),
		bits: bits,
	}
	last := 0
	for r := 0; r < rounds; r++ {
		ctx.SendAll(best)
		for _, m := range ctx.StepRound() {
			if b := m.Payload.(ballot); b.beats(best) {
				best = b
				last = r + 1
			}
		}
	}
	out[ctx.ID()] = Outcome{Leader: best.id, Rank: best.rank, LastChange: last}
	return nil
}
