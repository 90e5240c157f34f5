package congest

import (
	"fmt"

	"lcshortcut/internal/graph"
)

// This file is the radio-network variant of the CONGEST engine
// (Options.Model = ModelRadio): the single-channel model of Bar-Yehuda,
// Goldreich and Itai, and of Czumaj–Davies' spontaneous-transmission work.
// A node does not address neighbors — per round it either transmits one
// payload to its whole neighborhood or stays silent, and a node hears
// something only when EXACTLY one of its neighbors transmitted: zero
// transmitters is silence, two or more collide into noise (with collision
// detection — the receiver can distinguish noise from silence, the stronger
// of the two standard variants).
//
// Implementation: transmissions live in per-node slot arenas (tx,
// parity-doubled and epoch-stamped exactly like the mailbox arenas), so a
// transmit is one exclusive-writer O(1) store and a receive is an O(degree)
// scan over the neighbors' slots. The arenas are allocated only for radio
// runs; a non-radio run never touches them, keeping the classic path at 0
// allocs/round. The fault layer composes: crashes silence a node exactly as
// in the classic model, and message drops are decided per (receiver arc
// slot, round) with the same hash as classic drops — a dropped transmission
// does not reach that receiver and does not count toward its collision, so
// fading links can turn a collision into a clean reception.
//
// Determinism: a transmission is one store keyed by round parity, and
// reception is a pure function of the arena contents at the barrier. The
// arenas live on the run-wide runState, so every shard runs this exact code
// path; the round barrier provides the happens-before edges.

// Model selects the engine's communication model.
type Model int32

const (
	// ModelCongest is the classic CONGEST model: per-edge addressed messages
	// via Send/SendArc/SendAll and StepRound/InboxArc.
	ModelCongest Model = iota
	// ModelRadio is the single-channel radio model: per-round broadcast
	// transmissions via Transmit, received via RadioRecv, with collisions.
	// The classic send/inbox primitives are model violations under it (and
	// Transmit/RadioRecv are violations under ModelCongest).
	ModelRadio
)

// RadioStatus classifies what a node heard in a radio round.
type RadioStatus int8

const (
	// RadioSilence: no neighbor transmitted (or every transmission faded).
	RadioSilence RadioStatus = iota
	// RadioMessage: exactly one transmission arrived; the payload is valid.
	RadioMessage
	// RadioCollision: two or more transmissions arrived and were destroyed.
	// Receivers can distinguish collision from silence (collision detection).
	RadioCollision
)

func (s RadioStatus) String() string {
	switch s {
	case RadioSilence:
		return "silence"
	case RadioMessage:
		return "message"
	case RadioCollision:
		return "collision"
	}
	return fmt.Sprintf("RadioStatus(%d)", int(s))
}

// Transmit broadcasts p on the shared channel this round (ModelRadio only).
// Whether any neighbor can decode it depends on what the rest of the
// neighborhood does — see RadioRecv. Transmitting twice in one round, or
// transmitting under ModelCongest, is a model violation; like sends, a
// transmission is charged to the transmitter (one message of p.Bits() bits)
// even when every receiver loses it.
func (c *Ctx) Transmit(p Payload) {
	if c.model != ModelRadio {
		c.wrongModel("Transmit", "")
	}
	if c.down() {
		return // crashed: a dead node's transmissions are lost (and can't violate)
	}
	rs := c.run
	b := p.Bits()
	if limit := rs.opts.MaxMessageBits; limit > 0 && b > limit {
		c.oversized("transmitted", b)
	}
	stamp := int32(c.round) + 1
	sl := &rs.tx[stamp&1][c.id]
	if sl.stamp == stamp {
		c.fail(fmt.Errorf("%w: node %d transmitted twice in round %d", ErrModelViolation, c.id, c.round))
	}
	*sl = slot{pay: p, stamp: stamp}
	c.pMsgs++
	c.pBits += int64(b)
	if b > c.pMax {
		c.pMax = b
	}
}

// RadioRecv reports what the node heard this round: the unique transmission
// among its neighbors (RadioMessage), nothing (RadioSilence), or noise from
// two or more simultaneous transmissions (RadioCollision). Like InboxArc it
// is valid between a Step and the node's next barrier, scans without
// allocating, and a crashed node hears only silence. A node does not hear
// its own transmission.
func (c *Ctx) RadioRecv() (Payload, graph.NodeID, RadioStatus) {
	if c.model != ModelRadio {
		c.wrongModel("RadioRecv", "")
	}
	if c.down() {
		return nil, -1, RadioSilence
	}
	stamp := int32(c.round)
	if stamp == 0 {
		return nil, -1, RadioSilence
	}
	rs := c.run
	tx := rs.tx[stamp&1]
	thresh, seed := rs.dropThresh, rs.faultSeed
	var (
		heard int
		from  graph.NodeID = -1
		p     Payload
	)
	for k, a := range c.arcs {
		if tx[a.To].stamp != stamp {
			continue
		}
		// Drops key on the receiver-side arc slot, exactly like classic-model
		// drops: a faded transmission reaches this receiver's other neighbors
		// (their own slots decide) and doesn't add to this node's collision.
		if thresh != 0 && dropped(thresh, seed, stamp, c.lo+int32(k)) {
			continue
		}
		if heard++; heard > 1 {
			return nil, -1, RadioCollision
		}
		from, p = a.To, tx[a.To].pay
	}
	if heard == 0 {
		return nil, -1, RadioSilence
	}
	return p, from, RadioMessage
}
