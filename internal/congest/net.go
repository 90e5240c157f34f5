package congest

import (
	"math/rand"

	"lcshortcut/internal/graph"
)

// Net is the protocol-facing surface of a simulation context: everything a
// classic-model Proc may do with its *Ctx, as an interface. Protocols
// written against Net (bfsproto, partops, elect's committing Raft) run
// unmodified both directly on the engine (*Ctx) and over wrappers that
// interpose on the transport — most importantly reliable.Ctx, which layers
// per-arc reliable delivery over a lossy network and re-exposes this exact
// surface with logical rounds.
//
// The contract is the *Ctx contract: one payload per arc per round, sends in
// round r surface at round r+1, StepRound returns the inbox ascending by
// sender ID in a slice valid until the node's next barrier (the engine
// shares one buffer among a shard's nodes), and InboxArc is valid between a
// barrier and the next. Wrappers
// may stretch one logical round over several physical ones, but Round()
// always counts the logical rounds the protocol experienced.
//
// StepUntil(round) performs at least one barrier, keeps stepping until the
// node has a readable message or Round() >= round, and returns that round's
// inbox as StepRound would, valid until the node's next barrier; with
// round <= Round()+1 it is StepRound. It is
// for waits that mean "nothing to do until a message or a known round": an
// implementation may let the node sleep through the rounds in between, but
// the rounds, messages and inboxes the protocol sees are those of stepping.
// Idle(k) is k barriers whose receipts are discarded, and may likewise sleep.
type Net interface {
	// Identity and topology.
	ID() graph.NodeID
	N() int
	IDBits() int
	Neighbors() []graph.Arc
	Degree() int
	ArcIndex(to graph.NodeID) int
	EdgeWeight(id graph.EdgeID) int64
	// Local state.
	Round() int
	Rand() *rand.Rand
	// Sending.
	Send(to graph.NodeID, p Payload)
	SendArc(k int, p Payload)
	SendAll(p Payload)
	// Barriers and receiving.
	StepRound() []Message
	Step()
	StepUntil(round int) []Message
	InboxArc(k int) (Payload, bool)
	Idle(k int)
}

var _ Net = (*Ctx)(nil)
