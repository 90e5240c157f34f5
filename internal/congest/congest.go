// Package congest simulates the CONGEST model of distributed computing
// (Peleg 2000): a synchronous message-passing network over an undirected
// graph in which every node may send at most one O(log n)-bit message to each
// neighbor per round.
//
// Every protocol in this repository is written as a per-node procedure (a
// Proc) that advances the global round clock by calling Ctx.StepRound — the
// synchronous barrier. The engine enforces the model (neighbor-only
// delivery, one message per edge-direction per round, optional strict
// message-size budgets) and accounts the model's cost metric exactly: the
// number of rounds, plus total messages and bits for diagnostics.
//
// The simulation is deterministic: nodes interact only through the engine at
// round barriers and each node's random source is seeded from (Options.Seed,
// node ID), so a run's outcome is independent of the order in which nodes
// run within a round.
//
// # Engine internals
//
// There is one engine. It allocates nothing in the steady state. It exploits
// the model invariant that each edge-direction carries at most one message
// per round: every node owns a fixed mailbox of degree(v) slots indexed by
// in-arc, laid out in one flat arena of 2m slots mirroring the graph's CSR
// arc arrays. A slot holds the payload next to its epoch stamp (the round at
// which it becomes readable), so a send, a drop or a read touches one slot,
// and nothing is ever cleared between rounds. Send writes straight into the
// receiver's slot through the graph's precomputed reverse-arc permutation —
// no queues — and a node's first send of a round skips the double-send read,
// since it cannot repeat an arc; later sends read the stamp. Two slot arenas
// alternate by round parity so round-r readers never share an array with
// round-r+1 writers. A message the lossy network drops is stamped with a nil
// payload: it is charged to the sender and invisible to every read. StepRound
// materializes a node's inbox into its shard's one inbox buffer, which the
// node owns until its next barrier.
//
// The CSR vertex range is cut into P contiguous arc-balanced shards
// (partition.ShardBounds, see driver.go). P is Options.Shards, or the
// process-wide SetDefaultShards count when that is 0, or else one: the
// shard count is the only thing that selects how a run executes. Every
// node's Proc runs in a coroutine (iter.Pull; race-detector builds use a
// goroutine hand-off, see coro_race.go), and each shard has one driver: it
// resumes its awake nodes one at a time in ascending ID order, each until
// its next barrier arrival, then meets the other drivers at the round
// barrier; the last to arrive retires the round (first error, round count,
// watchdog, clock jump). At P = 1 the only driver is the caller's goroutine
// and the barrier is a function call. A node's barrier arrival is a
// coroutine switch, never a park.
//
// Only awake nodes are resumed. A node with nothing to do until a message or
// a known round (Ctx.StepUntil, Ctx.Idle) arrives as a sleeper: its driver
// files it in the shard's indexed min-heap keyed by (wake round, node ID)
// and leaves it suspended. A send to a sleeping receiver marks it — a
// per-node flag, then a slot in the shard's preallocated wake list — so the
// driver resumes exactly the nodes that stepped, got mail or are due. A
// message to another shard travels through a relay ring that the receiving
// driver drains before it files its sleepers, so relayed mail wakes a
// sleeper exactly as a local send does. A node falling asleep in the round
// being retired may have missed marks from senders that ran before it, so
// its driver scans its slots for that round's stamp instead. When no node of
// any shard is awake, the round barrier jumps the round counter to the
// earliest wake round; the skipped rounds count in Stats.Rounds and against
// the watchdog exactly as stepped ones would. A run therefore pays for the
// node-rounds that do work, not for every live node in every round.
//
// Because the nodes of a shard run one at a time, a Proc may interact with
// other nodes only through the engine: a Proc that blocks on another node's
// channel or mutex deadlocks the run. A runtime.Goexit inside a Proc (for
// example t.FailNow) ends the run and propagates to Run's caller after the
// other nodes are unwound, on whichever driver it happened.
//
// Every seeded output is byte-identical at every shard count; shards change
// only wall-clock. The run state — the node table, the arenas, the shards,
// the radio and fault state and the run's outcome — is pooled across runs,
// so a harness performing thousands of simulations reuses one arena.
package congest

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"lcshortcut/internal/graph"
)

// Payload is the content of a CONGEST message. Bits reports the payload's
// size in bits, which the engine accounts and optionally enforces against
// Options.MaxMessageBits. Implementations should report an honest encoding
// size (IDs cost ~log2 n bits, etc.). The engine never mutates a Payload and
// may deliver the same Payload value to many receivers (SendAll), so
// implementations must be treated as immutable once sent; a sent Payload may
// stay referenced by the engine's mailbox arena until its slot is
// overwritten by a later send or the run completes.
type Payload interface {
	Bits() int
}

// Message is a payload together with the neighbor it arrived from.
type Message struct {
	From    graph.NodeID
	Payload Payload
}

// slot is one mailbox slot: the payload in flight on one arc and the round
// at which it becomes readable. A stamped nil payload is a dropped message.
type slot struct {
	pay   Payload
	stamp int32
}

// Proc is the per-node protocol procedure, run with ctx bound to one vertex;
// returning ends the node's participation (any not-yet-delivered sends are
// still delivered at the next barrier). Returning a non-nil error aborts the
// whole run. The nodes of a shard take turns on their driver's goroutine,
// so a Proc must not block on anything another node of the same run would
// release.
type Proc func(ctx *Ctx) error

// Options configures a simulation run.
type Options struct {
	// MaxRounds aborts the run once this many barriers have executed,
	// guarding against protocol bugs. 0 means DefaultMaxRounds.
	MaxRounds int
	// MaxMessageBits, when positive, makes the engine reject any message
	// whose payload reports more bits than this (the model's O(log n) budget).
	// When 0, sizes are measured but not enforced.
	MaxMessageBits int
	// Seed derives every node-local random source. Runs with equal seeds are
	// identical.
	Seed int64
	// Model selects the communication model: ModelCongest (the default) is
	// classic per-edge message passing, ModelRadio replaces Send/Inbox with
	// the single-channel radio primitive Transmit/RadioRecv in which
	// simultaneous neighbor transmissions collide (see radio.go).
	Model Model
	// Faults optionally plugs a deterministic fault plan into the run:
	// seeded crash-stop node failures, per-message loss and an adversarial
	// inbox schedule (see FaultPlan). nil selects the process-wide default
	// installed by SetDefaultFaults (itself nil unless a chaos harness set
	// one); a nil or empty plan leaves the simulation fault-free and
	// byte-identical to the pre-fault-layer engine.
	Faults *FaultPlan
	// Shards is the run's shard count: how many contiguous arc-balanced
	// vertex ranges the run is cut into, each with its own driver, mailbox
	// arena window and sleep state. Shard 0's driver is the caller's
	// goroutine; every further shard adds a goroutine. 0 selects the
	// process-wide default (SetDefaultShards), itself one shard unless set;
	// the count is clamped to the node count. The seeded output is
	// byte-identical at every shard count — shards change only wall-clock.
	// Negative is an error.
	Shards int
}

// DefaultMaxRounds is the watchdog bound used when Options.MaxRounds is 0.
const DefaultMaxRounds = 500_000

// Stats reports the cost of a completed run.
type Stats struct {
	// Rounds is the number of synchronous rounds executed (the CONGEST
	// complexity measure).
	Rounds int
	// Messages is the total number of point-to-point messages delivered.
	Messages int64
	// TotalBits is the sum of payload sizes over all delivered messages.
	TotalBits int64
	// MaxMessageBits is the largest single payload observed.
	MaxMessageBits int
}

// Add accumulates another run's cost into s: counters sum, the max-size
// watermark is the maximum. The experiment harness uses it to aggregate the
// total simulated cost of an experiment across its simulation runs.
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.Messages += o.Messages
	s.TotalBits += o.TotalBits
	if o.MaxMessageBits > s.MaxMessageBits {
		s.MaxMessageBits = o.MaxMessageBits
	}
}

// Sentinel errors returned by Run (wrapped with context).
var (
	// ErrMaxRounds reports that the watchdog bound was hit.
	ErrMaxRounds = errors.New("congest: exceeded maximum round count")
	// ErrModelViolation reports a protocol breaking CONGEST rules (sending to
	// a non-neighbor, two messages over one edge-direction in a round, or an
	// oversized message under a strict bit budget).
	ErrModelViolation = errors.New("congest: model violation")
)

// errAbort is panicked into nodes waiting at the barrier when the run
// aborts, so they unwind and exit promptly.
var errAbort = errors.New("congest: run aborted")

// Engine names the engine a run used, for reports that predate the shard
// count being the only selector.
//
// Deprecated: a run is selected by Options.Shards alone.
type Engine int32

const (
	// EngineEventLoop names a run at one shard.
	//
	// Deprecated: a run is selected by Options.Shards alone.
	EngineEventLoop Engine = iota
	// EngineChannel named the channel-coordinator engine this repository
	// used before the arena rewrite. That engine has been removed.
	//
	// Deprecated: a run is selected by Options.Shards alone.
	EngineChannel
	// EngineSharded names a run at more than one shard.
	//
	// Deprecated: a run is selected by Options.Shards alone.
	EngineSharded
)

// CurrentEngine reports EngineSharded when the process-wide default shard
// count is above one, and EngineEventLoop otherwise.
//
// Deprecated: use DefaultShards.
func CurrentEngine() Engine {
	if DefaultShards() > 1 {
		return EngineSharded
	}
	return EngineEventLoop
}

// Run simulates proc on every vertex of g, cut into Options.Shards shards,
// and returns the run's cost. It returns an error if any node's Proc errs,
// violates the model, panics, or if the watchdog bound is reached; the
// returned Stats are valid (partial) in either case. Invalid options are an
// error before any node starts.
func Run(g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	// Slot stamps are int32 round numbers.
	if opts.MaxRounds > math.MaxInt32-2 {
		opts.MaxRounds = math.MaxInt32 - 2
	}
	if opts.Faults == nil {
		opts.Faults = defaultFaults.Load()
	}
	if err := opts.Faults.validate(g.NumNodes()); err != nil {
		return Stats{}, err
	}
	if opts.Model != ModelCongest && opts.Model != ModelRadio {
		return Stats{}, fmt.Errorf("congest: unknown Options.Model %d", opts.Model)
	}
	if opts.Shards < 0 {
		return Stats{}, fmt.Errorf("congest: negative Options.Shards %d", opts.Shards)
	}
	if opts.Shards == 0 {
		opts.Shards = DefaultShards()
	}
	if g.NumNodes() == 0 {
		return Stats{}, nil
	}
	return run(g, proc, opts)
}

// Barrier arrival kinds recorded by a node as it reaches the barrier.
// arriveSleep and arriveIdle are stepping arrivals that leave the awake set
// until the node's wake round; a sleeping node also wakes at its first
// readable message, an idle one does not. Kinds below arriveDone keep the
// node running.
const (
	arriveStep int32 = iota + 1
	arriveSleep
	arriveIdle
	arriveDone
	arriveFail
)

// Ctx is a node's handle to the simulation: its identity, neighborhood,
// send fast paths and the round barrier. A Ctx must only be used from its
// own Proc. The inbox slice StepRound and StepUntil return is the shard's
// one inbox buffer, shared by the shard's nodes: it holds this node's
// messages until the node's next barrier, after which another node's inbox
// may overwrite it.
type Ctx struct {
	id graph.NodeID
	g  *graph.Graph
	// run is the run's state; shard is the shard whose driver resumes this
	// node and files it when it sleeps.
	run   *runState
	shard *shard
	// rng is the node's pooled generator; rngSeeded reports whether it is
	// seeded for the current run (Rand seeds it on first use).
	rng       *rand.Rand
	rngSeeded bool
	// arcs is the node's adjacency materialized once from the graph's CSR
	// arrays at run setup (a sub-slice of the run's shared arc arena).
	arcs []graph.Arc
	// lo is the global CSR index of this node's first arc: arc k of this node
	// is global arc lo+k, and mailbox slot lo+k holds the message arriving
	// from neighbor k.
	lo     int32
	round  int
	idBits int
	model  Model
	// crashAt is the node's scheduled crash round (noCrash when the fault
	// plan never crashes it): the node behaves normally through round
	// crashAt-1 and never sends, receives or steps from round crashAt on.
	crashAt int32

	// Barrier state. wakeAt is the wake round of a sleep or idle arrival.
	arrival int32
	wakeAt  int32
	err     error
	// The node runs as a coroutine: next resumes it until its next barrier
	// arrival or its end, yield (called by arrive) hands control back to the
	// driver, and stop ends it.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// Send accounting since the last delivery barrier, flushed into the
	// shard's totals when that barrier's round is retired.
	pMsgs int64
	pBits int64
	pMax  int
}

// ID returns the vertex this Ctx is bound to.
func (c *Ctx) ID() graph.NodeID { return c.id }

// Round returns the number of completed barriers (the current round index).
func (c *Ctx) Round() int { return c.round }

// N returns the number of nodes in the network. CONGEST assumes nodes know a
// polynomially tight bound on n; we expose the exact value.
func (c *Ctx) N() int { return c.g.NumNodes() }

// IDBits returns BitsForID(N()) — the run-wide ID encoding width, computed
// once per run so payload size accounting need not recompute it per message.
func (c *Ctx) IDBits() int { return c.idBits }

// Neighbors returns the adjacency list of this node (arcs carry the global
// EdgeID of each incident edge). The slice is owned by the Ctx. The index of
// an arc in this slice is the arc index accepted by SendArc and InboxArc.
func (c *Ctx) Neighbors() []graph.Arc { return c.arcs }

// Degree returns the node's degree.
func (c *Ctx) Degree() int { return len(c.arcs) }

// ArcIndex returns the index of the arc leading to neighbor `to`, or -1 if
// `to` is not a neighbor. It is a linear scan — intended for protocols to
// resolve a NodeID to an arc index once and then use the SendArc/InboxArc
// fast paths.
func (c *Ctx) ArcIndex(to graph.NodeID) int {
	for i, a := range c.arcs {
		if a.To == to {
			return i
		}
	}
	return -1
}

// Rand returns the node-local deterministic random source: a pure function
// of (Options.Seed, node ID), seeded at the run's first call, so a run that
// never draws never pays for seeding.
func (c *Ctx) Rand() *rand.Rand {
	if !c.rngSeeded {
		seed := mix(c.run.opts.Seed, int64(c.id))
		if c.rng == nil {
			c.rng = rand.New(rand.NewSource(seed))
		} else {
			// Seed also discards the bytes Read buffered in an earlier run.
			c.rng.Seed(seed)
		}
		c.rngSeeded = true
	}
	return c.rng
}

// down reports whether the node has reached its crash round. A fault-free
// node never has (crashAt is the noCrash sentinel).
func (c *Ctx) down() bool { return int32(c.round) >= c.crashAt }

// EdgeWeight returns the weight of edge id (edge weights are part of a
// node's local input for its incident edges).
func (c *Ctx) EdgeWeight(id graph.EdgeID) int64 { return c.g.Edge(id).W }

// Send buffers a message to neighbor `to` for delivery at the next barrier.
// It reports a model violation if `to` is not a neighbor, if a message was
// already buffered to `to` this round, or if the payload exceeds a strict bit
// budget. Violations abort the run (they are programmer errors in protocol
// code, surfaced as errors from Run). Protocols on a hot path should resolve
// the neighbor once with ArcIndex and use SendArc instead.
func (c *Ctx) Send(to graph.NodeID, p Payload) {
	if c.down() {
		return // crashed: a dead node's sends are lost (and can't violate)
	}
	idx := c.ArcIndex(to)
	if idx == -1 {
		c.fail(fmt.Errorf("%w: node %d sent to non-neighbor %d in round %d", ErrModelViolation, c.id, to, c.round))
	}
	c.SendArc(idx, p)
}

// SendArc buffers a message to the neighbor at arc index k (the index into
// Neighbors()) for delivery at the next barrier — the O(1) fast path behind
// Send, enforcing the same per-edge-direction and message-size budgets.
func (c *Ctx) SendArc(k int, p Payload) {
	if c.model != ModelCongest {
		c.wrongModel("SendArc", "")
	}
	if c.down() {
		return // crashed: a dead node's sends are lost (and can't violate)
	}
	if uint(k) >= uint(len(c.arcs)) {
		c.badArc("sent on", k)
	}
	rs, d := c.run, c.shard
	stamp := int32(c.round) + 1
	s := rs.rev[c.lo+int32(k)]
	b := p.Bits()
	if limit := rs.opts.MaxMessageBits; limit > 0 && b > limit {
		c.oversized("sent", b)
	}
	if !d.owns(s) {
		c.relay(k, s, stamp, p)
	} else {
		sl := &rs.slots[stamp&1][s]
		// The first send of the node's round cannot repeat an arc, so only
		// later sends read the stamp.
		if c.pMsgs != 0 && sl.stamp == stamp {
			c.sentTwice(k)
		}
		sl.stamp = stamp
		// The lossy network still charges the sender: the message consumed
		// its per-edge budget and counts toward Stats, it just never surfaces
		// in an inbox (every read treats a stamped nil payload as no message)
		// and never wakes a sleeping receiver.
		if rs.dropThresh != 0 && dropped(rs.dropThresh, rs.faultSeed, stamp, s) {
			sl.pay = nil
		} else {
			sl.pay = p
			if len(d.heap.items) != 0 {
				d.markMail(c.arcs[k].To)
			}
		}
	}
	c.pMsgs++
	c.pBits += int64(b)
	if b > c.pMax {
		c.pMax = b
	}
}

// SendAll sends the same payload to every neighbor this round: a single
// pass over the node's reverse-arc slice with the budget check, the sleeper
// check and the double-send rule hoisted out of the loop — the
// broadcast-flood fast path.
func (c *Ctx) SendAll(p Payload) {
	if c.model != ModelCongest {
		c.wrongModel("SendAll", "")
	}
	if c.down() {
		return // crashed: a dead node's sends are lost (and can't violate)
	}
	deg := len(c.arcs)
	if deg == 0 {
		return
	}
	rs, d := c.run, c.shard
	stamp := int32(c.round) + 1
	box := rs.slots[stamp&1]
	b := p.Bits()
	if limit := rs.opts.MaxMessageBits; limit > 0 && b > limit {
		c.oversized("sent", b)
	}
	// As in SendArc, the node's first send of the round skips the reads.
	thresh, mark, check := rs.dropThresh, len(d.heap.items) != 0, c.pMsgs != 0
	for i, s := range rs.rev[c.lo : c.lo+int32(deg)] {
		if !d.owns(s) {
			c.relay(i, s, stamp, p)
			continue
		}
		sl := &box[s]
		if check && sl.stamp == stamp {
			c.sentTwice(i)
		}
		sl.stamp = stamp
		if thresh != 0 && dropped(thresh, rs.faultSeed, stamp, s) {
			sl.pay = nil
			continue
		}
		sl.pay = p
		if mark {
			d.markMail(c.arcs[i].To)
		}
	}
	c.pMsgs += int64(deg)
	c.pBits += int64(deg) * int64(b)
	if b > c.pMax {
		c.pMax = b
	}
}

// Model violations, each failing the node. They are kept out of the hot
// paths that detect them, so those stay small: every node's coroutine starts
// on a minimal stack, and a deeper send or barrier path makes every node of
// every run grow it.

// wrongModel fails the node for calling op under the other communication
// model; hint, if any, follows the round.
func (c *Ctx) wrongModel(op, hint string) {
	model := "ModelRadio"
	if c.model == ModelCongest {
		model = "ModelCongest"
	}
	c.fail(fmt.Errorf("%w: node %d called %s under %s in round %d%s", ErrModelViolation, c.id, op, model, c.round, hint))
}

// badArc fails the node for using arc index k, which it does not have.
func (c *Ctx) badArc(op string, k int) {
	c.fail(fmt.Errorf("%w: node %d %s invalid arc index %d (degree %d) in round %d", ErrModelViolation, c.id, op, k, len(c.arcs), c.round))
}

// oversized fails the node for a b-bit payload over the strict budget.
func (c *Ctx) oversized(verb string, b int) {
	c.fail(fmt.Errorf("%w: node %d %s %d-bit message (budget %d) in round %d", ErrModelViolation, c.id, verb, b, c.run.opts.MaxMessageBits, c.round))
}

// sentTwice fails the node for a second send on arc k in one round.
func (c *Ctx) sentTwice(k int) {
	c.fail(fmt.Errorf("%w: node %d sent twice to neighbor %d in round %d", ErrModelViolation, c.id, c.arcs[k].To, c.round))
}

// StepRound is the synchronous barrier: it ends the node's current round,
// waits until every live node has done the same, and returns the messages
// neighbors sent this round (sorted by sender ID). Message delivery follows
// the CONGEST convention — a message sent in round r is available at the
// start of round r+1. The returned slice is the shard's inbox buffer: it is
// valid only until the node's next barrier (Step, StepRound, StepUntil or
// Idle), after which other nodes' inboxes overwrite it.
func (c *Ctx) StepRound() []Message {
	if c.model != ModelCongest {
		c.wrongModel("StepRound", " (use Step + RadioRecv)")
	}
	c.maybeCrash()
	c.stepBarrier()
	return c.gather()
}

// Step is the barrier alone: like StepRound but without materializing the
// inbox, for protocols that read specific arcs through InboxArc instead.
func (c *Ctx) Step() {
	c.maybeCrash()
	c.stepBarrier()
}

// StepUntil is the barrier for a node with nothing to do until a message
// arrives or the clock reaches round: it performs at least one barrier, keeps
// stepping until the node has a readable message or Round() >= round, and
// returns that round's inbox under StepRound's ordering and reuse rules: the
// slice is valid until the node's next barrier.
// StepUntil(r) with r <= Round()+1 is StepRound; math.MaxInt waits for mail
// alone (the watchdog still bounds it). The node sleeps outside the barrier
// meanwhile, so the skipped rounds cost it nothing; the rounds, messages and
// inbox it sees are those of stepping.
func (c *Ctx) StepUntil(round int) []Message {
	if c.model != ModelCongest {
		c.wrongModel("StepUntil", " (use Step + RadioRecv)")
	}
	for {
		c.maybeCrash()
		c.sleepBarrier(round, true)
		if c.round >= round || c.run.hasMail(c, int32(c.round)) {
			return c.gather()
		}
	}
}

// maybeCrash enforces the node's scheduled crash at the barrier ending round
// crashAt-1: the node arrives as a finished node — its buffered sends from
// the completed round are still delivered, matching the "final sends"
// convention — and its Proc unwinds without ever entering round crashAt. On
// the fault-free path crashAt is the noCrash sentinel and the check is one
// never-taken branch.
func (c *Ctx) maybeCrash() {
	if int32(c.round)+1 < c.crashAt {
		return
	}
	c.arrive(arriveDone)
	panic(errCrashed)
}

// InboxArc returns the message the neighbor at arc index k sent this round,
// if any. It reads the mailbox slot directly — no scan, no allocation — and
// is valid between a Step (or StepRound) and the node's next barrier. An
// out-of-range index is a model violation, mirroring SendArc.
func (c *Ctx) InboxArc(k int) (Payload, bool) {
	if c.model != ModelCongest {
		c.wrongModel("InboxArc", "")
	}
	if c.down() {
		return nil, false // crashed: a dead node's slots stop delivering
	}
	if uint(k) >= uint(len(c.arcs)) {
		c.badArc("read", k)
	}
	stamp := int32(c.round)
	if stamp == 0 {
		return nil, false
	}
	sl := &c.run.slots[stamp&1][c.lo+int32(k)]
	if sl.stamp != stamp {
		return nil, false
	}
	return sl.pay, sl.pay != nil
}

// Idle advances the node through k barriers, discarding anything received.
// Use it only where the protocol guarantees no meaningful traffic arrives.
// The node sleeps through them: messages do not wake it, and those that
// arrive meanwhile are never read.
func (c *Ctx) Idle(k int) {
	target := c.round + min(k, c.run.opts.MaxRounds+1)
	for c.round < target {
		c.maybeCrash()
		c.sleepBarrier(target, false)
	}
}

// stepBarrier joins the round barrier as a stepping node and advances the
// local round clock once released.
func (c *Ctx) stepBarrier() {
	c.arrive(arriveStep)
	c.round++
}

// sleepBarrier ends the round like stepBarrier, but a node whose wake round
// is two or more rounds ahead leaves the awake set: it is resumed at its
// wake round or, with mail set, at the first round it has a readable
// message, whichever comes first. The wake round is clamped to MaxRounds+1
// (the watchdog's round) and to the round before a pending scheduled crash,
// so maybeCrash still fires at the crash barrier. Radio runs step once.
func (c *Ctx) sleepBarrier(target int, mail bool) {
	limit := c.run.opts.MaxRounds + 1
	if crash := int(c.crashAt) - 1; c.round < crash && crash < limit {
		limit = crash
	}
	target = min(target, limit)
	if c.model != ModelCongest || target < c.round+2 {
		c.stepBarrier()
		return
	}
	c.wakeAt = int32(target)
	if mail {
		c.arrive(arriveSleep)
	} else {
		c.arrive(arriveIdle)
	}
	// A sleeper may have skipped rounds: the run's counter is its clock.
	c.round = c.run.rounds
}

// gather materializes this round's inbox from the mailbox slots, scanning
// them in ascending sender ID (the graph's precomputed by-neighbor order) so
// inbox order is deterministic without sorting. A stamped nil payload is a
// dropped message. The inbox is written into the shard's buffer: the
// shard's nodes run one at a time, and each may read its inbox only until
// its next barrier.
func (c *Ctx) gather() []Message {
	rs, d := c.run, c.shard
	stamp := int32(c.round)
	box := rs.slots[stamp&1]
	d.inbox = d.inbox[:0]
	lo := c.lo
	for _, j := range rs.order[lo : lo+int32(len(c.arcs))] {
		if sl := &box[lo+int32(j)]; sl.stamp == stamp && sl.pay != nil {
			d.inbox = append(d.inbox, Message{From: c.arcs[j].To, Payload: sl.pay})
		}
	}
	if rs.adversary == AdversaryRotate {
		scrambleInbox(rs.faultSeed, c.round, c.id, d.inbox)
	}
	return d.inbox
}

// fail aborts the run with err, unwinding this node.
func (c *Ctx) fail(err error) {
	c.err = err
	c.arrive(arriveFail)
	panic(errAbort)
}

// arrive records this node's barrier arrival. A stepping or sleeping node
// then yields to its driver, which resumes it in a later round or, when the
// run ends without it, stops it so it unwinds; a done or fail arrival
// returns at once, since the node is ending.
func (c *Ctx) arrive(kind int32) {
	c.arrival = kind
	if kind < arriveDone && !c.yield(struct{}{}) {
		panic(errAbort)
	}
}

// nodeMain is the per-node wrapper: it converts proc errors and panics into
// fail arrivals and normal returns into done arrivals. An engine-initiated
// unwind (abort or crash) has already arrived.
func nodeMain(c *Ctx, proc Proc) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if err, ok := r.(error); ok {
			if errors.Is(err, errAbort) || errors.Is(err, errCrashed) {
				return
			}
			// Keep the chain inspectable: a transport wrapper panicking a
			// model violation surfaces as errors.Is(err, ErrModelViolation).
			c.err = fmt.Errorf("congest: node %d panicked: %w", c.id, err)
		} else {
			c.err = fmt.Errorf("congest: node %d panicked: %v", c.id, r)
		}
		c.arrive(arriveFail)
	}()
	if err := proc(c); err != nil {
		c.err = fmt.Errorf("congest: node %d: %w", c.id, err)
		c.arrive(arriveFail)
		return
	}
	c.arrive(arriveDone)
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growSlots(s []slot, n int) []slot {
	if cap(s) < n {
		return make([]slot, n)
	}
	return s[:n]
}

// mix derives a node-local seed from the run seed; splitmix64 finalizer.
func mix(seed, id int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// BitsForID returns the number of bits this repository charges for encoding
// a value in [0, n): ceil(log2(n)), at least 1. It is the building block for
// honest Payload.Bits implementations.
func BitsForID(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
