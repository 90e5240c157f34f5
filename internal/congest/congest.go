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
// node ID, incarnation), so a run's outcome is independent of the order in
// which nodes run within a round.
//
// # Engine internals
//
// There are two engines, and every seeded output is byte-identical on both.
// The default engine (EngineEventLoop) allocates nothing in the steady
// state. It exploits the model invariant that each edge-direction carries at
// most one message per round: every node owns a fixed mailbox of degree(v)
// slots indexed by in-arc, laid out in one flat arena of 2m slots mirroring
// the graph's CSR arc arrays. Send writes straight into the receiver's slot
// through the graph's precomputed reverse-arc permutation — no queues, no
// per-round inbox slices — and slot occupancy is an epoch stamp (the round
// number), so nothing is ever cleared between rounds. Two stamp/payload
// arenas alternate by round parity so round-r readers never share an array
// with round-r+1 writers. Every node's Proc runs in a coroutine (iter.Pull;
// race-detector builds use a goroutine hand-off, see coro_race.go), and one
// driver loop on the caller's goroutine runs the round: it resumes the awake
// nodes one at a time in ascending ID order, each until its next barrier
// arrival, then retires the round itself (round count, watchdog, cost
// accounting). There is no countdown, no parking and no scheduler wake-up; a
// barrier is a coroutine switch.
//
// Only awake nodes are resumed. A node with nothing to do until a message or
// a known round (Ctx.StepUntil, Ctx.Idle, a crash-recovery downtime) arrives
// as a sleeper: the driver files it in an indexed min-heap keyed by (wake
// round, node ID) and leaves it suspended. A send to a sleeping receiver
// marks it — a per-node flag, then a slot in a preallocated wake list — so
// the driver resumes exactly the nodes that stepped, got mail or are due. A
// node falling asleep in the round being retired may have missed marks from
// senders that ran before it, so the driver scans its slots for that round's
// stamp instead. When no node is awake, the driver jumps the round counter
// to the earliest wake round; the skipped rounds count in Stats.Rounds and
// against the watchdog exactly as stepped ones would. A run therefore pays
// for the node-rounds that do work, not for every live node in every round.
//
// Because nodes run one at a time, a Proc may interact with other nodes only
// through the engine: a Proc that blocks on another node's channel or mutex
// deadlocks the run. A runtime.Goexit inside a Proc (for example t.FailNow)
// propagates to Run's caller after the other nodes are unwound.
//
// The multi-core engine (EngineSharded, sharded.go) keeps the same mailbox
// discipline but cuts the arena into worker shards retired in parallel.
// Both engines embed one runState — the node table, the radio and fault
// state and the run's outcome — which every Ctx points at, and both pool
// their state across runs, so a harness performing thousands of simulations
// reuses one arena.
package congest

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

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

// Proc is the per-node protocol procedure, run with ctx bound to one vertex;
// returning ends the node's participation (any not-yet-delivered sends are
// still delivered at the next barrier). Returning a non-nil error aborts the
// whole run. On EngineEventLoop the nodes of a run take turns on one
// goroutine, so a Proc must not block on anything another node of the same
// run would release; EngineSharded runs every node in its own goroutine.
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
	// Shards selects the worker-shard count of EngineSharded (ignored by
	// EngineEventLoop): how many contiguous arc-balanced vertex ranges the
	// mailbox arena is cut into, each retired in parallel at the barrier.
	// 0 uses the process-wide default (SetDefaultShards), itself defaulting
	// to GOMAXPROCS; the count is clamped to the node count. The seeded
	// output is byte-identical at every shard count — shards change only
	// wall-clock. Negative is an error.
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

// Engine selects a simulation engine implementation.
type Engine int32

const (
	// EngineEventLoop is the default engine: arc-slot mailbox arenas, node
	// coroutines resumed by one driver loop, and pooled run state — zero
	// allocations per round in the steady state.
	EngineEventLoop Engine = iota
	// EngineChannel named the channel-coordinator engine this repository
	// used before the arena rewrite. That engine has been removed; RunOn
	// returns an error for it.
	//
	// Deprecated: use EngineEventLoop or EngineSharded.
	EngineChannel
	// EngineSharded is the multi-core engine: the event-loop engine's
	// arc-slot mailbox discipline with the CSR cut into P contiguous
	// arc-balanced shards (partition.ShardBounds), per-shard mailbox arenas,
	// an epoch-stamped cross-shard relay for boundary arcs and a two-level
	// barrier retired in parallel (see sharded.go). Seeded outputs are
	// byte-identical to the event-loop engine at every shard count
	// (Options.Shards); only wall-clock changes.
	EngineSharded
)

// defaultEngine is the engine Run dispatches to; differential tests and
// benchmarks switch it via SetEngine.
var defaultEngine atomic.Int32

// SetEngine replaces the engine used by Run and returns the previous one.
// It must not be called while simulations are in flight.
func SetEngine(e Engine) Engine {
	return Engine(defaultEngine.Swap(int32(e)))
}

// CurrentEngine returns the engine Run currently dispatches to.
func CurrentEngine() Engine { return Engine(defaultEngine.Load()) }

// Run simulates proc on every vertex of g and returns the run's cost. It
// returns an error if any node's Proc errs, violates the model, panics, or if
// the watchdog bound is reached; the returned Stats are valid (partial) in
// either case.
func Run(g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	return RunOn(CurrentEngine(), g, proc, opts)
}

// RunOn is Run on an explicitly chosen engine, regardless of the default.
// Any engine other than EngineEventLoop and EngineSharded is an error, and
// no node starts.
func RunOn(e Engine, g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	if e != EngineEventLoop && e != EngineSharded {
		return Stats{}, fmt.Errorf("congest: unknown engine %d", e)
	}
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
	if e == EngineSharded && opts.Shards < 0 {
		return Stats{}, fmt.Errorf("congest: negative Options.Shards %d", opts.Shards)
	}
	if g.NumNodes() == 0 {
		return Stats{}, nil
	}
	if e == EngineSharded {
		return runSharded(g, proc, opts)
	}
	return runEventLoop(g, proc, opts)
}

// Barrier arrival kinds recorded by a node as it reaches the barrier.
// arriveSleep and arriveIdle are stepping arrivals that leave the awake set
// until the node's wake round (event-loop engine only); a sleeping node also
// wakes at its first readable message, an idle one does not. Kinds below
// arriveDone keep the node running.
const (
	arriveStep int32 = iota + 1
	arriveSleep
	arriveIdle
	arriveDone
	arriveFail
)

// Ctx is a node's handle to the simulation: its identity, neighborhood,
// send fast paths and the round barrier. A Ctx must only be used from its
// own Proc.
type Ctx struct {
	id graph.NodeID
	g  *graph.Graph
	// run is the state both engines share. Exactly one of loop and sh is
	// set: it is the engine-specific state the node runs under.
	run  *runState
	loop *loopRun    // event-loop engine state (nil under EngineSharded)
	sh   *shardedRun // sharded engine state (nil under EngineEventLoop)
	// shard is the worker shard owning this node (sharded engine only).
	shard *shard
	// rng is the node's pooled generator; rngSeeded reports whether it is
	// seeded for the current incarnation (Rand seeds it on first use).
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
	// crashAt-1 and never sends, receives or steps in rounds
	// [crashAt, rejoinAt). rejoinAt is noCrash for a crash-stop entry; a
	// crash-recovery entry sets it to crashAt+Downtime, the round at which
	// the Proc restarts as incarnation+1 with fresh state.
	crashAt     int32
	rejoinAt    int32
	incarnation int32

	// Barrier state. wakeAt is the wake round of a sleep or idle arrival.
	arrival int32
	wakeAt  int32
	err     error
	inbox   []Message
	// On the event-loop engine the node runs as a coroutine: next resumes it
	// until its next barrier arrival or its end, yield (called by arrive)
	// hands control back to the driver, and stop ends it. On the sharded
	// engine the node has a goroutine and waits at the barrier on park.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	park  chan struct{}

	// Send accounting since the last delivery barrier, flushed into the run
	// totals when that barrier delivers.
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
// of (Options.Seed, node ID, incarnation), seeded at the incarnation's first
// call, so a run that never draws never pays for seeding.
func (c *Ctx) Rand() *rand.Rand {
	if !c.rngSeeded {
		seed := mix(c.run.opts.Seed, int64(c.id))
		if c.incarnation > 0 {
			seed = mix(seed, int64(c.incarnation))
		}
		if c.rng == nil {
			c.rng = rand.New(rand.NewSource(seed))
		} else {
			// Seed also discards the bytes Read buffered in an earlier run
			// or incarnation.
			c.rng.Seed(seed)
		}
		c.rngSeeded = true
	}
	return c.rng
}

// Incarnation reports how many times this node has crash-recovered: 0 for
// the original execution, k for the Proc's k-th restart. A Proc seeing a
// positive incarnation knows its state was wiped by a crash and can run a
// state-sync path against its neighbors (the network never announces the
// rejoin on its own).
func (c *Ctx) Incarnation() int { return int(c.incarnation) }

// down reports whether the node is inside its crash window — from its crash
// round up to (exclusive) its rejoin round. A fault-free node short-circuits
// on the first compare (crashAt is the noCrash sentinel).
func (c *Ctx) down() bool {
	return int32(c.round) >= c.crashAt && int32(c.round) < c.rejoinAt
}

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
		c.fail(fmt.Errorf("%w: node %d called SendArc under ModelRadio in round %d", ErrModelViolation, c.id, c.round))
	}
	if c.down() {
		return // crashed: a dead node's sends are lost (and can't violate)
	}
	if uint(k) >= uint(len(c.arcs)) {
		c.fail(fmt.Errorf("%w: node %d sent on invalid arc index %d (degree %d) in round %d",
			ErrModelViolation, c.id, k, len(c.arcs), c.round))
	}
	if c.sh != nil {
		c.sh.sendArc(c, k, p)
		return
	}
	lr := c.loop
	stamp := int32(c.round) + 1
	buf := stamp & 1
	s := lr.rev[c.lo+int32(k)]
	if lr.stamp[buf][s] == stamp {
		c.fail(fmt.Errorf("%w: node %d sent twice to neighbor %d in round %d", ErrModelViolation, c.id, c.arcs[k].To, c.round))
	}
	b := p.Bits()
	if limit := lr.opts.MaxMessageBits; limit > 0 && b > limit {
		c.fail(fmt.Errorf("%w: node %d sent %d-bit message (budget %d) in round %d", ErrModelViolation, c.id, b, limit, c.round))
	}
	lr.stamp[buf][s] = stamp
	lr.pay[buf][s] = p
	// The lossy network still charges the sender: the message consumed its
	// per-edge budget and counts toward Stats, it just never surfaces in an
	// inbox (the drop mask hides the slot from both read paths) and never
	// wakes a sleeping receiver.
	if lr.dropThresh != 0 && dropped(lr.dropThresh, lr.faultSeed, stamp, s) {
		lr.dropMask[buf][s] = stamp
	} else if len(lr.wakeHeap.items) != 0 {
		lr.markMail(c.arcs[k].To)
	}
	c.pMsgs++
	c.pBits += int64(b)
	if b > c.pMax {
		c.pMax = b
	}
}

// SendAll sends the same payload to every neighbor this round. On the
// event-loop engine it is a single pass over the node's reverse-arc slice
// with the budget checks and the sleeper check hoisted out of the loop — the
// broadcast-flood fast path.
func (c *Ctx) SendAll(p Payload) {
	if c.model != ModelCongest {
		c.fail(fmt.Errorf("%w: node %d called SendAll under ModelRadio in round %d", ErrModelViolation, c.id, c.round))
	}
	if c.down() {
		return // crashed: a dead node's sends are lost (and can't violate)
	}
	if c.sh != nil {
		c.sh.sendAll(c, p)
		return
	}
	deg := len(c.arcs)
	if deg == 0 {
		return
	}
	lr := c.loop
	stamp := int32(c.round) + 1
	buf := stamp & 1
	st, pay := lr.stamp[buf], lr.pay[buf]
	b := p.Bits()
	if limit := lr.opts.MaxMessageBits; limit > 0 && b > limit {
		c.fail(fmt.Errorf("%w: node %d sent %d-bit message (budget %d) in round %d", ErrModelViolation, c.id, b, limit, c.round))
	}
	thresh := lr.dropThresh
	for i, s := range lr.rev[c.lo : c.lo+int32(deg)] {
		if st[s] == stamp {
			c.fail(fmt.Errorf("%w: node %d sent twice to neighbor %d in round %d", ErrModelViolation, c.id, c.arcs[i].To, c.round))
		}
		st[s] = stamp
		pay[s] = p
		if thresh != 0 && dropped(thresh, lr.faultSeed, stamp, s) {
			lr.dropMask[buf][s] = stamp
		}
	}
	if len(lr.wakeHeap.items) != 0 {
		for i, s := range lr.rev[c.lo : c.lo+int32(deg)] {
			if thresh == 0 || lr.dropMask[buf][s] != stamp {
				lr.markMail(c.arcs[i].To)
			}
		}
	}
	c.pMsgs += int64(deg)
	c.pBits += int64(deg) * int64(b)
	if b > c.pMax {
		c.pMax = b
	}
}

// StepRound is the synchronous barrier: it ends the node's current round,
// waits until every live node has done the same, and returns the messages
// neighbors sent this round (sorted by sender ID). Message delivery follows
// the CONGEST convention — a message sent in round r is available at the
// start of round r+1. The returned slice is reused: it is valid only until
// the node's next Step/StepRound.
func (c *Ctx) StepRound() []Message {
	if c.model != ModelCongest {
		c.fail(fmt.Errorf("%w: node %d called StepRound under ModelRadio in round %d (use Step + RadioRecv)", ErrModelViolation, c.id, c.round))
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
// returns that round's inbox under StepRound's ordering and reuse rules.
// StepUntil(r) with r <= Round()+1 is StepRound; math.MaxInt waits for mail
// alone (the watchdog still bounds it). On the event-loop engine the node
// sleeps outside the barrier meanwhile, so the skipped rounds cost it
// nothing; every other engine steps through them. The outcome is the same.
func (c *Ctx) StepUntil(round int) []Message {
	if c.model != ModelCongest {
		c.fail(fmt.Errorf("%w: node %d called StepUntil under ModelRadio in round %d (use Step + RadioRecv)", ErrModelViolation, c.id, c.round))
	}
	for {
		c.maybeCrash()
		c.sleepBarrier(round, true)
		if c.round >= round || c.hasMail() {
			return c.gather()
		}
	}
}

// hasMail reports whether a readable (undropped) message waits for the node
// this round, without materializing the inbox.
func (c *Ctx) hasMail() bool {
	if c.sh != nil {
		return c.sh.hasMail(c)
	}
	return c.loop.hasMail(c, int32(c.round))
}

// maybeCrash enforces the node's scheduled crash at the barrier ending round
// crashAt-1. A crash-stop node arrives as a finished node — its buffered
// sends from the completed round are still delivered, matching the "final
// sends" convention — and its Proc unwinds without ever entering round
// crashAt. A crash-recovery node instead joins this same barrier as a
// stepping node (so the final sends are delivered identically), sleeps
// through its downtime deaf to mail, and unwinds its Proc at the rejoin
// round for nodeMain to restart. On the fault-free path crashAt is the
// noCrash sentinel and the check is one never-taken branch; a rejoined node
// additionally fails the rejoinAt compare so it can never crash twice.
func (c *Ctx) maybeCrash() {
	if int32(c.round)+1 < c.crashAt || int32(c.round) >= c.rejoinAt {
		return
	}
	if c.rejoinAt == noCrash {
		c.arrive(arriveDone)
		panic(errCrashed)
	}
	for int32(c.round) < c.rejoinAt {
		c.sleepBarrier(int(c.rejoinAt), false)
	}
	panic(errCrashedRecover)
}

// InboxArc returns the message the neighbor at arc index k sent this round,
// if any. It reads the mailbox slot directly — no scan, no allocation — and
// is valid between a Step (or StepRound) and the node's next barrier. An
// out-of-range index is a model violation, mirroring SendArc.
func (c *Ctx) InboxArc(k int) (Payload, bool) {
	if c.model != ModelCongest {
		c.fail(fmt.Errorf("%w: node %d called InboxArc under ModelRadio in round %d", ErrModelViolation, c.id, c.round))
	}
	if c.down() {
		return nil, false // crashed: a dead node's slots stop delivering
	}
	if uint(k) >= uint(len(c.arcs)) {
		c.fail(fmt.Errorf("%w: node %d read invalid arc index %d (degree %d) in round %d",
			ErrModelViolation, c.id, k, len(c.arcs), c.round))
	}
	if c.sh != nil {
		return c.sh.inboxArc(c, k)
	}
	stamp := int32(c.round)
	if stamp == 0 {
		return nil, false
	}
	lr := c.loop
	buf := stamp & 1
	s := c.lo + int32(k)
	if lr.stamp[buf][s] != stamp {
		return nil, false
	}
	if lr.dropThresh != 0 && lr.dropMask[buf][s] == stamp {
		return nil, false
	}
	return lr.pay[buf][s], true
}

// Idle advances the node through k barriers, discarding anything received.
// Use it only where the protocol guarantees no meaningful traffic arrives.
// On the event-loop engine the node sleeps through them: messages do not
// wake it, and those that arrive meanwhile are never read.
func (c *Ctx) Idle(k int) {
	target := c.round + min(k, c.run.opts.MaxRounds+1)
	for c.round < target {
		c.maybeCrash()
		c.sleepBarrier(target, false)
	}
}

// stepBarrier joins the countdown barrier as a stepping node and advances
// the local round clock once released.
func (c *Ctx) stepBarrier() {
	c.arrive(arriveStep)
	c.round++
}

// sleepBarrier ends the round like stepBarrier, but on the event-loop engine
// a node whose wake round is two or more rounds ahead leaves the countdown:
// it is released at its wake round or, with mail set, at the first round it
// has a readable message, whichever comes first. The wake round is clamped
// to MaxRounds+1 (the watchdog's round) and to the round before a pending
// scheduled crash, so maybeCrash still fires at the crash barrier. Radio runs
// and the sharded engine step once.
func (c *Ctx) sleepBarrier(target int, mail bool) {
	limit := c.run.opts.MaxRounds + 1
	if crash := int(c.crashAt) - 1; c.round < crash && crash < limit {
		limit = crash
	}
	target = min(target, limit)
	if c.sh != nil || c.model != ModelCongest || target < c.round+2 {
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
	c.round = c.loop.rounds
}

// gather materializes this round's inbox from the mailbox slots, scanning
// them in ascending sender ID (the graph's precomputed by-neighbor order) so
// inbox order is deterministic without sorting. The buffer is reused.
func (c *Ctx) gather() []Message {
	if c.sh != nil {
		return c.sh.gather(c)
	}
	lr := c.loop
	stamp := int32(c.round)
	buf := stamp & 1
	st := lr.stamp[buf]
	pay := lr.pay[buf]
	c.inbox = c.inbox[:0]
	lo := c.lo
	if thresh := lr.dropThresh; thresh != 0 {
		dm := lr.dropMask[buf]
		for _, j := range lr.order[lo : lo+int32(len(c.arcs))] {
			if s := lo + int32(j); st[s] == stamp && dm[s] != stamp {
				c.inbox = append(c.inbox, Message{From: c.arcs[j].To, Payload: pay[s]})
			}
		}
	} else {
		for _, j := range lr.order[lo : lo+int32(len(c.arcs))] {
			if s := lo + int32(j); st[s] == stamp {
				c.inbox = append(c.inbox, Message{From: c.arcs[j].To, Payload: pay[s]})
			}
		}
	}
	if lr.adversary == AdversaryRotate {
		scrambleInbox(lr.faultSeed, c.round, c.id, c.inbox)
	}
	return c.inbox
}

// fail aborts the run with err, unwinding this node.
func (c *Ctx) fail(err error) {
	c.err = err
	c.arrive(arriveFail)
	panic(errAbort)
}

// arrive records this node's barrier arrival. On the event-loop engine a
// stepping or sleeping node then yields to the driver, which resumes it in a
// later round or, when the run ends without it, stops it so it unwinds; a
// done or fail arrival returns at once, since the node is ending.
func (c *Ctx) arrive(kind int32) {
	c.arrival = kind
	if c.sh != nil {
		c.sh.arrive(c, kind)
		return
	}
	if kind < arriveDone && !c.yield(struct{}{}) {
		panic(errAbort)
	}
}

// runState is the per-run state both engines share: the graph and options,
// the node table, the radio arenas, the fault plan's hot fields and the
// run's outcome. loopRun and shardedRun each embed one, and every Ctx of
// the run points at it.
type runState struct {
	g    *graph.Graph
	opts Options
	// rev and order alias the graph's derived arc views (see graph.RevArcs
	// and graph.ArcsByNeighborID).
	rev   []int32
	order []int32
	// nodes is the node table (length = capacity high-water mark; the first
	// NumNodes entries belong to the current run).
	nodes []Ctx
	// arcArena backs every node's Neighbors() slice, laid out exactly like
	// the CSR arc arrays.
	arcArena []graph.Arc
	// txStamp/txPay are the radio-model transmission arenas (one slot per
	// node, parity-doubled and epoch-stamped like the mailbox arenas; see
	// radio.go). They are grown only for ModelRadio runs. A transmission slot
	// has one writer, so the sharded engine keeps them global too.
	txStamp [2][]int32
	txPay   [2][]Payload
	// Fault-layer state (see fault.go): fault-free runs see dropThresh == 0
	// and skip every drop check.
	dropThresh uint64
	faultSeed  int64
	adversary  Adversary
	// err/rounds are written when a round is retired and read by nodes
	// after their release from the barrier.
	err    error
	rounds int
}

// setup binds rs to a run of opts on g: it resets the node table, applies
// the fault plan's crash schedule and sizes the radio arenas. All buffers
// grow to high-water marks and are reused across runs; freshly grown arrays
// are zero and released ones were scrubbed by release, so stamps start
// unoccupied without a per-run clear. The engine binds each Ctx to its own
// state afterwards.
func (rs *runState) setup(g *graph.Graph, opts Options) {
	n := g.NumNodes()
	numArcs := int(g.ArcOffset(n))
	rs.g, rs.opts = g, opts
	rs.rev, rs.order = g.RevArcs(), g.ArcsByNeighborID()
	if opts.Model == ModelRadio {
		for i := range rs.txStamp {
			rs.txStamp[i] = growInt32(rs.txStamp[i], n)
			rs.txPay[i] = growPayload(rs.txPay[i], n)
		}
	}
	plan := opts.Faults
	rs.dropThresh = plan.dropThreshold()
	rs.faultSeed, rs.adversary = 0, AdversaryNone
	if plan != nil {
		rs.faultSeed, rs.adversary = plan.Seed, plan.Adversary
	}
	if cap(rs.arcArena) < numArcs {
		rs.arcArena = make([]graph.Arc, 0, numArcs)
	}
	arena := rs.arcArena[:0]
	for v := 0; v < n; v++ {
		arena = g.AppendArcs(arena, v)
	}
	rs.arcArena = arena
	if len(rs.nodes) < n {
		nodes := make([]Ctx, n)
		copy(nodes, rs.nodes)
		rs.nodes = nodes
	}
	idBits := BitsForID(n)
	for v := 0; v < n; v++ {
		nd := &rs.nodes[v]
		nd.id = v
		nd.g = g
		nd.run = rs
		lo, hi := g.ArcOffset(v), g.ArcOffset(v+1)
		nd.arcs = arena[lo:hi:hi]
		nd.lo = lo
		nd.round = 0
		nd.idBits = idBits
		nd.model = opts.Model
		nd.crashAt = noCrash
		nd.rejoinAt = noCrash
		nd.incarnation = 0
		nd.rngSeeded = false
		nd.arrival = 0
		nd.err = nil
		nd.inbox = nd.inbox[:0]
		nd.pMsgs, nd.pBits, nd.pMax = 0, 0, 0
	}
	if plan != nil {
		for _, cr := range plan.Crashes {
			// The earliest crash round wins; among equal rounds the first
			// entry wins (its Downtime rides along).
			if nd := &rs.nodes[cr.Node]; int32(cr.Round) < nd.crashAt {
				nd.crashAt = int32(cr.Round)
				nd.rejoinAt = cr.rejoinRound()
			}
		}
	}
	rs.err = nil
	rs.rounds = 0
}

// release scrubs the radio arenas, the node inboxes and every graph and
// payload reference, so pooled state neither resurrects ghost messages nor
// pins a finished run's memory. The engine scrubs its own arenas first.
func (rs *runState) release() {
	if rs.opts.Model == ModelRadio {
		// Only a radio run writes the transmission arenas.
		for i := range rs.txStamp {
			clear(rs.txStamp[i])
			clear(rs.txPay[i])
		}
	}
	n := rs.g.NumNodes()
	for v := 0; v < n; v++ {
		nd := &rs.nodes[v]
		clear(nd.inbox[:cap(nd.inbox)])
		nd.inbox = nd.inbox[:0]
		nd.g = nil
		nd.arcs = nil
		nd.run, nd.loop, nd.sh, nd.shard = nil, nil, nil, nil
	}
	rs.g = nil
	rs.rev, rs.order = nil, nil
	rs.dropThresh = 0
	rs.err = nil
}

// loopRun is the pooled per-run state of the event-loop engine: the mailbox
// arenas, the awake set and the sleep state. Only the driver and the one
// node it is running touch it, so none of it is atomic.
type loopRun struct {
	runState
	// stamp/pay are the mailbox arenas: slot lo(v)+k holds the message
	// in flight to v from its k-th neighbor, stamped with the round at which
	// it becomes readable. Two arenas alternate by round parity so round-r
	// readers never share an array with round-(r+1) writers; stale stamps
	// simply never match, so nothing is cleared between rounds.
	stamp [2][]int32
	pay   [2][]Payload
	// dropMask mirrors the stamp arenas: a slot whose mask equals the
	// current stamp holds a message the lossy network swallowed — charged to
	// the sender, invisible to both read paths. The arenas are grown only for
	// runs whose plan actually drops and are epoch-stamped, so nothing is
	// cleared between rounds.
	dropMask [2][]int32
	// awake lists the nodes the driver resumes this round, ascending;
	// rebuilt in place when the round is retired.
	awake []int32
	// Sleep state. asleep holds the arrival kind (arriveSleep or arriveIdle)
	// of each node filed in wakeHeap and 0 for the rest; the first sender to
	// an arriveSleep node clears it and appends the receiver to wakeList.
	// wakeHeap orders the sleepers by wake round; senders skip the flag while
	// it is empty.
	asleep   []int32
	wakeList []int32
	wakeHeap wakeHeap

	msgs    int64
	bitsSum int64
	maxBits int
}

var loopPool = sync.Pool{New: func() any { return new(loopRun) }}

// retire ends the round once every awake node has arrived, given the
// number of live arrivals (steppers and sleepers) and the first failure:
// it counts the round against the watchdog, flushes the arrivers' send
// accounting when the round delivers, files new sleepers and wakes the
// marked and due ones (jumping the clock when nobody is awake), leaving the
// next round's awake set in lr.awake. It reports false when the run aborts.
func (lr *loopRun) retire(live int, err error) bool {
	if err == nil && live > 0 {
		lr.rounds++
		if lr.rounds > lr.opts.MaxRounds {
			err = fmt.Errorf("%w (%d)", ErrMaxRounds, lr.opts.MaxRounds)
		}
	}
	deliver := err == nil && live > 0
	stamp := int32(lr.rounds)
	w := 0
	for _, id := range lr.awake {
		nd := &lr.nodes[id]
		if deliver {
			// Sends buffered before this barrier are counted even if the
			// sender has finished, and not counted at all when the run
			// aborts or ends at this barrier.
			lr.msgs += nd.pMsgs
			lr.bitsSum += nd.pBits
			if nd.pMax > lr.maxBits {
				lr.maxBits = nd.pMax
			}
			nd.pMsgs, nd.pBits, nd.pMax = 0, 0, 0
		}
		switch nd.arrival {
		case arriveStep:
			lr.awake[w] = id
			w++
		case arriveSleep:
			// Senders that ran before this node in the retired round saw it
			// awake and did not mark it: look for their messages directly.
			if deliver && lr.hasMail(nd, stamp) {
				lr.awake[w] = id
				w++
			} else {
				lr.sleep(nd)
			}
		case arriveIdle:
			lr.sleep(nd)
		}
	}
	lr.awake = lr.awake[:w]
	if err == nil {
		err = lr.wake()
	}
	lr.err = err
	return err == nil
}

// sleep files an arriving sleeper or idler in the wake heap.
func (lr *loopRun) sleep(nd *Ctx) {
	lr.asleep[nd.id] = nd.arrival
	lr.wakeHeap.push(int32(nd.id), nd.wakeAt)
}

// wake moves the sleepers marked by the retired round's senders and those
// due at the new round into the awake set. When nobody is awake it first
// jumps the clock to the earliest wake round, failing with ErrMaxRounds (at
// MaxRounds+1 rounds, as stepping would) when that round is past the
// watchdog bound. The awake set is left in ascending ID order, so the
// driver walks the node table and the mailbox arena in address order.
func (lr *loopRun) wake() error {
	stepped := len(lr.awake)
	for _, id := range lr.wakeList {
		lr.wakeHeap.remove(id)
		lr.rouse(id)
	}
	lr.wakeList = lr.wakeList[:0]
	h := &lr.wakeHeap
	if len(lr.awake) == 0 && len(h.items) > 0 {
		next := int(h.items[0].round)
		if next > lr.opts.MaxRounds {
			lr.rounds = lr.opts.MaxRounds + 1
			return fmt.Errorf("%w (%d)", ErrMaxRounds, lr.opts.MaxRounds)
		}
		lr.rounds = next
	}
	for now := int32(lr.rounds); len(h.items) > 0 && h.items[0].round <= now; {
		id := h.items[0].node
		h.remove(id)
		lr.rouse(id)
	}
	if len(lr.awake) > stepped {
		slices.Sort(lr.awake)
	}
	return nil
}

// rouse clears a woken node's sleep flag (a mail wake's sender already did)
// and adds it to the awake set.
func (lr *loopRun) rouse(id int32) {
	lr.asleep[id] = 0
	lr.awake = append(lr.awake, id)
}

// hasMail reports whether a readable (undropped) message stamped for round
// stamp waits in one of nd's mailbox slots.
func (lr *loopRun) hasMail(nd *Ctx, stamp int32) bool {
	buf := stamp & 1
	lo := nd.lo
	for s := lo; s < lo+int32(len(nd.arcs)); s++ {
		if lr.stamp[buf][s] == stamp && (lr.dropThresh == 0 || lr.dropMask[buf][s] != stamp) {
			return true
		}
	}
	return false
}

// markMail wakes sleeping receiver v for the round a message sent to it
// becomes readable: the first sender to flip its flag files it in the wake
// list. An idler's flag never matches, so mail does not wake it.
func (lr *loopRun) markMail(v graph.NodeID) {
	if lr.asleep[v] == arriveSleep {
		lr.asleep[v] = 0
		lr.wakeList = append(lr.wakeList, int32(v))
	}
}

// wakeHeap is an indexed binary min-heap of sleeping nodes ordered by (wake
// round, node ID); pos[v] is v's index in items while v sleeps. Both arrays
// are sized to the node count when a run starts, so no operation allocates.
type wakeHeap struct {
	items []wakeItem
	pos   []int32
}

type wakeItem struct{ round, node int32 }

func (h *wakeHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	return a.round < b.round || (a.round == b.round && a.node < b.node)
}

func (h *wakeHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].node] = int32(i)
	h.pos[h.items[j].node] = int32(j)
}

func (h *wakeHeap) push(node, round int32) {
	h.items = append(h.items, wakeItem{round: round, node: node})
	h.pos[node] = int32(len(h.items) - 1)
	h.up(len(h.items) - 1)
}

// remove deletes node v, which must be in the heap.
func (h *wakeHeap) remove(v int32) {
	i, last := int(h.pos[v]), len(h.items)-1
	if i != last {
		h.swap(i, last)
	}
	h.items = h.items[:last]
	if i != last {
		h.down(i)
		h.up(i)
	}
}

func (h *wakeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *wakeHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h.items) {
			return
		}
		if r := m + 1; r < len(h.items) && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// runEventLoop drives one simulation on the arena engine. It starts every
// node as a coroutine running nodeMain, then per round resumes the awake
// nodes in ascending ID order, each until its next barrier arrival or its
// end, and retires the round. On abort releaseLoop stops every suspended
// node, sleepers included, so each unwinds and its coroutine ends before
// Run returns.
func runEventLoop(g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	lr := acquireLoop(g, opts)
	defer releaseLoop(lr)
	for v := 0; v < g.NumNodes(); v++ {
		nd := &lr.nodes[v]
		nd.loop = lr
		lr.awake[v] = int32(v)
		nd.next, nd.stop = pull(func(yield func(struct{}) bool) {
			nd.yield = yield
			nodeMain(nd, proc)
		})
	}
	for len(lr.awake) > 0 {
		live := len(lr.wakeHeap.items) // sleepers are live steppers
		var err error
		for _, id := range lr.awake {
			nd := &lr.nodes[id]
			nd.next()
			if nd.arrival < arriveDone {
				live++
			} else if nd.arrival == arriveFail && err == nil {
				err = nd.err // the lowest failing node ID wins
			}
		}
		if !lr.retire(live, err) {
			break
		}
	}
	return Stats{Rounds: lr.rounds, Messages: lr.msgs, TotalBits: lr.bitsSum, MaxMessageBits: lr.maxBits}, lr.err
}

// nodeMain is the per-node wrapper: it converts proc errors and panics into
// fail arrivals and normal returns into done arrivals. After a crash with
// scheduled recovery it restarts proc as a fresh incarnation: Round() at the
// rejoin round, Incarnation() incremented and the random source due for
// reseeding as a pure function of (Options.Seed, node ID, incarnation), so a
// restarted node's behavior does not depend on how many random draws its
// previous life consumed.
func nodeMain(c *Ctx, proc Proc) {
	for runProcOnce(c, proc) {
		c.incarnation++
		c.rngSeeded = false
	}
}

// runProcOnce runs one incarnation of proc, classifying its exit: normal
// return and error/panic arrivals end the node (false); a crash with a
// scheduled recovery, unwound at the rejoin round, asks nodeMain to restart
// it (true).
func runProcOnce(c *Ctx, proc Proc) (restart bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if err, ok := r.(error); ok {
			switch {
			case errors.Is(err, errAbort), errors.Is(err, errCrashed):
				return // engine-initiated unwind (abort or crash-stop)
			case errors.Is(err, errCrashedRecover):
				restart = true
				return
			}
		}
		if err, ok := r.(error); ok {
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
		return false
	}
	c.arrive(arriveDone)
	return false
}

// acquireLoop takes a loopRun from the pool and sizes/resets it for g.
func acquireLoop(g *graph.Graph, opts Options) *loopRun {
	lr := loopPool.Get().(*loopRun)
	lr.setup(g, opts)
	n := g.NumNodes()
	numArcs := int(g.ArcOffset(n))
	for i := range lr.stamp {
		lr.stamp[i] = growInt32(lr.stamp[i], numArcs)
		lr.pay[i] = growPayload(lr.pay[i], numArcs)
	}
	if lr.dropThresh != 0 {
		for i := range lr.dropMask {
			lr.dropMask[i] = growInt32(lr.dropMask[i], numArcs)
		}
	}
	lr.awake = growInt32(lr.awake, n)
	lr.wakeList = growInt32(lr.wakeList, n)[:0]
	lr.wakeHeap.pos = growInt32(lr.wakeHeap.pos, n)
	if cap(lr.wakeHeap.items) < n {
		lr.wakeHeap.items = make([]wakeItem, 0, n)
	}
	lr.wakeHeap.items = lr.wakeHeap.items[:0]
	lr.asleep = growInt32(lr.asleep, n)
	clear(lr.asleep)
	lr.msgs, lr.bitsSum, lr.maxBits = 0, 0, 0
	return lr
}

// releaseLoop stops every coroutine still suspended — after an abort or a
// Proc's runtime.Goexit — so it unwinds from its barrier, scrubs the mailbox
// arenas and the shared state (see runState.release) and returns lr to the
// pool.
func releaseLoop(lr *loopRun) {
	for v := 0; v < lr.g.NumNodes(); v++ {
		nd := &lr.nodes[v]
		nd.stop()
		nd.next, nd.stop, nd.yield = nil, nil, nil
	}
	for i := range lr.stamp {
		clear(lr.stamp[i])
		clear(lr.pay[i])
	}
	if lr.dropThresh != 0 {
		// Only a lossy run writes drop-mask stamps; scrub them so a pooled
		// arena cannot shadow a same-round slot of a later lossy run.
		for i := range lr.dropMask {
			clear(lr.dropMask[i])
		}
	}
	lr.release()
	loopPool.Put(lr)
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growPayload(s []Payload, n int) []Payload {
	if cap(s) < n {
		return make([]Payload, n)
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
