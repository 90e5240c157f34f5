// Package congest simulates the CONGEST model of distributed computing
// (Peleg 2000): a synchronous message-passing network over an undirected
// graph in which every node may send at most one O(log n)-bit message to each
// neighbor per round.
//
// Every protocol in this repository is written as a per-node procedure
// (a Proc) that runs in its own goroutine and advances the global round
// clock by calling Ctx.StepRound — the synchronous barrier. The engine
// enforces the model (neighbor-only delivery, one message per edge-direction
// per round, optional strict message-size budgets) and accounts the model's
// cost metric exactly: the number of rounds, plus total messages and bits for
// diagnostics.
//
// The simulation is deterministic: nodes interact only through the engine at
// round barriers and each node's random source is seeded from (Options.Seed,
// node ID), so a run's outcome is independent of goroutine scheduling.
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
// with round-r+1 writers. The round barrier is a single atomic countdown
// with per-node parking: the last node to arrive becomes the round leader,
// retires the round inline (round count, watchdog, cost accounting) and
// unparks the survivors — there is no coordinator goroutine.
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

// Proc is the per-node protocol procedure. It runs in its own goroutine with
// ctx bound to one vertex; returning ends the node's participation (any
// not-yet-delivered sends are still delivered at the next barrier). Returning
// a non-nil error aborts the whole run.
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

// errAbort is panicked into node goroutines blocked at the barrier when the
// run aborts, so they unwind and exit promptly.
var errAbort = errors.New("congest: run aborted")

// Engine selects a simulation engine implementation.
type Engine int32

const (
	// EngineEventLoop is the default engine: arc-slot mailbox arenas, an
	// atomic-countdown barrier with per-node parking, and pooled run state —
	// zero allocations per round in the steady state.
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
// no node goroutine starts.
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

// Barrier arrival kinds published by a node before it joins the countdown.
const (
	arriveStep int32 = iota + 1
	arriveDone
	arriveFail
)

// Ctx is a node's handle to the simulation: its identity, neighborhood,
// send fast paths and the round barrier. A Ctx must only be used from the
// goroutine running its Proc.
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
	rng   *rand.Rand
	// rngSrc is rng's seedable source, kept so pooled Ctxs reseed instead of
	// reallocating the generator.
	rngSrc rand.Source
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

	// Barrier state.
	arrival int32
	err     error
	park    chan struct{}
	inbox   []Message

	// Send accounting since the last delivery barrier; the round leader
	// flushes these into the run totals when that barrier delivers.
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

// Rand returns the node-local deterministic random source.
func (c *Ctx) Rand() *rand.Rand { return c.rng }

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
	// inbox (the drop mask hides the slot from both read paths).
	if lr.dropThresh != 0 && dropped(lr.dropThresh, lr.faultSeed, stamp, s) {
		lr.dropMask[buf][s] = stamp
	}
	c.pMsgs++
	c.pBits += int64(b)
	if b > c.pMax {
		c.pMax = b
	}
}

// SendAll sends the same payload to every neighbor this round. On the
// event-loop engine it is a single pass over the node's reverse-arc slice
// with the budget checks hoisted out of the loop — the broadcast-flood fast
// path.
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

// maybeCrash enforces the node's scheduled crash at the barrier ending round
// crashAt-1. A crash-stop node arrives as a finished node — its buffered
// sends from the completed round are still delivered, matching the "final
// sends" convention — and its goroutine unwinds without ever entering round
// crashAt. A crash-recovery node unwinds the Proc the same way but does NOT
// arrive here: its goroutine wrapper catches errCrashedRecover, joins this
// same barrier as a stepping node (so the final sends are delivered
// identically) and keeps stepping silently until the rejoin round. On the
// fault-free path crashAt is the noCrash sentinel and the check is one
// never-taken branch; a rejoined node additionally fails the rejoinAt
// compare so it can never crash twice.
func (c *Ctx) maybeCrash() {
	if int32(c.round)+1 < c.crashAt || int32(c.round) >= c.rejoinAt {
		return
	}
	if c.rejoinAt != noCrash {
		panic(errCrashedRecover)
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
func (c *Ctx) Idle(k int) {
	for i := 0; i < k; i++ {
		c.Step()
	}
}

// stepBarrier joins the countdown barrier as a stepping node and advances
// the local round clock once released.
func (c *Ctx) stepBarrier() {
	c.arrive(arriveStep)
	c.round++
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

// fail aborts the run with err, unwinding this goroutine.
func (c *Ctx) fail(err error) {
	c.err = err
	c.arrive(arriveFail)
	panic(errAbort)
}

// arrive publishes this node's barrier arrival and joins the countdown. The
// last arriver leads the round (classification, accounting, watchdog, wake).
// Stepping nodes return once released into the next round; done/fail
// arrivals return immediately after their (possible) leadership duty, since
// their goroutine is exiting.
func (c *Ctx) arrive(kind int32) {
	c.arrival = kind
	if c.sh != nil {
		c.sh.arrive(c, kind)
		return
	}
	lr := c.loop
	if lr.pending.Add(-1) == 0 {
		lr.lead(c)
	} else if kind == arriveStep {
		<-c.park
	} else {
		return
	}
	if kind == arriveStep && lr.aborted {
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
	// aborted/err/rounds are written by the round leader and read by nodes
	// after their release from the barrier.
	aborted bool
	err     error
	rounds  int
	wg      sync.WaitGroup
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
		nd.arrival = 0
		nd.err = nil
		nd.inbox = nd.inbox[:0]
		nd.pMsgs, nd.pBits, nd.pMax = 0, 0, 0
		seed := mix(opts.Seed, int64(v))
		if nd.rngSrc == nil {
			nd.rngSrc = rand.NewSource(seed)
			nd.rng = rand.New(nd.rngSrc)
		} else {
			nd.rngSrc.Seed(seed)
		}
		if nd.park == nil {
			nd.park = make(chan struct{}, 1)
		}
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
	rs.aborted = false
	rs.err = nil
	rs.rounds = 0
}

// start runs proc on every node, one goroutine each, and returns once every
// node has finished. A goroutine's last act is its deferred wg.Done, so it
// may still be exiting when start returns.
func (rs *runState) start(proc Proc) {
	n := rs.g.NumNodes()
	rs.wg.Add(n)
	for v := 0; v < n; v++ {
		go nodeMain(&rs.nodes[v], proc)
	}
	rs.wg.Wait()
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
// arenas, the live set and the barrier countdown.
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
	// live lists the nodes still running, ascending; rebuilt in place by the
	// round leader.
	live    []int32
	pending atomic.Int32

	msgs    int64
	bitsSum int64
	maxBits int
}

var loopPool = sync.Pool{New: func() any { return new(loopRun) }}

// lead retires the round: it runs on the last node to arrive at the barrier,
// with every live node accounted for (parked steppers, exiting done/fail
// arrivals). It classifies arrivals, aborts on failure or watchdog, flushes
// the arrivers' send accounting when the round delivers, resets the
// countdown and unparks the survivors.
func (lr *loopRun) lead(leader *Ctx) {
	arrived := lr.live
	var err error
	steppers := 0
	for _, id := range arrived {
		nd := &lr.nodes[id]
		switch nd.arrival {
		case arriveStep:
			steppers++
		case arriveFail:
			if err == nil {
				err = nd.err
			}
		}
	}
	if err == nil && steppers > 0 {
		lr.rounds++
		if lr.rounds > lr.opts.MaxRounds {
			err = fmt.Errorf("%w (%d)", ErrMaxRounds, lr.opts.MaxRounds)
		}
	}
	deliver := err == nil && steppers > 0
	w := 0
	for _, id := range arrived {
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
		if nd.arrival == arriveStep {
			lr.live[w] = id
			w++
		}
	}
	lr.live = lr.live[:w]
	if err != nil {
		lr.err = err
		lr.aborted = true
	} else {
		lr.pending.Store(int32(w))
	}
	for _, id := range lr.live {
		if nd := &lr.nodes[id]; nd != leader {
			nd.park <- struct{}{}
		}
	}
}

// runEventLoop drives one simulation on the arena engine.
func runEventLoop(g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	lr := acquireLoop(g, opts)
	lr.start(proc)
	stats := Stats{Rounds: lr.rounds, Messages: lr.msgs, TotalBits: lr.bitsSum, MaxMessageBits: lr.maxBits}
	err := lr.err
	releaseLoop(lr)
	return stats, err
}

// nodeMain is the per-node goroutine wrapper: it converts proc errors and
// panics into fail arrivals and normal returns into done arrivals. A
// crash-recovery crash restarts proc after the downtime window, so the loop
// runs once per incarnation.
func nodeMain(c *Ctx, proc Proc) {
	defer c.run.wg.Done()
	for {
		if !runProcOnce(c, proc) {
			return
		}
		// Crash with scheduled recovery: the node stays in the live set,
		// stepping silently through its downtime (the first barrier below is
		// the crash barrier itself, delivering the final-round sends), then
		// restarts as a fresh incarnation.
		if !downUntilRejoin(c) {
			return // the run aborted while the node was down
		}
		c.restart()
	}
}

// runProcOnce runs one incarnation of proc, classifying its exit: normal
// return and error/panic arrivals end the node (false); a crash with a
// scheduled recovery asks nodeMain to restart it (true).
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

// downUntilRejoin steps a crashed node silently through its downtime window.
// It reports false when the run aborted while the node was down.
func downUntilRejoin(c *Ctx) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, isErr := r.(error); isErr && errors.Is(err, errAbort) {
				ok = false
				return
			}
			panic(r)
		}
	}()
	for int32(c.round) < c.rejoinAt {
		c.stepBarrier()
	}
	return true
}

// restart rewinds a node for its next incarnation: the Proc will be invoked
// again from the top with Round() at the rejoin round, Incarnation()
// incremented and the random source reseeded as a pure function of
// (Options.Seed, node ID, incarnation) — so a restarted node's behavior does
// not depend on how many random draws its previous life consumed.
func (c *Ctx) restart() {
	c.incarnation++
	c.rngSrc.Seed(mix(mix(c.run.opts.Seed, int64(c.id)), int64(c.incarnation)))
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
	lr.live = growInt32(lr.live, n)
	for v := 0; v < n; v++ {
		lr.nodes[v].loop = lr
		lr.live[v] = int32(v)
	}
	lr.pending.Store(int32(n))
	lr.msgs, lr.bitsSum, lr.maxBits = 0, 0, 0
	return lr
}

// releaseLoop scrubs the mailbox arenas and the shared state (see
// runState.release) and returns lr to the pool.
func releaseLoop(lr *loopRun) {
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
