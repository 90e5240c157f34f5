// Package reliable layers per-arc reliable delivery over the lossy CONGEST
// engine: an ARQ transport (sequence numbers, cumulative ACKs, deterministic
// retransmission) wrapped in a Ctx that re-exposes the full congest.Net
// surface — so protocols written against that surface (bfsproto phases,
// partops casters, flood election, committing Raft) run UNMODIFIED over a
// network that drops messages, experiencing a perfectly synchronous logical
// network whose rounds merely take longer in wall-clock (physical) rounds.
//
// # Transport contract
//
// Each logical round is realized by one FRAME per live arc direction: frame
// s carries the payload the sender staged in logical round s-1 (or an
// explicit "nothing this round" marker — absence of a frame is
// indistinguishable from loss, so silence must be spoken). Frames are
// stop-and-wait per arc: at most one frame is outstanding per arc, the
// receiver acknowledges cumulatively (ack=a means frames 1..a all arrived),
// and every frame piggybacks the sender's current cumulative ACK for the
// reverse direction. A node completes logical round r once, on every live
// arc, it has both received frame r+1 and had its own frame r+1 acknowledged
// — which pins neighboring logical clocks within one round of each other (a
// two-slot reorder buffer per arc therefore suffices) and makes the logical
// network exactly the synchronous fault-free CONGEST network: a protocol's
// outcome over reliable+drops equals its fault-free outcome byte for byte,
// because the transport consumes no protocol randomness.
//
// Retransmission is deterministic: an unacknowledged frame resends after
// 2 + min(2^(a-1), BackoffCap) - 1 physical rounds (a = attempts so far)
// plus a one-round jitter hashed from (Seed, edge, direction, attempt) —
// never drawn from ctx.Rand(), so the protocol's random stream is
// untouched. A receiver re-ACKs duplicate frames, healing lost ACKs.
//
// A frame unacknowledged after RetryBudget transmissions marks its arc DEAD:
// the transport's built-in failure detector. The detector is two-sided: a
// node whose own frame is already acknowledged but who still awaits the
// peer's frame PROBES with ping frames on the same backoff schedule — a live
// peer (even one stalled on a different arc) must answer a ping with a pure
// frame, so only a crashed or departed peer lets RetryBudget probes go
// unanswered. (The probe cannot misfire on a mutually idle arc: if my frame
// is acknowledged, the peer has it, so the peer cannot itself be waiting on
// me.) Dead arcs drop out of the round-completion predicate, so a crash-stop
// neighbor stalls its arcs for O(RetryBudget · BackoffCap) physical rounds
// and is then excluded — under drop probability p the detector misfires with
// probability p^RetryBudget per frame (2^-64 at p=0.5 under the defaults:
// never in practice, and deterministically reproducible when it does).
//
// Termination runs on FIN bits: when the protocol returns, the transport
// drains — re-ACKing duplicates, flooding FIN ("no further frames from me")
// on every live arc — until every arc has either delivered a FIN or died,
// or a bounded drain budget expires. A received FIN doubles as EOF: an arc
// whose peer finished stops gating round completion, mirroring the raw
// engine's "messages to finished nodes are dropped" convention.
//
// The transport composes with the engine's crash faults, which are always
// crash-stop (a crashed peer's arcs die), and with the drop fault.
package reliable

import (
	"fmt"
	"math/rand"
	"sort"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/graph"
)

// Config tunes the transport. The zero value picks usable defaults.
type Config struct {
	// RetryBudget is the number of transmissions a frame gets before its arc
	// is declared dead (default 64).
	RetryBudget int
	// BackoffCap caps the exponential retransmission backoff, in physical
	// rounds (default 8).
	BackoffCap int
	// DrainRounds bounds the physical rounds spent in the FIN drain after
	// the protocol returns (default 64).
	DrainRounds int
	// Seed drives the retransmission jitter hash. Independent of both the
	// protocol seed and the fault seed.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.RetryBudget <= 0 {
		c.RetryBudget = 64
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 8
	}
	if c.DrainRounds <= 0 {
		c.DrainRounds = 64
	}
	return c
}

// Stats reports one run's transport-level cost, aggregated over nodes by
// Run. Logical/physical rounds aggregate by max, counters by sum.
type Stats struct {
	// LogicalRounds is the number of logical barriers the slowest node
	// completed; PhysicalRounds the engine rounds it spent doing so.
	LogicalRounds  int
	PhysicalRounds int
	// DataFrames and AckFrames count first transmissions; Retransmits counts
	// every repeat of a data frame. Fault-free, Retransmits is exactly 0.
	DataFrames  int64
	AckFrames   int64
	Retransmits int64
	// DeadArcs counts arc directions whose retry budget was exhausted.
	DeadArcs int
}

func (s *Stats) add(o Stats) {
	if o.LogicalRounds > s.LogicalRounds {
		s.LogicalRounds = o.LogicalRounds
	}
	if o.PhysicalRounds > s.PhysicalRounds {
		s.PhysicalRounds = o.PhysicalRounds
	}
	s.DataFrames += o.DataFrames
	s.AckFrames += o.AckFrames
	s.Retransmits += o.Retransmits
	s.DeadArcs += o.DeadArcs
}

// frameHeaderBits is the honest wire overhead of a frame: two 20-bit
// sequence fields (seq, ack) plus the has-data, FIN and ping flags.
const frameHeaderBits = 2*20 + 3

// frame is the wire unit. seq == 0 is a pure-ACK/FIN/ping frame; seq == s ≥ 1
// carries logical round s-1's payload (has reports whether there was one).
// Frames are engine Payloads; each arc rotates two preallocated frames so
// the steady state allocates nothing (safe because a frame is only readable
// in the physical round after its send, and a buffer is reused at the
// earliest two physical rounds later).
type frame struct {
	seq  int32
	ack  int32
	has  bool
	fin  bool
	ping bool // liveness probe: the receiver must answer with a pure frame
	data congest.Payload
	bits int
}

func (f *frame) Bits() int { return f.bits }

// arcState is the per-arc-direction transport state.
type arcState struct {
	// Sender side.
	staged    congest.Payload // payload staged for the current logical round
	stagedSet bool
	outSeq    int32 // seq of the outstanding frame (0 = none)
	outPay    congest.Payload
	outHas    bool
	acked     int32 // peer has acknowledged all frames <= acked
	attempts  int   // transmissions of the outstanding frame so far
	resendAt  int   // physical round of the next retransmission
	// Receiver side.
	recvSeq  int32 // frames 1..recvSeq received in order
	buf      [2]congest.Payload
	bufHas   [2]bool
	ackDirty bool
	finSeen  bool
	dead     bool
	// Receiver-side failure detector: probes counts pings sent since the arc
	// last delivered ANY frame, probeAt schedules the next one, pong records
	// an unanswered ping from the peer.
	probes  int
	probeAt int
	pong    bool
	// Wire buffers.
	frames [2]frame
	parity int
}

// closed reports that this arc no longer gates round completion: the peer
// finished (FIN = EOF) or the retry budget declared it dead.
func (st *arcState) closed() bool { return st.dead || st.finSeen }

// Ctx wraps a raw engine context with the reliable transport and implements
// congest.Net with LOGICAL rounds: Round(), StepRound, Step and InboxArc all
// speak the logical clock, under which delivery is exact and loss-free.
type Ctx struct {
	raw   *congest.Ctx
	cfg   Config
	st    []arcState
	order []int32 // arc indices ascending by neighbor ID (inbox order)
	round int     // completed logical rounds
	phys  int     // physical rounds spent (mirrors stats.PhysicalRounds)
	inbox []congest.Message
	stats *Stats
	fin   bool // the protocol returned; drain mode
}

var _ congest.Net = (*Ctx)(nil)

// NewCtx wraps one node's raw context. Most callers use Run instead; NewCtx
// is exported for harnesses that compose the wrapper inside a larger Proc.
// stats may be nil.
func NewCtx(raw *congest.Ctx, cfg Config, stats *Stats) *Ctx {
	cfg = cfg.withDefaults()
	if stats == nil {
		stats = &Stats{}
	}
	deg := raw.Degree()
	c := &Ctx{
		raw:   raw,
		cfg:   cfg,
		st:    make([]arcState, deg),
		order: make([]int32, deg),
		stats: stats,
	}
	arcs := raw.Neighbors()
	for k := range c.order {
		c.order[k] = int32(k)
	}
	sort.Slice(c.order, func(i, j int) bool { return arcs[c.order[i]].To < arcs[c.order[j]].To })
	return c
}

// Proc is the per-node procedure of a protocol running over the transport.
type Proc func(*Ctx) error

// Run simulates proc on every vertex of g over the reliable transport and
// returns both the engine's physical cost and the transport's own Stats.
// The fault plan in opts may drop messages and crash-stop nodes; the
// protocol above the wrapper observes a loss-free synchronous network among
// the survivors.
func Run(g *graph.Graph, proc Proc, cfg Config, opts congest.Options) (congest.Stats, Stats, error) {
	per := make([]Stats, g.NumNodes())
	raw := func(rc *congest.Ctx) error {
		c := NewCtx(rc, cfg, &per[rc.ID()])
		if err := proc(c); err != nil {
			return err
		}
		c.Close()
		return nil
	}
	cs, err := congest.Run(g, raw, opts)
	var agg Stats
	for i := range per {
		agg.add(per[i])
	}
	return cs, agg, err
}

// --- congest.Net surface -------------------------------------------------

func (c *Ctx) ID() graph.NodeID                 { return c.raw.ID() }
func (c *Ctx) N() int                           { return c.raw.N() }
func (c *Ctx) IDBits() int                      { return c.raw.IDBits() }
func (c *Ctx) Neighbors() []graph.Arc           { return c.raw.Neighbors() }
func (c *Ctx) Degree() int                      { return c.raw.Degree() }
func (c *Ctx) ArcIndex(to graph.NodeID) int     { return c.raw.ArcIndex(to) }
func (c *Ctx) EdgeWeight(id graph.EdgeID) int64 { return c.raw.EdgeWeight(id) }
func (c *Ctx) Rand() *rand.Rand                 { return c.raw.Rand() }

// Round returns the node's LOGICAL round — the clock the protocol lives on.
func (c *Ctx) Round() int { return c.round }

// Send stages a message to neighbor `to` for the current logical round.
// Model violations (non-neighbor, double send on one arc) panic into the
// engine's node-failure path, mirroring the raw Ctx contract.
func (c *Ctx) Send(to graph.NodeID, p congest.Payload) {
	k := c.raw.ArcIndex(to)
	if k < 0 {
		panic(fmt.Errorf("%w: node %d sent to non-neighbor %d in logical round %d",
			congest.ErrModelViolation, c.raw.ID(), to, c.round))
	}
	c.SendArc(k, p)
}

// SendArc stages a message on arc k for the current logical round; it is
// transmitted (and retransmitted) during the next Step/StepRound.
func (c *Ctx) SendArc(k int, p congest.Payload) {
	if uint(k) >= uint(len(c.st)) {
		panic(fmt.Errorf("%w: node %d sent on invalid arc index %d (degree %d) in logical round %d",
			congest.ErrModelViolation, c.raw.ID(), k, len(c.st), c.round))
	}
	st := &c.st[k]
	if st.stagedSet {
		panic(fmt.Errorf("%w: node %d sent twice to neighbor %d in logical round %d",
			congest.ErrModelViolation, c.raw.ID(), c.raw.Neighbors()[k].To, c.round))
	}
	st.staged, st.stagedSet = p, true
}

// SendAll stages the same payload on every arc this logical round.
func (c *Ctx) SendAll(p congest.Payload) {
	for k := range c.st {
		c.SendArc(k, p)
	}
}

// StepRound completes the logical round — transmitting, retransmitting and
// acknowledging over as many physical rounds as the loss pattern demands —
// and returns the logical inbox (ascending sender ID; the slice is reused).
func (c *Ctx) StepRound() []congest.Message {
	c.flush()
	return c.materialize()
}

// Step completes the logical round without materializing the inbox, for
// protocols that read specific arcs via InboxArc.
func (c *Ctx) Step() {
	c.flush()
}

// StepUntil completes logical rounds until the logical inbox is non-empty or
// the logical clock reaches round, and returns that inbox (see congest.Net).
// Every logical round still runs the transport: correct, not faster.
func (c *Ctx) StepUntil(round int) []congest.Message {
	for {
		c.flush()
		if in := c.materialize(); len(in) > 0 || c.round >= round {
			return in
		}
	}
}

// InboxArc returns the payload the neighbor at arc k sent in the previous
// logical round, if any. Valid between a Step/StepRound and the next.
func (c *Ctx) InboxArc(k int) (congest.Payload, bool) {
	if uint(k) >= uint(len(c.st)) {
		panic(fmt.Errorf("%w: node %d read invalid arc index %d (degree %d) in logical round %d",
			congest.ErrModelViolation, c.raw.ID(), k, len(c.st), c.round))
	}
	seq := int32(c.round)
	if seq == 0 {
		return nil, false
	}
	st := &c.st[k]
	if st.dead || st.recvSeq < seq || !st.bufHas[seq&1] {
		return nil, false
	}
	return st.buf[seq&1], true
}

// Idle advances the node through k logical barriers, discarding receipts.
func (c *Ctx) Idle(k int) {
	for i := 0; i < k; i++ {
		c.Step()
	}
}

// Stats returns the node's transport counters so far.
func (c *Ctx) Stats() Stats { return *c.stats }

// --- transport core ------------------------------------------------------

// flush drives physical sub-rounds until the current logical round is
// complete on every live arc, then advances the logical clock.
func (c *Ctx) flush() {
	seq := int32(c.round) + 1
	for k := range c.st {
		st := &c.st[k]
		st.outSeq = seq
		st.outPay, st.outHas = st.staged, st.stagedSet
		st.staged, st.stagedSet = nil, false
		st.attempts = 0
		st.resendAt = c.phys // first transmission is immediate
		st.probes = 0
		st.probeAt = c.phys + c.gap(k, 1)
	}
	for !c.roundComplete(seq) {
		c.subRound()
	}
	c.round++
	c.stats.LogicalRounds = c.round
}

// roundComplete reports whether frame `seq` has been both delivered and
// acknowledged on every arc that still gates progress.
func (c *Ctx) roundComplete(seq int32) bool {
	for k := range c.st {
		st := &c.st[k]
		if st.closed() {
			continue
		}
		if st.acked < seq || st.recvSeq < seq {
			return false
		}
	}
	return true
}

// subRound is one physical round: a send pass (due data frames, pure ACKs,
// drain FINs), the engine barrier, and a receive pass.
func (c *Ctx) subRound() {
	for k := range c.st {
		st := &c.st[k]
		if st.dead {
			continue
		}
		switch {
		case !st.finSeen && st.outSeq > st.acked && c.phys >= st.resendAt:
			if st.attempts >= c.cfg.RetryBudget {
				st.dead = true
				c.stats.DeadArcs++
				continue
			}
			c.sendFrame(k, st, st.outSeq, false)
		case st.ackDirty || st.pong || (c.fin && !st.finSeen):
			c.sendFrame(k, st, 0, false)
		case !st.finSeen && st.recvSeq < st.outSeq && c.phys >= st.probeAt:
			// Our frame is acknowledged yet the peer's never arrives: probe.
			// A live peer answers every ping, so only a crashed (or silently
			// departed) one lets the probe budget run dry.
			if st.probes >= c.cfg.RetryBudget {
				st.dead = true
				c.stats.DeadArcs++
				continue
			}
			c.sendFrame(k, st, 0, true)
		}
	}
	c.raw.Step()
	c.phys++
	c.stats.PhysicalRounds = c.phys
	for k := range c.st {
		st := &c.st[k]
		if st.dead {
			continue
		}
		p, ok := c.raw.InboxArc(k)
		if !ok {
			continue
		}
		f := p.(*frame)
		st.probes = 0
		st.probeAt = c.phys + c.gap(k, 1)
		if f.ping {
			st.pong = true
		}
		if f.ack > st.acked {
			st.acked = f.ack
		}
		if f.fin {
			st.finSeen = true
		}
		switch {
		case f.seq == 0:
			// Pure ACK/FIN: nothing to buffer.
		case f.seq == st.recvSeq+1:
			st.buf[f.seq&1] = f.data
			st.bufHas[f.seq&1] = f.has
			st.recvSeq = f.seq
			st.ackDirty = true
		case f.seq <= st.recvSeq:
			// Duplicate: our ACK was lost; re-ACK so the sender unblocks.
			st.ackDirty = true
		}
	}
}

// sendFrame transmits either the outstanding data frame (seq > 0) or a pure
// ACK/FIN/ping frame (seq == 0) on arc k, rotating the arc's two wire buffers.
func (c *Ctx) sendFrame(k int, st *arcState, seq int32, ping bool) {
	f := &st.frames[st.parity]
	st.parity ^= 1
	f.seq = seq
	f.ack = st.recvSeq
	f.fin = c.fin
	f.ping = ping
	if ping {
		st.probes++
		st.probeAt = c.phys + c.gap(k, st.probes)
	}
	if seq > 0 {
		f.has = st.outHas
		f.data = st.outPay
		f.bits = frameHeaderBits
		if st.outHas {
			f.bits += st.outPay.Bits()
		}
		st.attempts++
		if st.attempts == 1 {
			c.stats.DataFrames++
		} else {
			c.stats.Retransmits++
		}
		st.resendAt = c.phys + c.gap(k, st.attempts)
	} else {
		f.has = false
		f.data = nil
		f.bits = frameHeaderBits
		c.stats.AckFrames++
	}
	st.ackDirty = false
	st.pong = false
	c.raw.SendArc(k, f)
}

// gap returns the physical-round delay before the next retransmission after
// the a-th transmission: a 2-round ACK round trip plus capped exponential
// backoff plus a hashed one-round jitter (deterministic, engine-identical,
// independent of the protocol's random stream).
func (c *Ctx) gap(k, a int) int {
	backoff := 1
	if a-1 < 30 {
		backoff = 1 << (a - 1)
	}
	if backoff > c.cfg.BackoffCap {
		backoff = c.cfg.BackoffCap
	}
	arc := c.raw.Neighbors()[k]
	dir := uint64(0)
	if c.raw.ID() < arc.To {
		dir = 1
	}
	return 2 + backoff - 1 + int(jitterHash(c.cfg.Seed, uint64(arc.Edge)<<1|dir, uint64(a))&1)
}

// Close drains the transport after the protocol returned: it floods FIN,
// keeps re-ACKing stragglers, and exits once every arc is closed or the
// drain budget expires. Run calls it automatically; explicit callers (via
// NewCtx) must invoke it before returning from the raw Proc.
func (c *Ctx) Close() {
	c.fin = true
	deadline := c.phys + c.cfg.DrainRounds
	for c.phys < deadline {
		done := true
		for k := range c.st {
			if !c.st[k].closed() {
				done = false
				break
			}
		}
		if done {
			return
		}
		c.subRound()
	}
}

// jitterHash is a splitmix64-style finalizer over (seed, arc, attempt).
func jitterHash(seed int64, arc, attempt uint64) uint64 {
	z := uint64(seed) ^ 0x7E11AB1E_5EED_0001
	z = (z + arc*0x9E3779B97F4A7C15) + attempt*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// materialize builds the logical inbox for the just-completed round.
func (c *Ctx) materialize() []congest.Message {
	c.inbox = c.inbox[:0]
	seq := int32(c.round)
	arcs := c.raw.Neighbors()
	for _, k := range c.order {
		st := &c.st[k]
		if st.dead || st.recvSeq < seq || !st.bufHas[seq&1] {
			continue
		}
		c.inbox = append(c.inbox, congest.Message{From: arcs[k].To, Payload: st.buf[seq&1]})
	}
	return c.inbox
}
