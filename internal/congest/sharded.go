package congest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
)

// This file is the sharded multi-core engine (EngineSharded): the same
// arc-slot mailbox discipline as the event-loop engine, but with the work of
// retiring a round spread across P worker shards so one simulated round uses
// all cores instead of one.
//
// # Shard cut
//
// The CSR vertex range is cut into P contiguous, arc-balanced shards
// (partition.ShardBounds). Because CSR arc ranges follow vertex order, each
// shard owns a dense private slice of the mailbox arena: the slots of every
// node in its vertex range. A message whose receiver slot falls inside the
// sender's own shard is written directly, exactly like the event-loop engine
// (same epoch stamp, same double-send detection on the receiver slot). A
// message crossing shards cannot write the receiver's arena race-free, so it
// is appended to a relay ring instead.
//
// # Cross-shard relay
//
// For each ordered shard pair (src, dst) there is a preallocated ring with
// capacity exactly the number of boundary arcs from src to dst — each arc
// carries at most one message per round, so an atomic-cursor append can never
// overflow and never allocates. Rings are parity-doubled like the mailbox
// arenas: sends of round r (stamp r+1) append to the (r+1)&1 rings, which the
// destination shard drains into its own arena — and resets — while opening
// round r+1, strictly before unparking its nodes. The next append to that
// parity happens in round r+2, which no node can enter before the round-r+1
// barrier completes, so drain/reset and append are ordered by the barrier
// chain. Cross-shard double sends are detected sender-side (outStamp, indexed
// by the sender's own arc) since the receiver slot is not inspectable; a
// dropped message (FaultPlan) is charged to the sender and simply never
// relayed, and a dropped local message writes a nil payload under its stamp —
// both read paths treat stamped-nil as dropped, replacing the event-loop's
// dropMask arena.
//
// # Parallel barrier and determinism
//
// The barrier is two-level: each node decrements its shard's countdown; the
// shard's last arriver classifies the shard (steppers, first error in
// ascending node order) and decrements the global shard countdown. The
// globally last arriver retires the round — error selection in ascending
// shard order (= ascending node order, shards being contiguous), round count,
// watchdog — and wakes one parked waker per shard; the wakers then flush send
// accounting into per-shard counters, compact their live lists, drain their
// relay rings and unpark their nodes, all in parallel. Stats are merged in
// shard order at run end. Every engine-visible outcome — inbox contents and
// order, Stats, error choice, fault behavior — is byte-identical to the
// event-loop engine at every shard count; only wall-clock changes.

// defaultShards holds the process-wide shard count used when Options.Shards
// is 0; 0 or negative means GOMAXPROCS at run start.
var defaultShards atomic.Int32

// SetDefaultShards replaces the process-wide worker-shard count used by
// EngineSharded runs whose Options.Shards is 0, returning the previous value.
// k <= 0 restores the GOMAXPROCS default. Like SetEngine it must not be
// called while simulations are in flight.
func SetDefaultShards(k int) int {
	return int(defaultShards.Swap(int32(k)))
}

// DefaultShards returns the current process-wide shard count (0 =
// GOMAXPROCS at run start).
func DefaultShards() int { return int(defaultShards.Load()) }

// relayMsg is one cross-shard message in flight: the receiver's global
// mailbox slot and the payload.
type relayMsg struct {
	slot int32
	pay  Payload
}

// relayRing is the preallocated append buffer for one (src shard, dst shard,
// round parity) triple. buf has capacity for every boundary arc of the pair,
// so cur can never pass len(buf) within a round.
type relayRing struct {
	cur atomic.Int32
	buf []relayMsg
}

// shard is one worker shard: a contiguous vertex range, its slice of the
// mailbox arena, its own live set and barrier countdown, and its slice of the
// run's cost accounting.
type shard struct {
	idx    int32
	loNode int32
	hiNode int32
	// arcLo/arcHi delimit the shard's slice of the global arc index space;
	// stamp/pay (and outStamp) are indexed by global index minus arcLo.
	arcLo int32
	arcHi int32
	stamp [2][]int32
	pay   [2][]Payload
	// outStamp detects cross-shard double sends on the sender side, indexed
	// by the sender's own arc. Grown only when the run has multiple shards.
	outStamp [2][]int32
	live     []int32
	pending  atomic.Int32
	// park blocks the shard's waker (its last barrier arriver) until the
	// global leader retires the round.
	park chan struct{}
	// Per-barrier classification published by shardLead, read by globalLead.
	steppers int
	err      error
	// retired flips once the shard has no live steppers; senders in later
	// rounds skip relaying to it (its nodes can never read again). Atomic
	// because a sender still finishing the retiring round may race the flip.
	retired atomic.Bool
	// done marks the shard out of the global countdown, maintained by
	// globalLead only.
	done bool
	// Cost accounting accumulated by this shard's waker, merged in shard
	// order at run end.
	msgs    int64
	bitsSum int64
	maxBits int
	// pad keeps the hot pending counters of neighboring shards off one
	// cache line.
	pad [64]byte //nolint:unused // padding only
}

// shardedRun is the pooled per-run state of the sharded engine: the shared
// run state plus the shard cut, the per-shard arenas and the relay rings.
// Drops need no mask here: a dropped local send stores a nil payload, a
// dropped cross-shard send is never relayed.
type shardedRun struct {
	runState
	shards    []shard
	numShards int
	// bounds/arcBounds are the shard cut: node and arc breakpoints
	// (numShards+1 each). arcBounds backs shardOfSlot's binary search.
	bounds    []int32
	arcBounds []int32
	// rings[parity] holds numShards² relay rings; pair (src, dst) lives at
	// src*numShards+dst.
	rings [2][]relayRing

	shardsPending atomic.Int32
	// aborted and deliver are written by the global leader and read by
	// shard wakers and nodes after their park receive, like the shared
	// err/rounds.
	aborted bool
	deliver bool
	// wg joins the node goroutines.
	wg sync.WaitGroup
}

var shardedPool = sync.Pool{New: func() any { return new(shardedRun) }}

// runSharded drives one simulation on the sharded engine.
func runSharded(g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	p := opts.Shards
	if p == 0 {
		p = DefaultShards()
	}
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	r := acquireSharded(g, opts, p)
	// One goroutine per node; a goroutine's last act is its deferred
	// wg.Done, so it may still be exiting when Wait returns.
	node := func(nd *Ctx) {
		defer r.wg.Done()
		nodeMain(nd, proc)
	}
	r.wg.Add(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		go node(&r.nodes[v])
	}
	r.wg.Wait()
	stats := Stats{Rounds: r.rounds}
	for i := 0; i < r.numShards; i++ {
		d := &r.shards[i]
		stats.Messages += d.msgs
		stats.TotalBits += d.bitsSum
		if d.maxBits > stats.MaxMessageBits {
			stats.MaxMessageBits = d.maxBits
		}
	}
	err := r.err
	releaseSharded(r)
	return stats, err
}

// shardOfSlot returns the shard owning global arc slot s: the largest i with
// arcBounds[i] <= s. Empty arc ranges (shards of isolated vertices) are
// skipped naturally by taking the largest such i.
func (r *shardedRun) shardOfSlot(s int32) int32 {
	lo, hi := 0, r.numShards-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if r.arcBounds[mid] <= s {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return int32(lo)
}

// sendArc is SendArc on the sharded engine: a local receiver slot is written
// directly (event-loop discipline), a cross-shard one goes through the relay.
func (r *shardedRun) sendArc(c *Ctx, k int, p Payload) {
	stamp := int32(c.round) + 1
	buf := stamp & 1
	a := c.lo + int32(k)
	s := r.rev[a]
	d := c.shard
	local := s >= d.arcLo && s < d.arcHi
	if local {
		if d.stamp[buf][s-d.arcLo] == stamp {
			c.fail(fmt.Errorf("%w: node %d sent twice to neighbor %d in round %d", ErrModelViolation, c.id, c.arcs[k].To, c.round))
		}
	} else if d.outStamp[buf][a-d.arcLo] == stamp {
		c.fail(fmt.Errorf("%w: node %d sent twice to neighbor %d in round %d", ErrModelViolation, c.id, c.arcs[k].To, c.round))
	}
	b := p.Bits()
	if limit := r.opts.MaxMessageBits; limit > 0 && b > limit {
		c.fail(fmt.Errorf("%w: node %d sent %d-bit message (budget %d) in round %d", ErrModelViolation, c.id, b, limit, c.round))
	}
	if local {
		ls := s - d.arcLo
		d.stamp[buf][ls] = stamp
		if r.dropThresh != 0 && dropped(r.dropThresh, r.faultSeed, stamp, s) {
			d.pay[buf][ls] = nil
		} else {
			d.pay[buf][ls] = p
		}
	} else {
		d.outStamp[buf][a-d.arcLo] = stamp
		if r.dropThresh == 0 || !dropped(r.dropThresh, r.faultSeed, stamp, s) {
			r.relay(buf, d, s, p)
		}
	}
	c.pMsgs++
	c.pBits += int64(b)
	if b > c.pMax {
		c.pMax = b
	}
}

// relay appends a cross-shard message to the (sender shard, receiver shard)
// ring of the given parity. Messages to a retired shard are skipped — its
// nodes can never read them, matching the event-loop engine where such
// writes land in slots nobody scans again.
func (r *shardedRun) relay(buf int32, src *shard, s int32, p Payload) {
	dst := r.shardOfSlot(s)
	if r.shards[dst].retired.Load() {
		return
	}
	ring := &r.rings[buf][int(src.idx)*r.numShards+int(dst)]
	i := ring.cur.Add(1) - 1
	ring.buf[i] = relayMsg{slot: s, pay: p}
}

// sendAll is SendAll on the sharded engine: one pass over the reverse-arc
// slice with the budget check hoisted, splitting per target between the
// local-write and relay paths.
func (r *shardedRun) sendAll(c *Ctx, p Payload) {
	deg := len(c.arcs)
	if deg == 0 {
		return
	}
	stamp := int32(c.round) + 1
	buf := stamp & 1
	b := p.Bits()
	if limit := r.opts.MaxMessageBits; limit > 0 && b > limit {
		c.fail(fmt.Errorf("%w: node %d sent %d-bit message (budget %d) in round %d", ErrModelViolation, c.id, b, limit, c.round))
	}
	d := c.shard
	st, pay := d.stamp[buf], d.pay[buf]
	thresh := r.dropThresh
	for i, s := range r.rev[c.lo : c.lo+int32(deg)] {
		if s >= d.arcLo && s < d.arcHi {
			ls := s - d.arcLo
			if st[ls] == stamp {
				c.fail(fmt.Errorf("%w: node %d sent twice to neighbor %d in round %d", ErrModelViolation, c.id, c.arcs[i].To, c.round))
			}
			st[ls] = stamp
			if thresh != 0 && dropped(thresh, r.faultSeed, stamp, s) {
				pay[ls] = nil
			} else {
				pay[ls] = p
			}
		} else {
			la := c.lo + int32(i) - d.arcLo
			if d.outStamp[buf][la] == stamp {
				c.fail(fmt.Errorf("%w: node %d sent twice to neighbor %d in round %d", ErrModelViolation, c.id, c.arcs[i].To, c.round))
			}
			d.outStamp[buf][la] = stamp
			if thresh == 0 || !dropped(thresh, r.faultSeed, stamp, s) {
				r.relay(buf, d, s, p)
			}
		}
	}
	c.pMsgs += int64(deg)
	c.pBits += int64(deg) * int64(b)
	if b > c.pMax {
		c.pMax = b
	}
}

// inboxArc is InboxArc on the sharded engine. A stamped slot with a nil
// payload is a message the lossy network swallowed.
func (r *shardedRun) inboxArc(c *Ctx, k int) (Payload, bool) {
	stamp := int32(c.round)
	if stamp == 0 {
		return nil, false
	}
	buf := stamp & 1
	d := c.shard
	ls := c.lo + int32(k) - d.arcLo
	if d.stamp[buf][ls] != stamp {
		return nil, false
	}
	p := d.pay[buf][ls]
	if p == nil {
		return nil, false
	}
	return p, true
}

// hasMail is Ctx.hasMail on the sharded engine: a scan of the node's slots
// for this round's stamp over a payload the network did not drop.
func (r *shardedRun) hasMail(c *Ctx) bool {
	stamp := int32(c.round)
	buf := stamp & 1
	d := c.shard
	lo := c.lo - d.arcLo
	hi := lo + int32(len(c.arcs))
	pay := d.pay[buf][lo:hi]
	for i, s := range d.stamp[buf][lo:hi] {
		if s == stamp && pay[i] != nil {
			return true
		}
	}
	return false
}

// gather is Ctx.gather on the sharded engine: same by-neighbor-ID scan over
// the shard's slice of the arena.
func (r *shardedRun) gather(c *Ctx) []Message {
	stamp := int32(c.round)
	buf := stamp & 1
	d := c.shard
	st := d.stamp[buf]
	pay := d.pay[buf]
	c.inbox = c.inbox[:0]
	lo := c.lo
	base := lo - d.arcLo
	if r.dropThresh != 0 {
		for _, j := range r.order[lo : lo+int32(len(c.arcs))] {
			if s := base + int32(j); st[s] == stamp && pay[s] != nil {
				c.inbox = append(c.inbox, Message{From: c.arcs[j].To, Payload: pay[s]})
			}
		}
	} else {
		for _, j := range r.order[lo : lo+int32(len(c.arcs))] {
			if s := base + int32(j); st[s] == stamp {
				c.inbox = append(c.inbox, Message{From: c.arcs[j].To, Payload: pay[s]})
			}
		}
	}
	if r.adversary == AdversaryRotate {
		scrambleInbox(r.faultSeed, c.round, c.id, c.inbox)
	}
	return c.inbox
}

// arrive joins the two-level barrier: the shard countdown first; the shard's
// last arriver leads the shard (and possibly the round). Stepping nodes park
// until released; done/fail arrivals return immediately unless they lead.
func (r *shardedRun) arrive(c *Ctx, kind int32) {
	d := c.shard
	if d.pending.Add(-1) == 0 {
		r.shardLead(d, c)
	} else if kind == arriveStep {
		<-c.park
	} else {
		return
	}
	if kind == arriveStep && r.aborted {
		panic(errAbort)
	}
}

// shardLead runs on the shard's last barrier arriver: it classifies the
// shard's arrivals (stepper count, first error in ascending node order) and
// joins the global countdown, leading the round if last. A surviving shard's
// waker then parks until the round is retired and performs the shard's
// release duties. A retiring shard's waker does NOT park: nothing ever waits
// on a retired shard again, so a parked waker here would race the next
// round's globalLead — the global leader flushes retired shards inline
// instead, and this (done/fail) waker just returns and exits.
func (r *shardedRun) shardLead(d *shard, leader *Ctx) {
	steppers := 0
	var err error
	for _, id := range d.live {
		nd := &r.nodes[id]
		switch nd.arrival {
		case arriveStep:
			steppers++
		case arriveFail:
			if err == nil {
				err = nd.err
			}
		}
	}
	d.steppers, d.err = steppers, err
	if steppers == 0 {
		d.retired.Store(true)
		if r.shardsPending.Add(-1) == 0 {
			r.globalLead(d)
		}
		return
	}
	if r.shardsPending.Add(-1) == 0 {
		r.globalLead(d)
	} else {
		<-d.park
	}
	r.releaseShard(d, leader)
}

// globalLead retires the round on the globally last arriver: error selection
// in ascending shard order (equal to ascending node order, shards being
// contiguous), round count and watchdog, inline release of retiring shards,
// the countdown reset, then one wake per surviving shard. Every shared write
// happens before the first wake — the park sends (and, for the caller's own
// shard, program order) are the release edges into the next round.
func (r *shardedRun) globalLead(leadShard *shard) {
	shards := r.shards[:r.numShards]
	steppers := 0
	var err error
	for i := range shards {
		d := &shards[i]
		if d.done {
			continue
		}
		if d.err != nil && err == nil {
			err = d.err
		}
		steppers += d.steppers
	}
	if err == nil && steppers > 0 {
		r.rounds++
		if r.rounds > r.opts.MaxRounds {
			err = fmt.Errorf("%w (%d)", ErrMaxRounds, r.opts.MaxRounds)
		}
	}
	r.deliver = err == nil && steppers > 0
	if err != nil {
		r.err = err
		r.aborted = true
		// Unwind: wake surviving shards' wakers (retired shards have none).
		// An aborted barrier never delivers, so there is nothing to flush.
		for i := range shards {
			if d := &shards[i]; !d.done && d.steppers > 0 && d != leadShard {
				d.park <- struct{}{}
			}
		}
		return
	}
	// Retire shards with no steppers: flush their final-barrier accounting
	// here (their wakers did not park) and drop them from the countdown.
	active := int32(0)
	for i := range shards {
		d := &shards[i]
		if d.done {
			continue
		}
		if d.steppers == 0 {
			r.releaseShard(d, nil)
			d.done = true
		} else {
			active++
		}
	}
	r.shardsPending.Store(active)
	for i := range shards {
		if d := &shards[i]; !d.done && d != leadShard {
			d.park <- struct{}{}
		}
	}
}

// releaseShard performs a shard's share of retiring the round, in parallel
// across shards: flush send accounting into the shard counters when the
// round delivers (matching the event-loop leader's flush), compact the live
// list, reset the shard countdown, drain incoming relay rings into the local
// arena, and unpark the survivors.
func (r *shardedRun) releaseShard(d *shard, leader *Ctx) {
	deliver := r.deliver
	w := 0
	for _, id := range d.live {
		nd := &r.nodes[id]
		if deliver {
			d.msgs += nd.pMsgs
			d.bitsSum += nd.pBits
			if nd.pMax > d.maxBits {
				d.maxBits = nd.pMax
			}
			nd.pMsgs, nd.pBits, nd.pMax = 0, 0, 0
		}
		if nd.arrival == arriveStep {
			d.live[w] = id
			w++
		}
	}
	d.live = d.live[:w]
	if !r.aborted && w > 0 {
		d.pending.Store(int32(w))
		if r.numShards > 1 {
			r.drainInto(d)
		}
	}
	for _, id := range d.live {
		if nd := &r.nodes[id]; nd != leader {
			nd.park <- struct{}{}
		}
	}
}

// drainInto copies every relay ring targeting shard d into d's mailbox arena
// and resets the rings, opening round r.rounds for d's nodes. It runs
// strictly between the global retire and d's unparks, so ring writers (last
// round's senders) are quiesced and ring readers (d's nodes) not yet
// released.
func (r *shardedRun) drainInto(d *shard) {
	stamp := int32(r.rounds)
	buf := stamp & 1
	st, pay := d.stamp[buf], d.pay[buf]
	base := d.arcLo
	p := r.numShards
	rings := r.rings[buf]
	for src := 0; src < p; src++ {
		if int32(src) == d.idx {
			continue
		}
		ring := &rings[src*p+int(d.idx)]
		cn := ring.cur.Load()
		if cn == 0 {
			continue
		}
		for _, m := range ring.buf[:cn] {
			st[m.slot-base] = stamp
			pay[m.slot-base] = m.pay
		}
		ring.cur.Store(0)
	}
}

// acquireSharded takes a shardedRun from the pool and sizes/resets it for g
// cut into p shards. Like acquireLoop, all buffers grow to high-water marks;
// released state was scrubbed, so stamps start unoccupied.
func acquireSharded(g *graph.Graph, opts Options, p int) *shardedRun {
	r := shardedPool.Get().(*shardedRun)
	r.setup(g, opts)
	bounds := partition.ShardBounds(g, p)
	p = len(bounds) - 1
	r.bounds = bounds
	r.numShards = p
	if cap(r.arcBounds) < p+1 {
		r.arcBounds = make([]int32, p+1)
	}
	r.arcBounds = r.arcBounds[:p+1]
	for i := 0; i <= p; i++ {
		r.arcBounds[i] = g.ArcOffset(int(bounds[i]))
	}
	if len(r.shards) < p {
		shards := make([]shard, p)
		copy(shards, r.shards)
		r.shards = shards
	}
	for i := 0; i < p; i++ {
		d := &r.shards[i]
		d.idx = int32(i)
		d.loNode, d.hiNode = bounds[i], bounds[i+1]
		d.arcLo, d.arcHi = r.arcBounds[i], r.arcBounds[i+1]
		na := int(d.arcHi - d.arcLo)
		for b := range d.stamp {
			d.stamp[b] = growInt32(d.stamp[b], na)
			d.pay[b] = growPayload(d.pay[b], na)
		}
		if p > 1 {
			for b := range d.outStamp {
				d.outStamp[b] = growInt32(d.outStamp[b], na)
			}
		}
		nn := int(d.hiNode - d.loNode)
		d.live = growInt32(d.live, nn)
		for j := 0; j < nn; j++ {
			v := d.loNode + int32(j)
			d.live[j] = v
			nd := &r.nodes[v]
			nd.sh, nd.shard = r, d
			if nd.park == nil {
				nd.park = make(chan struct{}, 1)
			}
		}
		d.pending.Store(int32(nn))
		if d.park == nil {
			d.park = make(chan struct{}, 1)
		}
		d.steppers, d.err = 0, nil
		d.retired.Store(false)
		d.done = false
		d.msgs, d.bitsSum, d.maxBits = 0, 0, 0
	}
	if p > 1 {
		r.sizeRings(p)
	}
	r.shardsPending.Store(int32(p))
	r.aborted, r.deliver = false, false
	return r
}

// sizeRings sizes the relay rings to the exact boundary-arc count of every
// ordered shard pair, reusing ring buffers across runs.
func (r *shardedRun) sizeRings(p int) {
	counts := make([]int32, p*p)
	for src := 0; src < p; src++ {
		for a := r.arcBounds[src]; a < r.arcBounds[src+1]; a++ {
			if dst := r.shardOfSlot(r.rev[a]); dst != int32(src) {
				counts[src*p+int(dst)]++
			}
		}
	}
	for b := range r.rings {
		rings := r.rings[b]
		if len(rings) < p*p {
			grown := make([]relayRing, p*p)
			copy(grown, rings)
			rings = grown
		}
		rings = rings[:p*p]
		for i := range rings {
			ring := &rings[i]
			c := int(counts[i])
			if cap(ring.buf) < c {
				ring.buf = make([]relayMsg, c)
			}
			ring.buf = ring.buf[:c]
			ring.cur.Store(0)
		}
		r.rings[b] = rings
	}
}

// releaseSharded scrubs the shard arenas, the relay rings and the shared
// state (see runState.release) and returns r to the pool.
func releaseSharded(r *shardedRun) {
	for i := 0; i < r.numShards; i++ {
		d := &r.shards[i]
		for b := range d.stamp {
			clear(d.stamp[b])
			clear(d.pay[b])
			if r.numShards > 1 {
				clear(d.outStamp[b])
			}
		}
	}
	if r.numShards > 1 {
		for b := range r.rings {
			for i := range r.rings[b] {
				ring := &r.rings[b][i]
				clear(ring.buf[:cap(ring.buf)])
				ring.cur.Store(0)
			}
		}
	}
	r.release()
	shardedPool.Put(r)
}
