package congest

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
)

// This file is the engine's run loop: the shard cut, one driver per shard,
// the round barrier the drivers meet at, and the relay rings that carry
// messages between shards.
//
// # Shard cut
//
// The CSR vertex range is cut into P contiguous, arc-balanced shards
// (partition.ShardBounds). Because CSR arc ranges follow vertex order, each
// shard owns a dense window of the mailbox arena: the slots of every node in
// its vertex range. A message whose receiver slot falls inside the sender's
// own shard is written directly (epoch stamp, double-send detection on the
// receiver slot, sleeper mark). A message crossing shards cannot touch the
// receiver's window race-free, so it is appended to a relay ring instead.
// At P = 1 every slot is local.
//
// # Drivers and the round barrier
//
// Each shard has one driver: shard 0's is the goroutine that called Run, the
// others are goroutines of their own. A driver starts its nodes' coroutines,
// then per round resumes its awake nodes in ascending ID order and arrives
// at the barrier with its live count and its first error. The last driver
// to arrive retires the round (lead): the first error in shard order, which
// is the lowest failing node ID, the round count and the watchdog — or, when
// no node of any shard was awake, the jump to the earliest wake round over
// all shards' heaps. After the barrier every driver retires its own share in
// parallel (retire): it flushes its nodes' send accounting, drains the relay
// rings addressed to it, files its new sleepers and wakes those marked or
// due. Stats are summed over the shards at run end.
//
// # Cross-shard relay
//
// For each ordered shard pair (src, dst) there is a preallocated ring with
// capacity exactly the number of boundary arcs from src to dst — each arc
// carries at most one message per round, so an append never allocates. Only
// src's driver appends to it, since src's nodes run one at a time. Rings are
// parity-doubled like the mailbox arenas: sends of round r (stamp r+1)
// append to the (r+1)&1 rings, which dst's driver drains and resets after
// the round-r barrier, while the next append to that parity comes in round
// r+2, after the next barrier. A drained message to a sleeping receiver
// marks it exactly as a local send does. Cross-shard double sends are
// detected on the sender side (outStamp, indexed by the sender's own arc),
// and a dropped cross-shard message is charged to the sender and never
// relayed.

// defaultShards holds the process-wide shard count used when Options.Shards
// is 0; 0 means one shard.
var defaultShards atomic.Int32

// SetDefaultShards replaces the process-wide shard count used by runs whose
// Options.Shards is 0 and returns the previous one. k <= 0 restores the
// default of one shard. It must not be called while simulations are in
// flight.
func SetDefaultShards(k int) int {
	return max(int(defaultShards.Swap(int32(max(k, 0)))), 1)
}

// DefaultShards returns the shard count a run whose Options.Shards is 0
// uses.
func DefaultShards() int { return max(int(defaultShards.Load()), 1) }

// relayMsg is one cross-shard message in flight: the receiver's global
// mailbox slot, the receiver and the payload.
type relayMsg struct {
	slot, to int32
	pay      Payload
}

// runState is the pooled state of one run: the graph and options, the node
// table, the mailbox arenas, the shards and their relay rings, the radio and
// fault state, the barrier and the run's outcome. Every Ctx of the run
// points at it.
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
	// stamp/pay are the mailbox arenas: slot lo(v)+k holds the message in
	// flight to v from its k-th neighbor, stamped with the round at which it
	// becomes readable; a nil payload under the stamp is a dropped message.
	// Two arenas alternate by round parity so round-r readers never share an
	// array with round-(r+1) writers; stale stamps simply never match, so
	// nothing is cleared between rounds. A shard's driver touches only its
	// own window of them.
	stamp [2][]int32
	pay   [2][]Payload
	// outStamp detects cross-shard double sends on the sender side, indexed
	// by the sender's own arc. Grown only for runs of several shards.
	outStamp [2][]int32
	// txStamp/txPay are the radio-model transmission arenas (one slot per
	// node, parity-doubled and epoch-stamped like the mailbox arenas; see
	// radio.go). They are grown only for ModelRadio runs. A transmission slot
	// has one writer and is read only in the next round, so every shard
	// shares them.
	txStamp [2][]int32
	txPay   [2][]Payload
	// Fault-layer state (see fault.go): fault-free runs see dropThresh == 0
	// and skip every drop check.
	dropThresh uint64
	faultSeed  int64
	adversary  Adversary

	shards []shard
	// arcBounds holds the shard cut's arc breakpoints (len(shards)+1), for
	// shardOf's binary search.
	arcBounds []int32
	// rings[parity] holds P² relay rings; pair (src, dst) lives at
	// src*P+dst. ringCap is sizeRings' count table.
	rings   [2][][]relayMsg
	ringCap []int32
	// Per-node arrays the shards cut windows from: each shard's awake list,
	// wake list and heap items live in its vertex range, and the sleep flags
	// and heap positions are indexed by node ID.
	awake    []int32
	wakeList []int32
	asleep   []int32
	heapPos  []int32
	heapItem []wakeItem

	// The round barrier (P > 1): arrived counts the drivers in, gen
	// advances each time the last one leads. The leader writes rounds, err
	// and over under mu; every driver reads them after the barrier.
	mu      sync.Mutex
	cond    sync.Cond
	arrived int
	gen     uint64
	rounds  int
	err     error
	over    bool
	// goexit records a Proc's runtime.Goexit, which Run re-raises on its
	// caller once every driver has stopped.
	goexit bool
	// wg joins the drivers of shards 1..P-1.
	wg sync.WaitGroup
}

// shard is one worker shard: a contiguous vertex range with its window of
// the mailbox arena, its awake set and sleep state, and its slice of the
// run's cost accounting. Only the shard's driver touches it between
// barriers.
type shard struct {
	idx    int32
	lo, hi int32
	// arcLo/arcHi delimit the shard's window of the arc index space.
	arcLo, arcHi int32
	// awake lists the nodes the driver resumes this round, ascending;
	// rebuilt in place when the round is retired.
	awake []int32
	// Sleep state. asleep (run-wide, indexed by node ID) holds the arrival
	// kind (arriveSleep or arriveIdle) of each node filed in heap and 0 for
	// the rest; the first sender to an arriveSleep node clears it and
	// appends the receiver to wakeList. Senders skip the flag while heap is
	// empty.
	asleep   []int32
	wakeList []int32
	heap     wakeHeap
	// Barrier report: live arrivals plus sleepers, and the first error in
	// ascending node order.
	live int
	err  error
	// Cost accounting, summed over the shards at run end.
	msgs    int64
	bitsSum int64
	maxBits int
	// pad keeps the hot fields of neighboring shards off one cache line.
	pad [64]byte //nolint:unused // padding only
}

// owns reports whether global arc slot s lies in the shard's window.
func (d *shard) owns(s int32) bool { return s >= d.arcLo && s < d.arcHi }

var statePool = sync.Pool{New: func() any {
	rs := new(runState)
	rs.cond.L = &rs.mu
	return rs
}}

// run simulates proc on g cut into opts.Shards shards. Shard 0 is driven on
// the calling goroutine, the others on goroutines of their own; every
// driver stops its suspended coroutines before it returns, and release
// waits for them all before the state goes back to the pool.
func run(g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	rs := acquire(g, opts)
	defer release(rs)
	rs.wg.Add(len(rs.shards) - 1)
	for i := 1; i < len(rs.shards); i++ {
		go func(d *shard) {
			defer rs.wg.Done()
			rs.drive(d, proc)
		}(&rs.shards[i])
	}
	rs.drive(&rs.shards[0], proc)
	rs.wg.Wait()
	if rs.goexit {
		runtime.Goexit()
	}
	st := Stats{Rounds: rs.rounds}
	for i := range rs.shards {
		d := &rs.shards[i]
		st.Messages += d.msgs
		st.TotalBits += d.bitsSum
		st.MaxMessageBits = max(st.MaxMessageBits, d.maxBits)
	}
	return st, rs.err
}

// drive is shard d's driver. It starts every node of d's vertex range as a
// coroutine running nodeMain, then per round resumes d's awake nodes in
// ascending ID order, each until its next barrier arrival or its end, meets
// the other drivers at the barrier and retires d's share of the round. When
// the run ends — or a Proc's runtime.Goexit unwinds this driver — it stops
// every suspended node, sleepers included, so each unwinds and its
// coroutine ends.
func (rs *runState) drive(d *shard, proc Proc) {
	for v := d.lo; v < d.hi; v++ {
		nd := &rs.nodes[v]
		nd.next, nd.stop = pull(func(yield func(struct{}) bool) {
			nd.yield = yield
			nodeMain(nd, proc)
		})
	}
	ended := false
	defer func() {
		if !ended {
			rs.barrier(true)
		}
		for v := d.lo; v < d.hi; v++ {
			nd := &rs.nodes[v]
			nd.stop()
			nd.next, nd.stop, nd.yield = nil, nil, nil
		}
	}()
	for {
		live := len(d.heap.items) // sleepers are live steppers
		var err error
		for _, id := range d.awake {
			nd := &rs.nodes[id]
			nd.next()
			if nd.arrival < arriveDone {
				live++
			} else if nd.arrival == arriveFail && err == nil {
				err = nd.err // the lowest failing node ID wins
			}
		}
		d.live, d.err = live, err
		if !rs.barrier(false) {
			break
		}
		rs.retire(d)
	}
	ended = true
}

// barrier is the round barrier: a driver arrives once its nodes have, the
// last to arrive leads, and the others wait for it. It reports whether the
// run goes on. A driver unwound by a Proc's runtime.Goexit arrives with
// goexit set: the run ends at this barrier and the driver does not wait.
func (rs *runState) barrier(goexit bool) bool {
	if len(rs.shards) == 1 {
		rs.goexit = rs.goexit || goexit
		rs.lead()
		return !rs.over
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.goexit = rs.goexit || goexit
	if rs.arrived++; rs.arrived == len(rs.shards) {
		rs.arrived = 0
		rs.lead()
		rs.gen++
		rs.cond.Broadcast()
	} else if !goexit {
		for gen := rs.gen; gen == rs.gen; {
			rs.cond.Wait()
		}
	}
	return !rs.over
}

// lead retires the round on the last driver to arrive: the first error in
// shard order, then the round count against the watchdog. When no node of
// any shard was awake, the round instead jumps to the earliest wake round
// over every shard's heap, failing with ErrMaxRounds (at MaxRounds+1 rounds,
// as stepping would) when that round is past the watchdog bound.
func (rs *runState) lead() {
	if rs.goexit {
		rs.over = true
		return
	}
	var err error
	live, ran := 0, false
	next := int32(math.MaxInt32)
	for i := range rs.shards {
		d := &rs.shards[i]
		if err == nil {
			err = d.err
		}
		live += d.live
		ran = ran || len(d.awake) > 0
		if len(d.heap.items) > 0 {
			next = min(next, d.heap.items[0].round)
		}
	}
	if err == nil && live > 0 {
		round := rs.rounds + 1
		if !ran {
			round = int(next)
		}
		rs.rounds = min(round, rs.opts.MaxRounds+1)
		if rs.rounds > rs.opts.MaxRounds {
			err = fmt.Errorf("%w (%d)", ErrMaxRounds, rs.opts.MaxRounds)
		}
	}
	rs.err = err
	rs.over = err != nil || live == 0
}

// retire is shard d's share of retiring a round that delivers, run by d's
// driver after the barrier: it flushes the send accounting of the nodes
// that ran (sends buffered before this barrier count even if the sender has
// finished; a barrier that aborts or ends the run never gets here), drains
// the relay rings addressed to d, files new sleepers and wakes the marked
// and due ones. The awake set is left in ascending ID order, so the driver
// walks the node table and the mailbox arena in address order.
func (rs *runState) retire(d *shard) {
	if len(rs.shards) > 1 {
		rs.drain(d)
	}
	now := int32(rs.rounds)
	w := 0
	for _, id := range d.awake {
		nd := &rs.nodes[id]
		d.msgs += nd.pMsgs
		d.bitsSum += nd.pBits
		d.maxBits = max(d.maxBits, nd.pMax)
		nd.pMsgs, nd.pBits, nd.pMax = 0, 0, 0
		switch nd.arrival {
		case arriveStep:
			d.awake[w] = id
			w++
		case arriveSleep:
			// Senders that ran before this node in the retired round saw it
			// awake and did not mark it: look for their messages directly.
			if rs.hasMail(nd, now) {
				d.awake[w] = id
				w++
			} else {
				d.sleep(nd)
			}
		case arriveIdle:
			d.sleep(nd)
		}
	}
	d.awake = d.awake[:w]
	for _, id := range d.wakeList {
		d.heap.remove(id)
		d.rouse(id)
	}
	d.wakeList = d.wakeList[:0]
	for h := &d.heap; len(h.items) > 0 && h.items[0].round <= now; {
		id := h.items[0].node
		h.remove(id)
		d.rouse(id)
	}
	if len(d.awake) > w {
		slices.Sort(d.awake)
	}
}

// drain copies every relay ring addressed to shard d into d's window of the
// mailbox arena, marking the sleepers the messages reach, and resets the
// rings. It runs between the barrier and d's next round, when the rings'
// writers (last round's senders) are done and d's nodes not yet resumed.
func (rs *runState) drain(d *shard) {
	stamp := int32(rs.rounds)
	buf := stamp & 1
	st, pay := rs.stamp[buf], rs.pay[buf]
	p := len(rs.shards)
	mark := len(d.heap.items) != 0
	for src := range p {
		ring := &rs.rings[buf][src*p+int(d.idx)]
		for _, m := range *ring {
			st[m.slot] = stamp
			pay[m.slot] = m.pay
			if mark {
				d.markMail(graph.NodeID(m.to))
			}
		}
		*ring = (*ring)[:0]
	}
}

// relay sends p on arc k to slot s of another shard: the sender-side stamp
// catches a second send on the arc, and unless the lossy network drops it
// the message rides the ring to the receiver's shard.
func (c *Ctx) relay(k int, s, stamp int32, p Payload) {
	rs := c.run
	buf := stamp & 1
	a := c.lo + int32(k)
	if rs.outStamp[buf][a] == stamp {
		c.sentTwice(k)
	}
	rs.outStamp[buf][a] = stamp
	if rs.dropThresh != 0 && dropped(rs.dropThresh, rs.faultSeed, stamp, s) {
		return
	}
	ring := &rs.rings[buf][int(c.shard.idx)*len(rs.shards)+int(rs.shardOf(s))]
	*ring = append(*ring, relayMsg{slot: s, to: int32(c.arcs[k].To), pay: p})
}

// shardOf returns the shard owning global arc slot s: the largest i with
// arcBounds[i] <= s. Empty arc ranges (shards of isolated vertices) are
// skipped naturally by taking the largest such i.
func (rs *runState) shardOf(s int32) int32 {
	lo, hi := 0, len(rs.shards)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if rs.arcBounds[mid] <= s {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return int32(lo)
}

// hasMail reports whether a readable (undropped) message stamped for round
// stamp waits in one of nd's mailbox slots.
func (rs *runState) hasMail(nd *Ctx, stamp int32) bool {
	buf := stamp & 1
	st, pay := rs.stamp[buf], rs.pay[buf]
	for s := nd.lo; s < nd.lo+int32(len(nd.arcs)); s++ {
		if st[s] == stamp && pay[s] != nil {
			return true
		}
	}
	return false
}

// sleep files an arriving sleeper or idler in the wake heap.
func (d *shard) sleep(nd *Ctx) {
	d.asleep[nd.id] = nd.arrival
	d.heap.push(int32(nd.id), nd.wakeAt)
}

// rouse clears a woken node's sleep flag (a mail wake's sender already did)
// and adds it to the awake set.
func (d *shard) rouse(id int32) {
	d.asleep[id] = 0
	d.awake = append(d.awake, id)
}

// markMail wakes sleeping receiver v for the round a message sent to it
// becomes readable: the first sender to flip its flag files it in the wake
// list. An idler's flag never matches, so mail does not wake it.
func (d *shard) markMail(v graph.NodeID) {
	if d.asleep[v] == arriveSleep {
		d.asleep[v] = 0
		d.wakeList = append(d.wakeList, int32(v))
	}
}

// wakeHeap is an indexed binary min-heap of sleeping nodes ordered by (wake
// round, node ID); pos[v] is v's index in items while v sleeps. items has
// room for every node of the shard and pos for every node of the run, so no
// operation allocates.
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

// acquire takes a runState from the pool and binds it to a run of opts on g
// cut into opts.Shards shards: it resets the node table, applies the fault plan's
// crash schedule, sizes the arenas and cuts the shards. All buffers grow to
// high-water marks and are reused across runs; freshly grown arrays are zero
// and released ones were scrubbed by release, so stamps start unoccupied
// without a per-run clear.
func acquire(g *graph.Graph, opts Options) *runState {
	rs := statePool.Get().(*runState)
	n := g.NumNodes()
	numArcs := int(g.ArcOffset(n))
	rs.g, rs.opts = g, opts
	rs.rev, rs.order = g.RevArcs(), g.ArcsByNeighborID()
	for i := range rs.stamp {
		rs.stamp[i] = growInt32(rs.stamp[i], numArcs)
		rs.pay[i] = growPayload(rs.pay[i], numArcs)
	}
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
		nd.rngSeeded = false
		nd.arrival = 0
		nd.err = nil
		nd.inbox = nd.inbox[:0]
		nd.pMsgs, nd.pBits, nd.pMax = 0, 0, 0
	}
	if plan != nil {
		for _, cr := range plan.Crashes {
			// The earliest crash round wins; a round past the stamp space
			// never comes.
			if nd, r := &rs.nodes[cr.Node], int32(min(cr.Round, noCrash)); r < nd.crashAt {
				nd.crashAt = r
			}
		}
	}
	rs.awake = growInt32(rs.awake, n)
	rs.wakeList = growInt32(rs.wakeList, n)
	rs.asleep = growInt32(rs.asleep, n)
	clear(rs.asleep)
	rs.heapPos = growInt32(rs.heapPos, n)
	if cap(rs.heapItem) < n {
		rs.heapItem = make([]wakeItem, n)
	}
	rs.cut(g, opts.Shards)
	rs.rounds, rs.err, rs.over, rs.goexit = 0, nil, false, false
	return rs
}

// cut splits the run into p arc-balanced shards (fewer when g has fewer
// nodes), gives each its windows of the run-wide arrays with every node
// awake, and sizes the relay rings.
func (rs *runState) cut(g *graph.Graph, p int) {
	bounds := partition.ShardBounds(g, p)
	p = len(bounds) - 1
	rs.arcBounds = growInt32(rs.arcBounds, p+1)
	for i, v := range bounds {
		rs.arcBounds[i] = g.ArcOffset(int(v))
	}
	if len(rs.shards) < p {
		rs.shards = make([]shard, p)
	}
	rs.shards = rs.shards[:p]
	for i := range rs.shards {
		d := &rs.shards[i]
		lo, hi := bounds[i], bounds[i+1]
		d.idx, d.lo, d.hi = int32(i), lo, hi
		d.arcLo, d.arcHi = rs.arcBounds[i], rs.arcBounds[i+1]
		d.awake = rs.awake[lo:hi:hi]
		for j := range d.awake {
			d.awake[j] = lo + int32(j)
			rs.nodes[lo+int32(j)].shard = d
		}
		d.asleep = rs.asleep
		d.wakeList = rs.wakeList[lo:lo:hi]
		d.heap = wakeHeap{items: rs.heapItem[lo:lo:hi], pos: rs.heapPos}
		d.live, d.err = 0, nil
		d.msgs, d.bitsSum, d.maxBits = 0, 0, 0
	}
	if p > 1 {
		numArcs := len(rs.rev)
		for b := range rs.outStamp {
			rs.outStamp[b] = growInt32(rs.outStamp[b], numArcs)
		}
		rs.sizeRings(p)
	}
}

// sizeRings sizes the relay rings to the exact boundary-arc count of every
// ordered shard pair, reusing ring buffers and the count table across runs.
func (rs *runState) sizeRings(p int) {
	rs.ringCap = growInt32(rs.ringCap, p*p)
	clear(rs.ringCap)
	for src := range p {
		for a := rs.arcBounds[src]; a < rs.arcBounds[src+1]; a++ {
			if dst := rs.shardOf(rs.rev[a]); dst != int32(src) {
				rs.ringCap[src*p+int(dst)]++
			}
		}
	}
	for b := range rs.rings {
		if len(rs.rings[b]) < p*p {
			rs.rings[b] = make([][]relayMsg, p*p)
		}
		rs.rings[b] = rs.rings[b][:p*p]
		for i, ring := range rs.rings[b] {
			if c := int(rs.ringCap[i]); cap(ring) < c {
				rs.rings[b][i] = make([]relayMsg, 0, c)
			}
		}
	}
}

// release waits for every driver, scrubs the arenas, the relay rings and
// every graph and payload reference — so pooled state neither resurrects
// ghost messages nor pins a finished run's memory — and returns rs to the
// pool.
func release(rs *runState) {
	rs.wg.Wait()
	for b := range rs.stamp {
		clear(rs.stamp[b])
		clear(rs.pay[b])
	}
	if len(rs.shards) > 1 {
		for b := range rs.outStamp {
			clear(rs.outStamp[b])
			for i, ring := range rs.rings[b] {
				clear(ring[:cap(ring)])
				rs.rings[b][i] = ring[:0]
			}
		}
	}
	if rs.opts.Model == ModelRadio {
		// Only a radio run writes the transmission arenas.
		for b := range rs.txStamp {
			clear(rs.txStamp[b])
			clear(rs.txPay[b])
		}
	}
	for v := 0; v < rs.g.NumNodes(); v++ {
		nd := &rs.nodes[v]
		clear(nd.inbox[:cap(nd.inbox)])
		nd.inbox = nd.inbox[:0]
		nd.g = nil
		nd.arcs = nil
		nd.run, nd.shard = nil, nil
	}
	rs.g = nil
	rs.rev, rs.order = nil, nil
	rs.dropThresh = 0
	rs.err = nil
	statePool.Put(rs)
}
