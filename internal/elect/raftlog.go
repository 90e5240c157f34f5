package elect

import (
	"fmt"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/graph"
)

// This file completes raft.go's heartbeat skeleton into a COMMITTING Raft:
// leader-driven log replication, quorum match-index commit and term-safe log
// adoption, adapted to synchronous CONGEST flooding on arbitrary graphs
// (real Raft assumes a complete point-to-point network; here every fact must
// travel one hop per logical round).
//
// The adaptation replaces per-follower AppendEntries RPCs with MONOTONE-FACT
// GOSSIP: each node sends its entire consensus view to every neighbor every
// round, and every merge is a pointwise monotone max (terms, heartbeat
// sequence numbers, vote facts, match lengths, commit index) or a
// lexicographic max (the replicated log, ordered by (accTerm, length)) —
// so the final state is a function of the multiset of received messages,
// never of arrival order, and every shard count agrees bit for bit.
//
// Log replication is WHOLESALE: a message carries the sender's full log
// stamped with accTerm, the term of the leader that produced it. Since a
// leader's log for one term only grows, logs with equal accTerm are
// prefix-ordered, and adopting the (accTerm, length)-max log performs
// Raft's term-safe conflict truncation implicitly. The election restriction
// — vote only for candidates whose (accTerm, length) is at least yours —
// then gives the standard safety induction: a leader of term T holds every
// entry committed in terms below T, so commits never conflict.
//
// The protocol is written against congest.Net and is intended to run OVER
// the reliable transport (reliable.Ctx) on lossy networks: the transport
// handles message loss, Raft handles crash-stop failures, and the layering
// keeps each concern provable on its own. It runs unmodified on a raw *Ctx
// for fault-free or crash-only demonstrations.

// RaftEntry is one replicated log slot.
type RaftEntry struct {
	// Term is the term of the leader that appended the entry.
	Term int32
	// Cmd is the payload; leaders derive it deterministically from
	// (leader, index) so runs are reproducible.
	Cmd int64
}

// RaftLogConfig tunes the committing Raft. The zero value picks usable
// defaults (but Rounds should comfortably exceed timeout + diameter +
// Entries for commits to land).
type RaftLogConfig struct {
	// Rounds is the total simulated duration in logical rounds (default 96).
	Rounds int
	// Entries is the log length the leader drives to (default 4). The leader
	// appends one entry per round until its log holds Entries entries of any
	// term, plus — when the tail predates its own term — one terminating
	// no-op so the commit rule can engage.
	Entries int
	// TimeoutMin and TimeoutSpread mirror RaftConfig: silence in logical
	// rounds before a candidacy, with a per-node randomized extra drawn on
	// every term change (defaults 16 and 8). Unlike real Raft's complete
	// network, facts here flood one hop per round, so TimeoutMin must
	// comfortably exceed VoteDelay + 2×diameter or follower timeouts fire
	// mid-election and terms churn; use TunedFor when the diameter is known.
	TimeoutMin    int
	TimeoutSpread int
	// VoteDelay is how many rounds a voter sits on a known candidacy before
	// casting its single per-term vote (default 4). On a complete network
	// Raft voters answer the first valid RequestVote; on a diameter-d graph
	// that fragments the vote among whichever candidate happens to be
	// nearest, so voters instead wait VoteDelay ≥ 2d rounds — long enough
	// for every candidacy of the term to flood in — and then all pick the
	// same (lastTerm, lastLen, id)-best candidate.
	VoteDelay int
}

// TunedFor returns cfg with the timing fields derived from the graph
// diameter d (and Rounds sized for two full election cycles plus
// replication and commit flooding), preserving Entries.
func (c RaftLogConfig) TunedFor(d int) RaftLogConfig {
	c = c.withDefaults()
	c.VoteDelay = 2*d + 2
	c.TimeoutMin = c.VoteDelay + 2*d + 4
	c.TimeoutSpread = d + 4
	c.Rounds = 2*(c.TimeoutMin+c.TimeoutSpread+c.VoteDelay+5*d+c.Entries) + 16
	return c
}

func (c RaftLogConfig) withDefaults() RaftLogConfig {
	if c.Rounds <= 0 {
		c.Rounds = 96
	}
	if c.Entries <= 0 {
		c.Entries = 4
	}
	if c.TimeoutMin <= 0 {
		c.TimeoutMin = 16
	}
	if c.TimeoutSpread <= 0 {
		c.TimeoutSpread = 8
	}
	if c.VoteDelay <= 0 {
		c.VoteDelay = 4
	}
	return c
}

// RaftLogOutcome is one node's final consensus view.
type RaftLogOutcome struct {
	// Term is the node's final term.
	Term int
	// Leader is the node's final leader belief (-1 if it never saw one).
	Leader graph.NodeID
	// Commit is the length of the committed prefix.
	Commit int
	// Committed is the committed prefix itself.
	Committed []RaftEntry
	// Elections counts the candidacies this node started.
	Elections int
}

// raftCand is a candidacy fact: who is running in a term and how complete
// their log was when they declared (the election-restriction credentials).
type raftCand struct {
	id       graph.NodeID
	lastTerm int32
	lastLen  int32
}

// better orders candidacies of one term by credentials, id as tiebreak, so
// all voters converge on the same choice among the candidacies they know.
func (c raftCand) better(o raftCand) bool {
	if c.lastTerm != o.lastTerm {
		return c.lastTerm > o.lastTerm
	}
	if c.lastLen != o.lastLen {
		return c.lastLen > o.lastLen
	}
	return c.id > o.id
}

// raftMsg is one node's full consensus view, gossiped every round. Slices
// are freshly copied by the sender each round: receivers on the event-loop
// engine read them concurrently with the sender's next round.
type raftMsg struct {
	term    int32    // sender's current term; cand/votes/seq/match speak about it
	cand    raftCand // best known candidacy (id < 0: none)
	votes   []int32  // votes[v] = candidate v voted for this term (-1 unknown)
	seq     int32    // leader heartbeat sequence for this term (0: no leader yet)
	leader  graph.NodeID
	match   []int32     // match[v] = v's log length while v's accTerm == term
	accTerm int32       // term of the leader that produced log
	log     []RaftEntry // the full replicated log
	commit  int32       // highest known committed index
	bits    int
}

func (m *raftMsg) Bits() int { return m.bits }

// raftNode is the per-node protocol state.
type raftNode struct {
	ctx       congest.Net
	cfg       RaftLogConfig
	n         int
	quorum    int
	term      int32
	role      int // follower/candidate/leader
	cand      raftCand
	candAge   int // rounds since the first candidacy of this term was learned (-1: none)
	votes     []int32
	seq       int32
	leader    graph.NodeID
	match     []int32
	accTerm   int32
	log       []RaftEntry
	commit    int32
	hist      []RaftEntry // committed prefix copy, for the append-only self-check
	since     int         // rounds since term-relevant news (heartbeat or term change)
	timeout   int
	elections int
}

const (
	roleFollower = iota
	roleCandidate
	roleLeader
)

// RaftLog returns the committing-Raft Proc for raw-engine runs; out is
// indexed by node ID.
func RaftLog(cfg RaftLogConfig, out []RaftLogOutcome) congest.Proc {
	return func(ctx *congest.Ctx) error {
		return RaftLogNet(ctx, cfg, out)
	}
}

// RaftLogNet is the committing Raft against the abstract transport surface;
// run it over reliable.Ctx to get loss tolerance from the transport layer.
func RaftLogNet(ctx congest.Net, cfg RaftLogConfig, out []RaftLogOutcome) error {
	cfg = cfg.withDefaults()
	nd := &raftNode{
		ctx:     ctx,
		cfg:     cfg,
		n:       ctx.N(),
		quorum:  ctx.N()/2 + 1,
		cand:    raftCand{id: -1},
		candAge: -1,
		votes:   make([]int32, ctx.N()),
		match:   make([]int32, ctx.N()),
		leader:  -1,
		timeout: cfg.TimeoutMin + ctx.Rand().Intn(cfg.TimeoutSpread),
	}
	for v := range nd.votes {
		nd.votes[v] = -1
	}
	for r := 0; r < cfg.Rounds; r++ {
		if err := nd.tick(); err != nil {
			return err
		}
	}
	out[ctx.ID()] = RaftLogOutcome{
		Term:      int(nd.term),
		Leader:    nd.leader,
		Commit:    int(nd.commit),
		Committed: append([]RaftEntry(nil), nd.log[:nd.commit]...),
		Elections: nd.elections,
	}
	return nil
}

// tick is one logical round: act on local state, gossip, merge the inbox.
func (nd *raftNode) tick() error {
	nd.act()
	nd.send()
	in := nd.ctx.StepRound()
	return nd.merge(in)
}

// act runs the local state machine: timeouts, candidacy, leadership duties.
func (nd *raftNode) act() {
	me := nd.ctx.ID()
	if nd.cand.id >= 0 {
		nd.candAge++
	}
	switch nd.role {
	case roleLeader:
		nd.seq++ // heartbeat
		// Drive the log to Entries slots, then cap it with an own-term no-op
		// if the tail predates this term (Raft leaders may only count
		// replicas of their OWN term toward commit; the no-op unlocks the
		// older entries underneath it).
		if len(nd.log) < nd.cfg.Entries {
			nd.log = append(nd.log[:len(nd.log):len(nd.log)],
				RaftEntry{Term: nd.term, Cmd: int64(me)<<32 | int64(len(nd.log)+1)})
		} else if nd.log[len(nd.log)-1].Term != nd.term {
			nd.log = append(nd.log[:len(nd.log):len(nd.log)], RaftEntry{Term: nd.term})
		}
		nd.match[me] = int32(len(nd.log))
		// Quorum match-index commit, restricted to own-term entries.
		for i := int32(len(nd.log)); i > nd.commit; i-- {
			if nd.log[i-1].Term != nd.term {
				break
			}
			cnt := 0
			for v := 0; v < nd.n; v++ {
				if nd.match[v] >= i {
					cnt++
				}
			}
			if cnt >= nd.quorum {
				nd.commit = i
				break
			}
		}
	default:
		nd.since++
		if nd.since >= nd.timeout {
			// Silence: start (or restart) a candidacy in a fresh term.
			nd.startTerm(nd.term + 1)
			nd.role = roleCandidate
			nd.elections++
			nd.cand = raftCand{id: me, lastTerm: nd.accTerm, lastLen: int32(len(nd.log))}
			nd.candAge = 0
			nd.votes[me] = int32(me)
		}
	}
	// Vote for the best candidacy we know, under the election restriction —
	// but only after sitting on it for VoteDelay rounds, so every candidacy
	// of the term has flooded in and all voters pick the same best.
	if nd.votes[me] < 0 && nd.cand.id >= 0 && nd.candAge >= nd.cfg.VoteDelay &&
		(nd.cand.lastTerm > nd.accTerm ||
			(nd.cand.lastTerm == nd.accTerm && nd.cand.lastLen >= int32(len(nd.log)))) {
		nd.votes[me] = int32(nd.cand.id)
	}
	// Candidate with a quorum of votes becomes leader and owns the log.
	if nd.role == roleCandidate {
		cnt := 0
		for v := 0; v < nd.n; v++ {
			if nd.votes[v] == int32(me) {
				cnt++
			}
		}
		if cnt >= nd.quorum {
			nd.role = roleLeader
			nd.leader = me
			nd.seq = 0
			nd.accTerm = nd.term
			for v := range nd.match {
				nd.match[v] = 0
			}
			nd.match[me] = int32(len(nd.log))
		}
	}
	if nd.accTerm == nd.term {
		nd.match[me] = int32(len(nd.log))
	}
}

// startTerm resets all per-term state for a newly adopted term.
func (nd *raftNode) startTerm(t int32) {
	nd.term = t
	nd.role = roleFollower
	nd.cand = raftCand{id: -1}
	nd.candAge = -1
	for v := range nd.votes {
		nd.votes[v] = -1
	}
	nd.seq = 0
	nd.leader = -1
	for v := range nd.match {
		nd.match[v] = 0
	}
	if nd.accTerm == nd.term {
		nd.match[nd.ctx.ID()] = int32(len(nd.log))
	}
	nd.since = 0
	nd.timeout = nd.cfg.TimeoutMin + nd.ctx.Rand().Intn(nd.cfg.TimeoutSpread)
}

// send gossips the full view to every neighbor. Slices are copied: the
// receivers read them in the next round, concurrently with our mutations.
func (nd *raftNode) send() {
	idb := nd.ctx.IDBits()
	m := &raftMsg{
		term:    nd.term,
		cand:    nd.cand,
		votes:   append([]int32(nil), nd.votes...),
		seq:     nd.seq,
		leader:  nd.leader,
		match:   append([]int32(nil), nd.match...),
		accTerm: nd.accTerm,
		log:     append([]RaftEntry(nil), nd.log...),
		commit:  nd.commit,
	}
	m.bits = 20 + (40 + idb) + nd.n*(idb+1) + 32 + idb + nd.n*20 + 20 + len(nd.log)*60 + 20
	nd.ctx.SendAll(m)
}

// merge folds the round's inbox into local state. Two passes keep the
// result invariant under inbox order: first the term high-water mark, then
// the per-term monotone merges.
func (nd *raftNode) merge(in []congest.Message) error {
	for _, msg := range in {
		if m := msg.Payload.(*raftMsg); m.term > nd.term {
			nd.startTerm(m.term)
		}
	}
	me := nd.ctx.ID()
	// progress records election news — a new candidacy or a new vote — which
	// resets the silence timer: an election that is still converging (facts
	// flooding over diameter-many rounds) must not trigger a re-timeout.
	progress := false
	for _, msg := range in {
		m := msg.Payload.(*raftMsg)
		// Log adoption is term-free: (accTerm, length) lexicographic max.
		if m.accTerm > nd.accTerm || (m.accTerm == nd.accTerm && len(m.log) > len(nd.log)) {
			if nd.role == roleLeader && m.accTerm == nd.accTerm {
				return fmt.Errorf("elect: raft leader %d of term %d saw a longer log of its own term", me, nd.term)
			}
			nd.log = append(nd.log[:0], m.log...)
			nd.accTerm = m.accTerm
			if nd.accTerm == nd.term {
				nd.match[me] = int32(len(nd.log))
			}
		}
		if m.commit > nd.commit {
			nd.commit = m.commit
		}
		if m.term < nd.term {
			continue // stale per-term facts; the log/commit above still counted
		}
		if m.cand.id >= 0 && (nd.cand.id < 0 || m.cand.better(nd.cand)) {
			if nd.cand.id < 0 {
				nd.candAge = 0
			}
			nd.cand = m.cand
			progress = true
		}
		for v := 0; v < nd.n; v++ {
			switch {
			case nd.votes[v] < 0:
				nd.votes[v] = m.votes[v]
				if m.votes[v] >= 0 {
					progress = true
				}
			case m.votes[v] >= 0 && m.votes[v] != nd.votes[v]:
				return fmt.Errorf("elect: raft saw conflicting votes by node %d in term %d", v, nd.term)
			}
			if m.match[v] > nd.match[v] {
				nd.match[v] = m.match[v]
			}
		}
		if m.seq > nd.seq {
			nd.seq = m.seq
			nd.leader = m.leader
			nd.since = 0
			if nd.role == roleCandidate {
				nd.role = roleFollower // a live leader exists in this term
			}
		}
	}
	if progress {
		nd.since = 0
	}
	// Post-merge invariants: the committed prefix is within the log and
	// extends what this node previously committed.
	if int(nd.commit) > len(nd.log) {
		return fmt.Errorf("elect: raft node %d commit %d exceeds log length %d (safety violation)", me, nd.commit, len(nd.log))
	}
	for i, e := range nd.hist {
		if nd.log[i] != e {
			return fmt.Errorf("elect: raft node %d rewrote committed entry %d (safety violation)", me, i)
		}
	}
	if int(nd.commit) > len(nd.hist) {
		nd.hist = append(nd.hist, nd.log[len(nd.hist):nd.commit]...)
	}
	return nil
}

// RaftLogConsistent checks the safety acceptance criterion over a finished
// run: every pair of committed prefixes (crashed nodes excluded via skip)
// must be prefix-compatible — no two nodes ever commit conflicting entries.
func RaftLogConsistent(out []RaftLogOutcome, skip func(graph.NodeID) bool) error {
	var longest []RaftEntry
	owner := -1
	for v, o := range out {
		if skip != nil && skip(v) {
			continue
		}
		if len(o.Committed) > len(longest) {
			longest, owner = o.Committed, v
		}
	}
	for v, o := range out {
		if skip != nil && skip(v) {
			continue
		}
		for i, e := range o.Committed {
			if longest[i] != e {
				return fmt.Errorf("elect: nodes %d and %d committed conflicting entries at index %d", v, owner, i)
			}
		}
	}
	return nil
}

// QuorumComponent returns the surviving connected component of g (dead marks
// the crashed nodes) holding at least a quorum of the original n nodes, or
// nil if none does — the only place Raft liveness can be demanded after
// crashes.
func QuorumComponent(g *graph.Graph, dead map[graph.NodeID]bool) []graph.NodeID {
	n := g.NumNodes()
	seen := make([]bool, n)
	for s := 0; s < n; s++ {
		if seen[s] || dead[s] {
			continue
		}
		comp := []graph.NodeID{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			to, _ := g.Arcs(comp[i])
			for _, w := range to {
				if !seen[w] && !dead[int(w)] {
					seen[w] = true
					comp = append(comp, int(w))
				}
			}
		}
		if len(comp) >= n/2+1 {
			return comp
		}
	}
	return nil
}
