package congest

import (
	"fmt"
	"math"
	"sync/atomic"

	"lcshortcut/internal/graph"
)

// This file is the engine's pluggable fault layer. A FaultPlan turns the
// perfectly synchronous, fault-free CONGEST simulation into a faulty one —
// seeded crash-stop node failures, per-arc/per-round message loss, and an
// adversarial reordering of inbox materialization — while preserving the
// engine's two core guarantees:
//
//   - Determinism. Every fault decision is a pure function of the plan and
//     static run coordinates (round number, arc slot, node ID), never of
//     goroutine scheduling, so a (graph, proc, Options) triple still produces
//     one exact outcome, identical on EngineEventLoop and EngineSharded at
//     every shard count and at any harness worker count.
//   - The fault-free fast path is untouched. A nil (or empty) plan costs one
//     predictable branch per operation: no allocation, no extra memory
//     traffic. Faulty event-loop runs use an epoch-stamped drop mask laid
//     out exactly like the mailbox stamp arenas (pooled, never cleared
//     between rounds); the sharded engine stamps a dropped message with a
//     nil payload instead.
//
// # The fault model's determinism contract
//
// Crash-stop: a node with crash round R behaves normally through round R-1 —
// its round-(R-1) sends are delivered — and never participates in round R or
// later: it sends nothing, its mailbox slots stop being read, and the engine
// retires its goroutine at the barrier ending round R-1 exactly as if its
// Proc had returned. (For R = 0 the node's round-0 code still executes
// locally, but every send is suppressed, so nothing it does is observable;
// the network sees a node that was dead from the start.)
//
// Message drop: each message is dropped independently with probability
// DropProb, decided by hashing (plan seed, delivery round, receiver arc
// slot). The sender still pays for the message — Stats counts messages SENT,
// the model's communication cost — and still consumes its one-per-edge-
// direction budget for the round (a second send on the same arc remains a
// model violation); the message simply never materializes in any inbox.
//
// Adversary: the scheduler adversary may permute the order in which
// StepRound materializes an inbox — the one freedom the CONGEST model leaves
// to the network, which the engines otherwise fix to ascending sender ID.
// AdversaryRotate applies a seeded per-(node, round) rotation. It may NOT
// delay, duplicate, forge or drop messages, and arc-addressed reads
// (InboxArc) are unaffected.
//
// What the adversary and the plan may never do: violate neighbor-only
// delivery, deliver a message in any round other than the one after its
// send, or resurrect a crashed node.

// Crash schedules one crash failure: node Node halts at round Round
// (see the fault-model contract above for the exact boundary semantics).
//
// Downtime selects between the two crash modes. Zero (the historical
// default) is crash-stop: the node never returns. A positive Downtime is
// crash-recovery: the node is dead for exactly Downtime rounds — silent,
// deaf, indistinguishable from a crash-stop node — and then rejoins at round
// Round+Downtime with completely fresh protocol state: its Proc is invoked
// again from the top, its random source is reseeded for the new incarnation,
// and Ctx.Incarnation() reports how many times it has crashed so protocols
// can run a state-sync path. The network does not announce the rejoin:
// messages sent to the node in its last down round are readable at the
// rejoin round (senders cannot know the node was down), and everything the
// node missed in between is gone. Both engines honor the same schedule
// identically.
type Crash struct {
	Node  graph.NodeID
	Round int
	// Downtime is the number of rounds the node stays down; 0 means forever
	// (crash-stop).
	Downtime int
}

// rejoinRound returns the round at which this crash entry rejoins, or
// noCrash for a crash-stop entry (including downtimes that overflow the
// stamp space — a node down past the watchdog horizon never rejoins).
func (cr Crash) rejoinRound() int32 {
	if cr.Downtime <= 0 {
		return noCrash
	}
	if r := int64(cr.Round) + int64(cr.Downtime); r < noCrash {
		return int32(r)
	}
	return noCrash
}

// Adversary selects the inbox-materialization schedule.
type Adversary int32

const (
	// AdversaryNone materializes inboxes in ascending sender ID — the
	// engines' historical deterministic order.
	AdversaryNone Adversary = iota
	// AdversaryRotate rotates each materialized inbox by a seeded
	// per-(node, round) offset: a legal adversarial schedule that breaks any
	// protocol silently relying on sender-sorted inboxes.
	AdversaryRotate
)

// FaultPlan configures the fault layer for one run. The zero value (and a
// nil plan) is the fault-free network; Options.Faults plugs a plan into a
// run. A plan is read-only while any run using it is in flight and may be
// shared across concurrent runs.
type FaultPlan struct {
	// Crashes lists crash-stop failures. Several entries for one node keep
	// the earliest round.
	Crashes []Crash
	// DropProb is the independent per-message loss probability in [0, 1].
	DropProb float64
	// Adversary selects the inbox-materialization schedule.
	Adversary Adversary
	// Seed drives every fault decision (drops and adversarial reordering).
	// It is deliberately independent of Options.Seed: the same plan replays
	// the same faults under any protocol randomness.
	Seed int64
}

// Empty reports whether the plan injects no fault at all — such a plan is
// contractually a no-op: runs under it are byte-identical to nil-plan runs.
func (p *FaultPlan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && p.DropProb == 0 && p.Adversary == AdversaryNone)
}

// validate rejects malformed plans before a run starts.
func (p *FaultPlan) validate(n int) error {
	if p == nil {
		return nil
	}
	if p.DropProb < 0 || p.DropProb > 1 || math.IsNaN(p.DropProb) {
		return fmt.Errorf("congest: FaultPlan.DropProb %v outside [0, 1]", p.DropProb)
	}
	if p.Adversary != AdversaryNone && p.Adversary != AdversaryRotate {
		return fmt.Errorf("congest: unknown FaultPlan.Adversary %d", p.Adversary)
	}
	for _, cr := range p.Crashes {
		if cr.Node < 0 || cr.Node >= n {
			return fmt.Errorf("congest: FaultPlan crashes node %d outside [0, %d)", cr.Node, n)
		}
		if cr.Round < 0 {
			return fmt.Errorf("congest: FaultPlan crashes node %d at negative round %d", cr.Node, cr.Round)
		}
		if cr.Downtime < 0 {
			return fmt.Errorf("congest: FaultPlan crashes node %d with negative downtime %d", cr.Node, cr.Downtime)
		}
	}
	return nil
}

// dropThreshold converts DropProb into the uint64 comparison threshold of
// the per-message drop hash; 0 disables the drop path entirely.
func (p *FaultPlan) dropThreshold() uint64 {
	switch {
	case p == nil || p.DropProb <= 0:
		return 0
	case p.DropProb >= 1:
		return math.MaxUint64
	default:
		return uint64(p.DropProb * float64(1<<32) * float64(1<<32))
	}
}

// noCrash is the sentinel crash round of a node the plan never crashes.
const noCrash = math.MaxInt32

// errCrashed is panicked into a node goroutine at the barrier where its
// scheduled crash-stop takes effect, so it unwinds like a normal return.
var errCrashed = fmt.Errorf("congest: node crashed (fault plan)")

// errCrashedRecover is panicked instead when the crash entry schedules a
// recovery, once the node has slept through its downtime window: the node
// wrapper catches it and restarts the Proc as a new incarnation.
var errCrashedRecover = fmt.Errorf("congest: node crashed, recovery scheduled (fault plan)")

// Distinct hash streams keep drop and adversary decisions decorrelated even
// under equal plan seeds.
const (
	dropStream      = 0x7D0C_2016_5AFE_0001
	adversaryStream = 0x7D0C_2016_5AFE_0002
	planStream      = 0x7D0C_2016_5AFE_0003
)

// faultHash mixes a plan seed, a stream selector and two run coordinates
// into a uniform uint64 (splitmix64 finalizer over the combined words). It
// is the single source of fault randomness: pure, allocation-free and
// identical on both engines.
func faultHash(seed int64, stream uint64, x, y int32) uint64 {
	z := uint64(seed) ^ stream
	z = (z + uint64(uint32(x))*0x9E3779B97F4A7C15) + uint64(uint32(y))*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// dropped decides whether the message stamped `stamp` into receiver arc slot
// s is lost. Both engines key the decision on the receiver-side slot (the
// global CSR arc index, reached through the reverse-arc permutation), so they
// lose exactly the same messages at every shard count.
func dropped(thresh uint64, seed int64, stamp, s int32) bool {
	return faultHash(seed, dropStream, stamp, s) < thresh
}

// scrambleInbox applies the AdversaryRotate schedule to one materialized
// inbox: an in-place rotation (three reversals, allocation-free) by a seeded
// per-(node, round) offset.
func scrambleInbox(seed int64, round int, node graph.NodeID, in []Message) {
	if len(in) < 2 {
		return
	}
	k := int(faultHash(seed, adversaryStream, int32(round), int32(node)) % uint64(len(in)))
	if k == 0 {
		return
	}
	reverseMessages(in[:k])
	reverseMessages(in[k:])
	reverseMessages(in)
}

func reverseMessages(in []Message) {
	for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
		in[i], in[j] = in[j], in[i]
	}
}

// defaultFaults is the process-wide plan injected into runs whose Options
// carry no plan of their own; see SetDefaultFaults.
var defaultFaults atomic.Pointer[FaultPlan]

// SetDefaultFaults installs a plan applied to every Run whose Options.Faults
// is nil, and returns the previous default. It is the chaos-testing
// injection point: a differential harness can replay an entire experiment
// suite under a plan without touching experiment code. Like SetEngine, it
// must not be called while simulations are in flight.
func SetDefaultFaults(p *FaultPlan) *FaultPlan {
	return defaultFaults.Swap(p)
}

// RandomCrashes builds a seeded crash-stop schedule: every node except
// `spare` (pass -1 to exempt nobody) crashes independently with probability
// frac, at a round drawn uniformly from [1, window]. The schedule is a pure
// function of the arguments — the deterministic building block for crashy
// scenario variants.
func RandomCrashes(n int, frac float64, window int, spare graph.NodeID, seed int64) []Crash {
	return RandomRecoveries(n, frac, window, 0, spare, seed)
}

// RandomRecoveries is RandomCrashes with a recovery: every scheduled crash
// gets a downtime drawn uniformly from [1, maxDown] (maxDown <= 0 degrades
// to crash-stop, i.e. RandomCrashes exactly). Node selection and crash
// rounds are byte-identical to RandomCrashes under equal arguments, so a
// crashy scenario and its recovering twin kill the same nodes at the same
// rounds.
func RandomRecoveries(n int, frac float64, window, maxDown int, spare graph.NodeID, seed int64) []Crash {
	if frac <= 0 || window < 1 || n <= 0 {
		return nil
	}
	thresh := uint64(math.MaxUint64)
	if frac < 1 {
		thresh = uint64(frac * float64(1<<32) * float64(1<<32))
	}
	var out []Crash
	for v := 0; v < n; v++ {
		if v == spare {
			continue
		}
		h := faultHash(seed, planStream, int32(v), 0)
		if h < thresh {
			round := 1 + int(faultHash(seed, planStream, int32(v), 1)%uint64(window))
			down := 0
			if maxDown > 0 {
				down = 1 + int(faultHash(seed, planStream, int32(v), 2)%uint64(maxDown))
			}
			out = append(out, Crash{Node: v, Round: round, Downtime: down})
		}
	}
	return out
}
