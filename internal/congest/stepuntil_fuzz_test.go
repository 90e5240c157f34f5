package congest

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lcshortcut/internal/gen"
)

// sleepyProc runs a random per-node script that mixes sends (SendArc and
// SendAll) with every kind of barrier: StepUntil toward a past, the next, a
// near, a far and an unbounded round, Idle(k), StepRound and Step. It
// appends what the node observes after each barrier to logs[id]: the round
// and the inbox (sender and value of each message, in delivery order). Once
// the clock reaches failAt (0 disables it), every third node fails at its
// next action: even IDs return an error, odd IDs send twice on one arc (a
// model violation). Without forever, StepUntil(math.MaxInt) is left out of
// the script.
func sleepyProc(logs [][]int, failAt int, forever bool) Proc {
	return func(ctx *Ctx) error {
		id := ctx.ID()
		rng := ctx.Rand()
		record := func(in []Message) {
			logs[id] = append(logs[id], ctx.Round(), len(in))
			for _, m := range in {
				logs[id] = append(logs[id], m.From, m.Payload.(intMsg).v)
			}
		}
		arcInbox := func() []Message {
			var in []Message
			for k, a := range ctx.Neighbors() {
				if p, ok := ctx.InboxArc(k); ok {
					in = append(in, Message{From: a.To, Payload: p})
				}
			}
			return in
		}
		// A restarted incarnation begins a new section of the same log.
		logs[id] = append(logs[id], -1-ctx.Incarnation())
		ops := 4 + rng.Intn(40)
		for op := 0; op < ops; op++ {
			if failAt > 0 && ctx.Round() >= failAt && id%3 == failAt%3 {
				if id%2 == 0 || ctx.Degree() == 0 {
					return fmt.Errorf("node %d gives up in round %d", id, ctx.Round())
				}
				ctx.SendArc(0, intMsg{v: id, bits: 4})
				ctx.SendArc(0, intMsg{v: id, bits: 4})
			}
			v := id*100_000 + ctx.Round()
			if rng.Intn(6) == 0 {
				ctx.SendAll(intMsg{v: v, bits: 8})
			} else {
				for k := range ctx.Neighbors() {
					if rng.Intn(5) == 0 {
						ctx.SendArc(k, intMsg{v: v + k, bits: 8})
					}
				}
			}
			switch x := rng.Intn(16); {
			case x < 2:
				record(ctx.StepUntil(ctx.Round() - rng.Intn(3)))
			case x < 4:
				record(ctx.StepUntil(ctx.Round() + 1))
			case x < 7:
				record(ctx.StepUntil(ctx.Round() + 2 + rng.Intn(4)))
			case x < 10:
				record(ctx.StepUntil(ctx.Round() + 6 + rng.Intn(40)))
			case x < 11 && forever:
				record(ctx.StepUntil(math.MaxInt))
			case x < 13:
				ctx.Idle(1 + rng.Intn(8))
				record(arcInbox())
			case x < 14:
				record(ctx.StepRound())
			default:
				ctx.Step()
				record(arcInbox())
			}
		}
		return nil
	}
}

// FuzzStepUntil is the differential test of the sleeping barrier: random
// scripts of sends, StepUntil, Idle, early returns, proc errors and model
// violations run on the event-loop engine, where waiting nodes sleep outside
// the barrier, and on the sharded engine at one and three shards, which
// steps every node through every round. Per-node logs of (Round(), inbox)
// after every barrier, Stats and the error must be identical. The seed
// corpus covers dropped messages (which must never wake a sleeper), the
// rotating adversary, crash-stop and crash-recovery scheduled inside sleeps,
// simultaneous failures while other nodes sleep (the lowest ID's error
// wins) and the watchdog firing during a round jump.
func FuzzStepUntil(f *testing.F) {
	// gseed, pseed, size, density, dropPct, crashPct, maxDown, failAt, maxRounds, rotate, forever
	f.Add(int64(1), int64(2), uint8(10), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false, false)
	f.Add(int64(3), int64(4), uint8(20), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false, true)
	f.Add(int64(5), int64(6), uint8(16), uint8(3), uint8(40), uint8(0), uint8(0), uint8(0), uint8(0), false, false)
	f.Add(int64(7), int64(8), uint8(14), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), true, false)
	f.Add(int64(9), int64(10), uint8(18), uint8(2), uint8(0), uint8(30), uint8(0), uint8(0), uint8(0), false, false)
	f.Add(int64(11), int64(12), uint8(18), uint8(2), uint8(0), uint8(30), uint8(9), uint8(0), uint8(0), false, false)
	f.Add(int64(13), int64(14), uint8(22), uint8(1), uint8(0), uint8(0), uint8(0), uint8(9), uint8(0), false, false)
	f.Add(int64(15), int64(16), uint8(12), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(30), false, true)
	f.Add(int64(17), int64(18), uint8(20), uint8(4), uint8(25), uint8(20), uint8(6), uint8(17), uint8(0), true, true)
	f.Fuzz(func(t *testing.T, gseed, pseed int64, size, density, dropPct, crashPct, maxDown, failAt, maxRounds uint8, rotate, forever bool) {
		n := 2 + int(size%23)
		g := gen.ErdosRenyi(n, 0.1+float64(density%8)/10, gseed)
		plan := &FaultPlan{
			Crashes:  RandomRecoveries(n, float64(crashPct%60)/100, 60, int(maxDown%20), -1, pseed),
			DropProb: float64(dropPct%60) / 100,
			Seed:     pseed,
		}
		if rotate {
			plan.Adversary = AdversaryRotate
		}
		fail := 0
		if failAt%4 != 0 {
			fail = 10 + int(failAt%50)
		}
		// The watchdog bound sits either past every script or inside it.
		opts := Options{Seed: gseed ^ pseed, Faults: plan, MaxRounds: 400}
		if maxRounds != 0 {
			opts.MaxRounds = 5 + int(maxRounds%60)
		}
		runs := []struct {
			name   string
			e      Engine
			shards int
		}{
			{"eventloop", EngineEventLoop, 0},
			{"sharded-1", EngineSharded, 1},
			{"sharded-3", EngineSharded, 3},
		}
		var refLogs [][]int
		var refStats Stats
		var refErr string
		for i, r := range runs {
			logs := make([][]int, n)
			o := opts
			o.Shards = r.shards
			stats, err := RunOn(r.e, g, sleepyProc(logs, fail, forever), o)
			errStr := fmt.Sprint(err)
			if i == 0 {
				refLogs, refStats, refErr = logs, stats, errStr
				continue
			}
			if errStr != refErr {
				t.Fatalf("%s: err %s, eventloop err %s", r.name, errStr, refErr)
			}
			if stats != refStats {
				t.Fatalf("%s: stats %+v, eventloop %+v", r.name, stats, refStats)
			}
			for v := range logs {
				if !slices.Equal(logs[v], refLogs[v]) {
					t.Fatalf("%s: node %d log\n%v\neventloop log\n%v", r.name, v, logs[v], refLogs[v])
				}
			}
		}
	})
}
