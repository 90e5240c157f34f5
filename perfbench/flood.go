package main

import (
	"fmt"
	"sync"
	"time"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/scenario"
)

// floodInstance is flood-expander: a fixed-length SendAll flood on the
// er-dense registry family, every node active in every round.
type floodInstance struct {
	g            *graph.Graph
	rounds       int
	wantMessages int64

	mu sync.Mutex
	// sendMs and stepMs hold each traced op's time inside SendAll and
	// StepRound, summed over the op's rounds and averaged over nodes.
	sendMs, stepMs []float64
}

// callTimes is one node's time inside the engine calls of a traced flood;
// node 0 also keeps every call's interval for the span tree.
type callTimes struct {
	send, step time.Duration
	calls      []call
}

type call struct {
	name  string
	start time.Time
	d     time.Duration
}

// beat is the flood's one-bit payload.
type beat struct{}

func (beat) Bits() int { return 1 }

func setupFlood(cfg config, layers *metrics) (instance, error) {
	n, rounds := 2048, 96
	if cfg.tiny {
		n, rounds = 128, 8
	}
	t0 := time.Now()
	g := scenario.MustGet("er-dense").Build(n, cfg.seed)
	layers.set("graph.build_ms", ms(time.Since(t0)), "ms", 1)
	t0 = time.Now()
	g.Fingerprint()
	layers.set("graph.fingerprint_ms", ms(time.Since(t0)), "ms", 1)

	f := &floodInstance{g: g, rounds: rounds, wantMessages: int64(rounds) * 2 * int64(g.NumEdges())}
	if cfg.breakCheck {
		f.wantMessages++
	}
	// Warm the engine's pooled run state with one untimed flood.
	if _, err := congest.Run(g, f.proc(nil), congest.Options{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

func (f *floodInstance) minOps() int { return 3 }
func (f *floodInstance) close()      {}

// proc floods for f.rounds rounds. With non-nil times it also sums, per
// node, the time spent inside SendAll and StepRound.
func (f *floodInstance) proc(times []callTimes) congest.Proc {
	if times == nil {
		return func(ctx *congest.Ctx) error {
			for r := 0; r < f.rounds; r++ {
				ctx.SendAll(beat{})
				ctx.StepRound()
			}
			return nil
		}
	}
	return func(ctx *congest.Ctx) error {
		ct := &times[ctx.ID()]
		for r := 0; r < f.rounds; r++ {
			t0 := time.Now()
			ctx.SendAll(beat{})
			t1 := time.Now()
			ctx.StepRound()
			t2 := time.Now()
			ct.send += t1.Sub(t0)
			ct.step += t2.Sub(t1)
			if ctx.ID() == 0 {
				ct.calls = append(ct.calls, call{"congest.send_all", t0, t1.Sub(t0)}, call{"congest.step_round", t1, t2.Sub(t1)})
			}
		}
		return nil
	}
}

func (f *floodInstance) op(tr *tracer, id int) (string, error) {
	var times []callTimes
	if tr.on {
		times = make([]callTimes, f.g.NumNodes())
	}
	root := tr.begin("flood-expander.op", -1, id)
	run := tr.begin("congest.run", root, id)
	stats, err := congest.Run(f.g, f.proc(times), congest.Options{})
	tr.end(run)
	tr.end(root)
	if err != nil {
		return "", err
	}
	if tr.on {
		var send, step time.Duration
		for _, ct := range times {
			send += ct.send
			step += ct.step
		}
		for _, c := range times[0].calls {
			tr.record(c.name, run, id, c.start, c.d)
		}
		n := float64(len(times))
		f.mu.Lock()
		f.sendMs = append(f.sendMs, ms(send)/n)
		f.stepMs = append(f.stepMs, ms(step)/n)
		f.mu.Unlock()
	}
	if stats.Rounds != f.rounds || stats.Messages != f.wantMessages {
		return "", fmt.Errorf("flood ran %d rounds and %d messages, want %d and %d",
			stats.Rounds, stats.Messages, f.rounds, f.wantMessages)
	}
	return "", nil
}

func (f *floodInstance) report(cfg config, tr *tracer, w *window, table, layers *metrics) error {
	table.set("rounds", float64(f.rounds), "count", 1)
	table.set("messages", float64(f.wantMessages), "count", 1)
	if !tr.on {
		return nil
	}
	opNs := median(w.latenciesMs(nil)) * 1e6
	layers.set("congest.rounds", float64(f.rounds), "count", 1)
	layers.set("congest.messages", float64(f.wantMessages), "count", 1)
	layers.set("congest.ns_per_node_round", opNs/float64(f.rounds*f.g.NumNodes()), "ns", len(w.samples))
	layers.set("congest.ns_per_msg", opNs/float64(f.wantMessages), "ns", len(w.samples))
	f.mu.Lock()
	defer f.mu.Unlock()
	layers.set("congest.send_ms", median(f.sendMs), "ms", len(f.sendMs))
	layers.set("congest.step_ms", median(f.stepMs), "ms", len(f.stepMs))
	return nil
}
