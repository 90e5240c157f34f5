package main

import (
	"fmt"
	"sync"
	"time"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/mst"
)

// mstInstance is mst-planar: distributed Boruvka MST over found shortcuts
// (StrategyShortcut with the doubling search, root 0) on experiment E7's
// uniquely weighted 10×10 grid.
//
// The instance is the same under every workload seed. Across weightings
// and protocol seeds the op's cost varies 3.4× (31,645 to 107,609 rounds
// over 16 pairs) at a steady ~390–540 ns per node-round, so a seeded
// instance would make the end-to-end median measure the seed, not the
// code.
type mstInstance struct {
	g    *graph.Graph
	seed int64
	want int64 // Kruskal's MST weight
	// results keeps the last op's output alive until retained_mb is read.
	results []*mst.NodeResult

	mu    sync.Mutex
	first *congest.Stats // the first op's cost; every later op must repeat it
	// phases is the Boruvka phase count of the last op.
	phases int
	// bfs and boruvka hold each traced op's per-phase wall time and rounds.
	bfsMs, mstMs         []float64
	bfsRounds, mstRounds int
}

// E7's weight seed and protocol seed (internal/experiments/e7_mst.go).
const (
	mstWeightSeed   = 3
	mstProtocolSeed = 5
)

func setupMST(cfg config, layers *metrics) (instance, error) {
	side := 10
	if cfg.tiny {
		side = 4
	}
	t0 := time.Now()
	g := gen.WithUniqueWeights(gen.Grid(side, side), mstWeightSeed)
	layers.set("graph.build_ms", ms(time.Since(t0)), "ms", 1)
	t0 = time.Now()
	g.Fingerprint()
	layers.set("graph.fingerprint_ms", ms(time.Since(t0)), "ms", 1)

	want, _, err := mst.Kruskal(g)
	if err != nil {
		return nil, fmt.Errorf("kruskal reference: %w", err)
	}
	if cfg.breakCheck {
		want++
	}
	// Warm the engine's pooled run state for this graph.
	if _, _, err := bfsproto.Run(g, 0, mstProtocolSeed, congest.Options{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &mstInstance{g: g, seed: mstProtocolSeed, want: want}, nil
}

func (m *mstInstance) minOps() int { return 3 }
func (m *mstInstance) close()      {}

func (m *mstInstance) op(tr *tracer, id int) (string, error) {
	cfg := mst.Config{Strategy: mst.StrategyShortcut}
	var (
		results []*mst.NodeResult
		stats   congest.Stats
		err     error
	)
	if !tr.on {
		results, stats, err = mst.Run(m.g, 0, m.seed, cfg, congest.Options{})
	} else {
		results, stats, err = m.tracedRun(tr, id, cfg)
	}
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.results = results
	m.phases = results[0].Phases
	if m.first == nil {
		m.first = &stats
	} else if stats != *m.first {
		return "", fmt.Errorf("cost %+v differs from the first op's %+v", stats, *m.first)
	}
	for v, r := range results {
		if r.Weight != m.want {
			return "", fmt.Errorf("node %d reports MST weight %d, Kruskal gives %d", v, r.Weight, m.want)
		}
	}
	return "", nil
}

// tracedRun replays mst.Run's procedure — bfsproto.Phase then mst.Phase on
// every node — with node 0 timing both phases. Both phases end on a global
// round every node shares, so node 0's clock marks each phase's end.
func (m *mstInstance) tracedRun(tr *tracer, id int, cfg mst.Config) ([]*mst.NodeResult, congest.Stats, error) {
	results := make([]*mst.NodeResult, m.g.NumNodes())
	var start, bfsEnd, mstEnd time.Time
	var bfsRounds, totalRounds int
	root := tr.begin("mst-planar.op", -1, id)
	run := tr.begin("congest.run", root, id)
	stats, err := congest.Run(m.g, func(ctx *congest.Ctx) error {
		if ctx.ID() == 0 {
			start = time.Now()
		}
		info, err := bfsproto.Phase(ctx, 0, m.seed)
		if err != nil {
			return err
		}
		if ctx.ID() == 0 {
			bfsEnd, bfsRounds = time.Now(), ctx.Round()
		}
		res, err := mst.Phase(ctx, info, cfg)
		if err != nil {
			return err
		}
		if ctx.ID() == 0 {
			mstEnd, totalRounds = time.Now(), ctx.Round()
		}
		results[ctx.ID()] = res
		return nil
	}, congest.Options{})
	tr.end(run)
	tr.end(root)
	if err != nil {
		return nil, stats, err
	}
	tr.record("bfsproto.phase", run, id, start, bfsEnd.Sub(start))
	tr.record("mst.phase", run, id, bfsEnd, mstEnd.Sub(bfsEnd))
	m.mu.Lock()
	m.bfsMs = append(m.bfsMs, ms(bfsEnd.Sub(start)))
	m.mstMs = append(m.mstMs, ms(mstEnd.Sub(bfsEnd)))
	m.bfsRounds, m.mstRounds = bfsRounds, totalRounds-bfsRounds
	m.mu.Unlock()
	return results, stats, nil
}

func (m *mstInstance) report(cfg config, tr *tracer, w *window, table, layers *metrics) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.first == nil {
		return fmt.Errorf("no operation completed")
	}
	st := *m.first
	table.set("rounds", float64(st.Rounds), "count", 1)
	table.set("messages", float64(st.Messages), "count", 1)
	table.set("phases", float64(m.phases), "count", 1)
	if !tr.on {
		return nil
	}
	opNs := median(w.latenciesMs(nil)) * 1e6
	layers.set("congest.rounds", float64(st.Rounds), "count", 1)
	layers.set("congest.messages", float64(st.Messages), "count", 1)
	layers.set("congest.ns_per_node_round", opNs/float64(st.Rounds*m.g.NumNodes()), "ns", len(w.samples))
	layers.set("congest.ns_per_msg", opNs/float64(st.Messages), "ns", len(w.samples))
	layers.set("bfsproto.rounds", float64(m.bfsRounds), "count", 1)
	layers.set("bfsproto.ms", median(m.bfsMs), "ms", len(m.bfsMs))
	layers.set("mst.rounds", float64(m.mstRounds), "count", 1)
	layers.set("mst.ms", median(m.mstMs), "ms", len(m.mstMs))
	layers.set("mst.phases", float64(m.phases), "count", 1)
	return nil
}
