package main

import (
	"fmt"
	"sync"
	"time"

	"lcshortcut/internal/core"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/scenario"
	"lcshortcut/internal/tree"
)

// constructInstance is construct-coarse: core.FindShortcutAuto (CoreFast,
// default workers) on the n=16384 grid with 128 Voronoi parts and a BFS
// tree from vertex 0 — the findshortcut/grid-n16384 shape.
type constructInstance struct {
	t *tree.Tree
	p *partition.Partition
	// seed is both the partition seed and the construction seed.
	seed int64
	// blockSlack scales the Theorem 3 block bound the check applies (3).
	blockSlack int

	mu   sync.Mutex
	last *core.AutoResult
	want *core.Quality // the first op's quality; every later op must repeat it
}

// inputs is one construction input: a partition and a BFS tree of the
// same graph.
type inputs struct {
	p *partition.Partition
	t *tree.Tree
}

// buildInputs builds a registry graph, its Voronoi partition and BFS tree,
// timing each layer into layers (summed when called repeatedly).
func buildInputs(family string, n, parts int, gseed, pseed int64, layers *metrics) inputs {
	add := func(name string, t0 time.Time) {
		old := layers.m[name]
		layers.set(name, old.Value+ms(time.Since(t0)), "ms", old.Samples+1)
	}
	t0 := time.Now()
	g := scenario.MustGet(family).Build(n, gseed)
	add("graph.build_ms", t0)
	t0 = time.Now()
	g.Fingerprint()
	add("graph.fingerprint_ms", t0)
	t0 = time.Now()
	p := partition.Voronoi(g, parts, pseed)
	add("partition.voronoi_ms", t0)
	t0 = time.Now()
	p.Fingerprint()
	add("partition.fingerprint_ms", t0)
	t0 = time.Now()
	t := tree.BFSTree(g, 0)
	add("tree.bfstree_ms", t0)
	return inputs{p: p, t: t}
}

func setupConstruct(cfg config, layers *metrics) (instance, error) {
	n, parts := 16384, 128
	if cfg.tiny {
		n, parts = 256, 8
	}
	in := buildInputs("grid", n, parts, cfg.seed, cfg.seed, layers)
	c := &constructInstance{t: in.t, p: in.p, seed: cfg.seed, blockSlack: 3}
	if cfg.breakCheck {
		c.blockSlack = 0
	}
	// Warm the construction and query scratch pools with one untimed op.
	if _, err := core.FindShortcutAuto(in.t, in.p, c.seed, false, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, nil
}

func (c *constructInstance) minOps() int { return 3 }
func (c *constructInstance) close()      {}

func (c *constructInstance) op(tr *tracer, id int) (string, error) {
	root := tr.begin("construct-coarse.op", -1, id)
	find := tr.begin("core.find_shortcut_auto", root, id)
	ar, err := core.FindShortcutAuto(c.t, c.p, c.seed, false, 0)
	tr.end(find)
	tr.end(root)
	if err != nil {
		return "", err
	}
	s := ar.S
	q := s.Measure()
	c.mu.Lock()
	c.last = ar
	if c.want == nil {
		c.want = &q
	}
	want := *c.want
	c.mu.Unlock()
	if q != want {
		return "", fmt.Errorf("quality %+v differs from the first op's %+v", q, want)
	}
	if err := s.Validate(); err != nil {
		return "", err
	}
	for i := 0; i < c.p.NumParts(); i++ {
		if b := s.BlockCount(i); b > c.blockSlack*ar.EstB {
			return "", fmt.Errorf("part %d has %d blocks, above 3·EstB = %d", i, b, 3*ar.EstB)
		}
	}
	return "", nil
}

func (c *constructInstance) report(cfg config, tr *tracer, w *window, table, layers *metrics) error {
	c.mu.Lock()
	ar := c.last
	c.mu.Unlock()
	if ar == nil {
		return fmt.Errorf("no operation completed")
	}
	q := ar.S.Measure()
	table.set("congestion", float64(q.Congestion), "count", 1)
	table.set("block_param", float64(q.BlockParameter), "count", 1)
	table.set("dilation", float64(q.Dilation), "count", 1)
	for _, m := range []*metrics{table, layers} {
		m.set("core.probes", float64(ar.Probes), "count", 1)
		m.set("core.iterations", float64(ar.Iterations), "count", 1)
	}
	if !tr.on {
		return nil
	}
	layers.set("core.congestion", float64(q.Congestion), "count", 1)
	layers.set("core.block_param", float64(q.BlockParameter), "count", 1)
	layers.set("core.dilation", float64(q.Dilation), "count", 1)
	sp := replayCore(tr, w.attempted, c.t, c.p, c.seed, ar, 0)
	sp.set(layers, 1)
	return nil
}

// coreSplit is one replay's time per construction layer, in ms.
type coreSplit struct {
	coreFast, seal, blocks, diameter, congestion float64
}

func (cs coreSplit) add(o coreSplit) coreSplit {
	return coreSplit{cs.coreFast + o.coreFast, cs.seal + o.seal, cs.blocks + o.blocks,
		cs.diameter + o.diameter, cs.congestion + o.congestion}
}

// set reports the split averaged over n replays.
func (cs coreSplit) set(layers *metrics, n int) {
	k := float64(n)
	layers.set("core.corefast_ms", cs.coreFast/k, "ms", n)
	layers.set("core.seal_ms", cs.seal/k, "ms", n)
	layers.set("core.blocks_ms", cs.blocks/k, "ms", n)
	layers.set("core.diameter_ms", cs.diameter/k, "ms", n)
	layers.set("core.congestion_ms", cs.congestion/k, "ms", n)
}

// replayCore splits a finished FindShortcutAuto into its construction
// layers by replaying its final estimate on unsealed core.CoreFast output:
// one CoreFast pass, Seal on its result, then — on a second unsealed pass —
// Blocks and PartDiameter for every part and Congestion. Seal runs on
// workers, as the replayed construction did. Spans share op id.
func replayCore(tr *tracer, id int, t *tree.Tree, p *partition.Partition, seed int64, ar *core.AutoResult, workers int) coreSplit {
	fc := core.FastConfig{C: ar.EstC, Seed: seed + int64(1000*ar.Probes)}
	var out coreSplit
	root := tr.begin("core.replay", -1, id)
	timed := func(name string, dst *float64, fn func()) {
		sp := tr.begin(name, root, id)
		t0 := time.Now()
		fn()
		*dst = ms(time.Since(t0))
		tr.end(sp)
	}
	var sealed, open *core.CoreResult
	timed("core.corefast", &out.coreFast, func() { sealed = core.CoreFast(t, p, fc) })
	timed("core.seal", &out.seal, func() { sealed.S.Seal(workers) })
	open = core.CoreFast(t, p, fc)
	timed("core.blocks", &out.blocks, func() {
		for i := 0; i < p.NumParts(); i++ {
			open.S.Blocks(i)
		}
	})
	timed("core.part_diameter", &out.diameter, func() {
		for i := 0; i < p.NumParts(); i++ {
			open.S.PartDiameter(i)
		}
	})
	timed("core.congestion", &out.congestion, func() { open.S.Congestion() })
	tr.end(root)
	return out
}
