// Command shortcutctl builds a graph and partition, constructs a
// tree-restricted shortcut (centralized reference or the full distributed
// protocol), and reports its quality parameters. The mincut subcommand runs
// the tree-packing minimum-cut application instead (see mincut.go); the
// elect subcommand runs leader election under an optional fault plan
// (see elect.go); the raft subcommand runs the committing Raft consensus
// protocol over the reliable transport (see raft.go).
//
// Examples:
//
//	shortcutctl -graph grid:16x16 -partition voronoi:10
//	shortcutctl -graph torus:12x12 -partition snake:2 -mode dist
//	shortcutctl -graph handled:16x16x3 -partition voronoi:8 -auto
//	shortcutctl -graph grid:9x9 -partition snake:1 -render 0
//	shortcutctl mincut -graph grid:8x8 -trees 3 -mode dist
//	shortcutctl elect -graph er:200,0.05 -crash-frac 0.2 -drop 0.1 -rotate
//	shortcutctl elect -graph grid:8x8 -drop 0.3 -reliable -require-agreement
//	shortcutctl raft -graph grid:8x8 -entries 4 -crash-frac 0.15 -drop 0.3 -require-commit
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/core"
	"lcshortcut/internal/coredist"
	"lcshortcut/internal/findshort"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

func main() {
	args := os.Args[1:]
	var err error
	if len(args) > 0 && args[0] == "mincut" {
		err = runMincut(args[1:], os.Stdout)
	} else if len(args) > 0 && args[0] == "elect" {
		err = runElect(args[1:], os.Stdout)
	} else if len(args) > 0 && args[0] == "raft" {
		err = runRaft(args[1:], os.Stdout)
	} else {
		err = run(args, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "shortcutctl: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shortcutctl", flag.ContinueOnError)
	var (
		graphSpec   = fs.String("graph", "grid:12x12", "graph family: grid:WxH | torus:WxH | handled:WxHxG | ring:N | tree:N | er:N,P | lowerbound:MxL | pathpower:N,K")
		partSpec    = fs.String("partition", "voronoi:6", "partition: voronoi:N | columns | snake:N | combs | singletons | whole | paths (lowerbound only)")
		mode        = fs.String("mode", "central", "central (reference algorithms) or dist (full CONGEST protocol)")
		cFlag       = fs.Int("c", 0, "witness congestion (0 = use canonical witness c*)")
		bFlag       = fs.Int("b", 1, "witness block parameter")
		auto        = fs.Bool("auto", false, "unknown parameters: Appendix A doubling search")
		seed        = fs.Int64("seed", 7, "shared-randomness seed")
		workersFlag = fs.Int("workers", 1, "construction workers for central modes (0 = GOMAXPROCS; the output is identical for every value)")
		render      = fs.Int("render", -1, "render the block decomposition of this part (grids only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already reported the problem and usage on stderr.
		return fmt.Errorf("invalid arguments")
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v (subcommands go first: shortcutctl mincut ...)", fs.Args())
	}

	g, w, h, parts, err := buildGraph(*graphSpec)
	if err != nil {
		return err
	}
	p, err := buildPartition(g, w, h, parts, *partSpec)
	if err != nil {
		return err
	}
	if err := p.Validate(g); err != nil {
		return err
	}
	if *render >= 0 && w == 0 {
		return fmt.Errorf("-render needs a grid-family graph")
	}
	if *render >= p.NumParts() {
		return fmt.Errorf("-render %d: the partition has only %d parts", *render, p.NumParts())
	}
	tr := tree.BFSTree(g, 0)
	cStar := core.WitnessCongestion(tr, p)
	c := *cFlag
	if c == 0 {
		c = cStar
	}
	fmt.Fprintf(out, "graph: n=%d m=%d diameter<=%d  partition: N=%d maxPartDiam=%d  witness c*=%d\n",
		g.NumNodes(), g.NumEdges(), tr.Height()*2, p.NumParts(), p.MaxPartDiameter(g), cStar)

	var s *core.Shortcut
	switch {
	case *mode == "central" && *auto:
		ar, err := core.FindShortcutAuto(tr, p, *seed, false, *workersFlag)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "doubling settled at est=%d after %d failed probes\n", ar.EstC, ar.Probes)
		s = ar.S
	case *mode == "central":
		fr, err := core.FindShortcut(tr, p, core.FindConfig{C: c, B: *bFlag, Seed: *seed, Workers: *workersFlag})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "FindShortcut finished in %d iterations (good per iter: %v)\n", fr.Iterations, fr.GoodPerIteration)
		s = fr.S
	case *mode == "dist":
		results, stats, ok, err := findshort.Run(g, p, 0, findshort.Config{C: c, B: *bFlag, Seed: *seed}, congest.Options{})
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("distributed FindShortcut failed (C=%d B=%d too small); try -auto or larger -c", c, *bFlag)
		}
		fmt.Fprintf(out, "distributed run: %d CONGEST rounds, %d messages, %d iterations\n",
			stats.Rounds, stats.Messages, results[0].Iterations)
		states := make([]*coredist.NodeShortcut, len(results))
		for v, r := range results {
			states[v] = r.NS
		}
		s, _, err = coredist.ToShortcut(g, p, states)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	q := s.Measure()
	fmt.Fprintf(out, "quality: congestion=%d (shortcut-only %d)  block=%d  dilation=%d  (Lemma 1 bound %d)\n",
		q.Congestion, s.ShortcutCongestion(), q.BlockParameter, q.Dilation,
		q.BlockParameter*(2*tr.Height()+1))

	if *render >= 0 {
		renderBlocks(out, s, p, w, h, *render)
	}
	return nil
}

func buildGraph(spec string) (g *graph.Graph, w, h, parts int, err error) {
	kind, arg, _ := strings.Cut(spec, ":")
	nums := func(sep string) ([]int, error) {
		fields := strings.Split(arg, sep)
		out := make([]int, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("bad graph spec %q: %w", spec, err)
			}
			out = append(out, v)
		}
		return out, nil
	}
	switch kind {
	case "grid", "torus", "handled", "lowerbound":
		dims, derr := nums("x")
		if derr != nil {
			return nil, 0, 0, 0, derr
		}
		switch {
		case kind == "grid" && len(dims) == 2:
			return gen.Grid(dims[0], dims[1]), dims[0], dims[1], 0, nil
		case kind == "torus" && len(dims) == 2:
			return gen.Torus(dims[0], dims[1]), dims[0], dims[1], 0, nil
		case kind == "handled" && len(dims) == 3:
			return gen.HandledGrid(dims[0], dims[1], dims[2]), dims[0], dims[1], 0, nil
		case kind == "lowerbound" && len(dims) == 2:
			return gen.LowerBound(dims[0], dims[1]), 0, 0, dims[0]*1000 + dims[1], nil
		}
	case "ring", "tree":
		dims, derr := nums(",")
		if derr != nil || len(dims) != 1 {
			return nil, 0, 0, 0, fmt.Errorf("bad graph spec %q", spec)
		}
		if kind == "ring" {
			return gen.Ring(dims[0]), 0, 0, 0, nil
		}
		return gen.RandomTree(dims[0], 1), 0, 0, 0, nil
	case "er":
		fields := strings.Split(arg, ",")
		if len(fields) == 2 {
			n, e1 := strconv.Atoi(fields[0])
			pr, e2 := strconv.ParseFloat(fields[1], 64)
			if e1 == nil && e2 == nil {
				return gen.ErdosRenyi(n, pr, 1), 0, 0, 0, nil
			}
		}
	case "pathpower":
		dims, derr := nums(",")
		if derr == nil && len(dims) == 2 {
			return gen.PathPower(dims[0], dims[1]), 0, 0, 0, nil
		}
	}
	return nil, 0, 0, 0, fmt.Errorf("unknown graph spec %q", spec)
}

func buildPartition(g *graph.Graph, w, h, lbSpec int, spec string) (*partition.Partition, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	num := 0
	if arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("bad partition spec %q: %w", spec, err)
		}
		num = v
	}
	switch kind {
	case "voronoi":
		return partition.Voronoi(g, num, 3), nil
	case "columns":
		if w == 0 {
			return nil, fmt.Errorf("columns partition needs a grid graph")
		}
		return partition.GridColumns(w, h), nil
	case "snake":
		if w == 0 {
			return nil, fmt.Errorf("snake partition needs a grid graph")
		}
		return partition.GridSnake(w, h, num), nil
	case "combs":
		if w == 0 {
			return nil, fmt.Errorf("combs partition needs a grid graph")
		}
		return partition.CombPair(w, h), nil
	case "singletons":
		return partition.Singletons(g.NumNodes()), nil
	case "whole":
		return partition.Whole(g.NumNodes()), nil
	case "paths":
		if lbSpec == 0 {
			return nil, fmt.Errorf("paths partition needs the lowerbound graph")
		}
		return partition.FromParts(g.NumNodes(), gen.LowerBoundPaths(lbSpec/1000, lbSpec%1000))
	}
	return nil, fmt.Errorf("unknown partition spec %q", spec)
}

// renderBlocks prints the Figure 1 style block decomposition of one part.
func renderBlocks(out io.Writer, s *core.Shortcut, p *partition.Partition, w, h, part int) {
	blocks := s.Blocks(part)
	fmt.Fprintf(out, "part %d decomposes into %d block components:\n", part, len(blocks))
	cell := make(map[graph.NodeID]byte)
	for bi, blk := range blocks {
		for _, v := range blk.Nodes {
			cell[v] = byte('a' + bi%26)
		}
	}
	gi := gen.GridIndexer{W: w, H: h}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := gi.Node(x, y)
			switch {
			case cell[v] != 0:
				fmt.Fprintf(out, "%c ", cell[v])
			case p.Part(v) == part:
				fmt.Fprint(out, "# ")
			default:
				fmt.Fprint(out, ". ")
			}
		}
		fmt.Fprintln(out)
	}
}
