// Command graphgen generates a graph — either from the central scenario
// registry (-family) or from the legacy free-form spec (-graph) — and prints
// summary statistics or a Graphviz DOT dump.
//
//	graphgen -list-families
//	graphgen -family surface -n 1024
//	graphgen -family ba -n 4096 -seed 3 -dot > ba.dot
//	graphgen -graph torus:8x8
//	graphgen -graph lowerbound:4x8 -dot > lb.dot
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/scenario"
	"lcshortcut/internal/tree"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family  = flag.String("family", "", "scenario-registry family name (see -list-families); overrides -graph")
		n       = flag.Int("n", 1024, "requested size for -family (node count; families round to their nearest realizable size)")
		list    = flag.Bool("list-families", false, "list the scenario registry (name, tags, sizes, paper relevance) and exit")
		spec    = flag.String("graph", "grid:8x8", "legacy graph family spec (see shortcutctl -help)")
		dot     = flag.Bool("dot", false, "emit Graphviz DOT instead of statistics")
		weights = flag.Int64("weights", 0, "assign random weights in [1,W] (0 = unit)")
		seed    = flag.Int64("seed", 1, "build seed for -family and weight seed")
	)
	flag.Parse()
	if *list {
		listFamilies()
		return nil
	}
	var g *graph.Graph
	var err error
	label := *spec
	if *family != "" {
		s, ok := scenario.Get(*family)
		if !ok {
			return fmt.Errorf("unknown family %q (run -list-families; have %s)", *family, strings.Join(scenario.Names(), ", "))
		}
		g = s.Build(*n, *seed)
		label = fmt.Sprintf("%s (n=%d, seed=%d)", s.Name, *n, *seed)
	} else {
		g, err = build(*spec)
		if err != nil {
			return err
		}
	}
	if *weights > 0 {
		g = gen.WithRandomWeights(g, *seed, *weights)
	}
	if *dot {
		emitDOT(g)
		return nil
	}
	tr := tree.BFSTree(g, 0)
	fmt.Printf("spec:       %s\n", label)
	fmt.Printf("nodes:      %d\n", g.NumNodes())
	fmt.Printf("edges:      %d\n", g.NumEdges())
	fmt.Printf("connected:  %v\n", g.Connected())
	fmt.Printf("bfs height: %d (from node 0)\n", tr.Height())
	fmt.Printf("diam >=:    %d (double sweep)\n", g.ApproxDiameter(0))
	degSum, maxDeg := 0, 0
	for v := 0; v < g.NumNodes(); v++ {
		d := g.Degree(v)
		degSum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Printf("avg degree: %.2f  max degree: %d\n", float64(degSum)/float64(g.NumNodes()), maxDeg)
	return nil
}

// listFamilies prints the scenario registry as an aligned table.
func listFamilies() {
	fmt.Printf("%-12s %-32s %-14s %s\n", "FAMILY", "TAGS", "SIZES", "PAPER RELEVANCE")
	for _, s := range scenario.All() {
		sizes := make([]string, len(s.Sizes))
		for i, n := range s.Sizes {
			sizes[i] = fmt.Sprint(n)
		}
		fmt.Printf("%-12s %-32s %-14s %s\n", s.Name, strings.Join(s.Tags, ","), strings.Join(sizes, ","), s.Ref)
	}
}

func build(spec string) (*graph.Graph, error) {
	// Reuse shortcutctl's parser conventions with a tiny local copy to keep
	// the binaries independent.
	var w, h, x int
	if n, _ := fmt.Sscanf(spec, "grid:%dx%d", &w, &h); n == 2 {
		return gen.Grid(w, h), nil
	}
	if n, _ := fmt.Sscanf(spec, "torus:%dx%d", &w, &h); n == 2 {
		return gen.Torus(w, h), nil
	}
	if n, _ := fmt.Sscanf(spec, "handled:%dx%dx%d", &w, &h, &x); n == 3 {
		return gen.HandledGrid(w, h, x), nil
	}
	if n, _ := fmt.Sscanf(spec, "surface:%dx%dx%d", &w, &h, &x); n == 3 {
		return gen.SurfaceMesh(w, h, x, 2), nil
	}
	if n, _ := fmt.Sscanf(spec, "lowerbound:%dx%d", &w, &h); n == 2 {
		return gen.LowerBound(w, h), nil
	}
	if n, _ := fmt.Sscanf(spec, "ring:%d", &w); n == 1 {
		return gen.Ring(w), nil
	}
	if n, _ := fmt.Sscanf(spec, "tree:%d", &w); n == 1 {
		return gen.RandomTree(w, 1), nil
	}
	if n, _ := fmt.Sscanf(spec, "pathpower:%d,%d", &w, &x); n == 2 {
		return gen.PathPower(w, x), nil
	}
	if n, _ := fmt.Sscanf(spec, "hypercube:%d", &w); n == 1 {
		return gen.Hypercube(w), nil
	}
	if n, _ := fmt.Sscanf(spec, "caveman:%dx%d", &w, &h); n == 2 {
		return gen.Caveman(w, h), nil
	}
	var p float64
	if n, _ := fmt.Sscanf(spec, "er:%d,%f", &w, &p); n == 2 {
		return gen.ErdosRenyi(w, p, 1), nil
	}
	return nil, fmt.Errorf("unknown graph spec %q", spec)
}

func emitDOT(g *graph.Graph) {
	fmt.Println("graph G {")
	for _, e := range g.Edges() {
		fmt.Printf("  %d -- %d [label=%d];\n", e.U, e.V, e.W)
	}
	fmt.Println("}")
}
