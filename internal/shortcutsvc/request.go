package shortcutsvc

import (
	"errors"
	"fmt"

	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/scenario"
)

// Request is one shortcut query. The graph is named either by a scenario
// registry reference (Family/N/Seed) or by an uploaded edge list
// (Nodes/Edges), never both. The partition is a spec (see PartitionSpec).
// C and B are the construction parameters: both 0 runs the Appendix A
// doubling search, both ≥ 1 runs FindShortcut with exactly those bounds.
type Request struct {
	Family string `json:"family,omitempty"`
	N      int    `json:"n,omitempty"`
	Seed   int64  `json:"seed,omitempty"`

	Nodes int      `json:"nodes,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`

	Partition PartitionSpec `json:"partition"`

	C int `json:"c,omitempty"`
	B int `json:"b,omitempty"`
}

// PartitionSpec names a partition: "voronoi" (Parts seeds BFS-Voronoi cells
// with Seed), "whole" (one part covering V), or "assign" (a raw per-vertex
// part array, partition.None = -1 for uncovered vertices).
type PartitionSpec struct {
	Kind   string `json:"kind"`
	Parts  int    `json:"parts,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Assign []int  `json:"assign,omitempty"`
}

// BadRequestError marks client errors the HTTP layer maps to 400.
type BadRequestError struct{ msg string }

func (e *BadRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &BadRequestError{msg: fmt.Sprintf(format, args...)}
}

// TooLargeError marks size-limit violations the HTTP layer maps to 413.
type TooLargeError struct{ msg string }

func (e *TooLargeError) Error() string { return e.msg }

// IsBadRequest reports whether err is a client-input error.
func IsBadRequest(err error) bool {
	var bre *BadRequestError
	return errors.As(err, &bre)
}

// IsTooLarge reports whether err is a size-limit violation.
func IsTooLarge(err error) bool {
	var tle *TooLargeError
	return errors.As(err, &tle)
}

func (r *Request) validate(cfg Config) error {
	hasFamily := r.Family != ""
	hasUpload := r.Nodes > 0 || len(r.Edges) > 0
	switch {
	case hasFamily && hasUpload:
		return badRequestf("request names both a registry family and an uploaded edge list; pick one")
	case !hasFamily && !hasUpload:
		return badRequestf("request names no graph: set family/n/seed or nodes/edges")
	}
	if hasFamily {
		if _, ok := scenario.Get(r.Family); !ok {
			return badRequestf("unknown scenario family %q", r.Family)
		}
		if r.N < 2 {
			return badRequestf("n must be >= 2, got %d", r.N)
		}
		if r.N > cfg.MaxNodes {
			return &TooLargeError{msg: fmt.Sprintf("n=%d exceeds the limit %d", r.N, cfg.MaxNodes)}
		}
	} else {
		if r.Nodes < 2 {
			return badRequestf("uploaded graph needs nodes >= 2, got %d", r.Nodes)
		}
		if r.Nodes > cfg.MaxNodes {
			return &TooLargeError{msg: fmt.Sprintf("nodes=%d exceeds the limit %d", r.Nodes, cfg.MaxNodes)}
		}
		if len(r.Edges) == 0 {
			return badRequestf("uploaded graph has no edges")
		}
	}
	switch r.Partition.Kind {
	case "voronoi":
		if r.Partition.Parts < 1 {
			return badRequestf("voronoi partition needs parts >= 1, got %d", r.Partition.Parts)
		}
	case "whole":
	case "assign":
		if len(r.Partition.Assign) == 0 {
			return badRequestf("assign partition needs a non-empty assign array")
		}
	case "":
		return badRequestf("partition.kind is required (voronoi, whole or assign)")
	default:
		return badRequestf("unknown partition kind %q", r.Partition.Kind)
	}
	if (r.C == 0) != (r.B == 0) {
		return badRequestf("c and b must both be 0 (doubling search) or both >= 1, got c=%d b=%d", r.C, r.B)
	}
	if r.C < 0 || r.B < 0 {
		return badRequestf("c and b must be non-negative, got c=%d b=%d", r.C, r.B)
	}
	return nil
}

// refKey returns the normalized fast-path key for registry-reference
// requests (ok=false for uploaded graphs, which are hashed per request).
func (r *Request) refKey() (refKey, bool) {
	if r.Family == "" {
		return refKey{}, false
	}
	rk := refKey{
		family: r.Family,
		n:      r.N,
		seed:   r.Seed,
		pkind:  r.Partition.Kind,
		parts:  r.Partition.Parts,
		pseed:  r.Partition.Seed,
		c:      r.C,
		b:      r.B,
	}
	if r.Partition.Kind == "assign" {
		h := graph.HashMix(0x5ca1ab1e, uint64(len(r.Partition.Assign)))
		for _, a := range r.Partition.Assign {
			h = graph.HashMix(h, uint64(int64(a)))
		}
		rk.assignFp = h
	}
	return rk, true
}

// build materializes the request's graph and partition.
func (r *Request) build(cfg Config) (*graph.Graph, *partition.Partition, error) {
	var g *graph.Graph
	if r.Family != "" {
		var err error
		g, err = buildScenario(r.Family, r.N, r.Seed)
		if err != nil {
			return nil, nil, badRequestf("%v", err)
		}
	} else {
		edges := make([]graph.Edge, len(r.Edges))
		for i, e := range r.Edges {
			edges[i] = graph.Edge{U: e[0], V: e[1], W: 1}
		}
		var err error
		if g, err = graph.FromEdges(r.Nodes, edges); err != nil {
			return nil, nil, badRequestf("invalid uploaded graph: %v", err)
		}
	}
	if !g.Connected() {
		return nil, nil, badRequestf("graph is disconnected; shortcut construction needs a connected graph")
	}

	var p *partition.Partition
	switch r.Partition.Kind {
	case "voronoi":
		if r.Partition.Parts > g.NumNodes() {
			return nil, nil, badRequestf("voronoi parts=%d exceeds the graph's %d nodes", r.Partition.Parts, g.NumNodes())
		}
		p = partition.Voronoi(g, r.Partition.Parts, r.Partition.Seed)
	case "whole":
		p = partition.Whole(g.NumNodes())
	case "assign":
		if len(r.Partition.Assign) != g.NumNodes() {
			return nil, nil, badRequestf("assign array has %d entries for a %d-node graph", len(r.Partition.Assign), g.NumNodes())
		}
		var err error
		p, err = partition.FromAssignment(r.Partition.Assign)
		if err != nil {
			return nil, nil, badRequestf("malformed partition: %v", err)
		}
		if err := p.Validate(g); err != nil {
			return nil, nil, badRequestf("malformed partition: %v", err)
		}
	}
	return g, p, nil
}
