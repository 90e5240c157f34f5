// Package scenario is the central registry of named, seeded,
// size-parameterized graph scenarios — the single source of workload graphs
// for the experiment harness (internal/experiments), the engine benchmark
// suite (internal/engbench), the CLI generators (cmd/graphgen) and the
// property tests. Registering a family here is all it takes for it to be
// reachable from every consumer.
//
// A Scenario is self-describing: besides its constructor it carries family
// tags (planar / genus-bounded / expander / community / ...), the paper
// relevance note, a default size grid, and the structural invariants the
// family guarantees (connectivity, exact node/edge counts, d-regularity, a
// genus upper bound). The invariants serve two masters: the registry
// property tests verify every family against them on every build, and
// experiments use them to decide which theorem bound applies (the genus
// bound feeds the Theorem 1 congestion predicate directly).
//
// Every Build is deterministic per (n, seed): repeated builds produce
// byte-identical CSR layouts, which is what lets the golden tests pin every
// downstream seeded output. Build is the one constructor at every size, up to
// million-node graphs. The size parameter n is a requested node count;
// families with structural size constraints (square grids, power-of-two
// hypercubes, fixed cave sizes) round it to the nearest realizable count,
// reported exactly by Invariants.Nodes.
package scenario

import (
	"fmt"
	"sort"

	"lcshortcut/internal/graph"
)

// Scenario is one registered graph family.
type Scenario struct {
	// Name is the registry key, e.g. "grid", "ba", "hypercube".
	Name string
	// Tags are family labels ("planar", "genus-bounded", "expander",
	// "community", "geometric", "scale-free", "regular", "random", "mesh",
	// "tree"); WithTag selects by them.
	Tags []string
	// Ref states the family's relevance to the paper (which theorem regime
	// it exercises, or which related work evaluates on it).
	Ref string
	// Description is the one-line human summary.
	Description string
	// Sizes is the default size grid (requested node counts) experiments
	// sweep; ascending, smallest first so smoke runs can take a prefix.
	Sizes []int
	// Build constructs the graph for requested size n. Deterministic per
	// (n, seed); families without random structure ignore the seed.
	Build func(n int, seed int64) *graph.Graph
	// Invariants are the structural guarantees Build's output satisfies.
	Invariants Invariants
}

// Invariants are the structural guarantees of a scenario family, as
// functions of the requested size n. They are checked by the registry
// property tests and consumed by experiments (e.g. the genus bound selects
// the Theorem 1 congestion predicate).
type Invariants struct {
	// Connected guarantees every build is connected.
	Connected bool
	// Nodes returns the exact node count for requested size n; nil means
	// exactly n.
	Nodes func(n int) int
	// Edges returns the exact edge count for requested size n; nil means
	// the count is seed-dependent.
	Edges func(n int) int
	// Degree returns d when every build is d-regular; nil means irregular.
	Degree func(n int) int
	// Genus returns an upper bound on the graph's orientable genus; nil
	// means unbounded or unknown (the family is outside the paper's
	// Theorem 1 regime).
	Genus func(n int) int
}

// NumNodes resolves the exact node count for requested size n.
func (s *Scenario) NumNodes(n int) int {
	if s.Invariants.Nodes != nil {
		return s.Invariants.Nodes(n)
	}
	return n
}

var (
	registryByName = map[string]*Scenario{}
	registryOrder  []*Scenario
)

// Register adds s to the central registry, panicking on duplicates or
// malformed registrations (registration happens at init time; a broken
// registry is a programmer error).
func Register(s *Scenario) {
	switch {
	case s == nil:
		panic("scenario: Register(nil)")
	case s.Name == "" || s.Description == "" || s.Ref == "":
		panic(fmt.Sprintf("scenario: scenario %+v must have Name, Description and Ref", s))
	case s.Build == nil:
		panic(fmt.Sprintf("scenario: scenario %s has no Build function", s.Name))
	case len(s.Sizes) == 0:
		panic(fmt.Sprintf("scenario: scenario %s has no default sizes", s.Name))
	case len(s.Tags) == 0:
		panic(fmt.Sprintf("scenario: scenario %s has no family tags", s.Name))
	}
	if !sort.IntsAreSorted(s.Sizes) {
		panic(fmt.Sprintf("scenario: scenario %s sizes %v not ascending", s.Name, s.Sizes))
	}
	if _, dup := registryByName[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate scenario %q", s.Name))
	}
	registryByName[s.Name] = s
	registryOrder = append(registryOrder, s)
}

// All returns every registered scenario in registration order.
func All() []*Scenario {
	out := make([]*Scenario, len(registryOrder))
	copy(out, registryOrder)
	return out
}

// Get returns the scenario registered under name.
func Get(name string) (*Scenario, bool) {
	s, ok := registryByName[name]
	return s, ok
}

// MustGet is Get for callers whose scenario names are static (experiment
// and benchmark definitions); it panics on an unknown name.
func MustGet(name string) *Scenario {
	s, ok := registryByName[name]
	if !ok {
		panic(fmt.Sprintf("scenario: unknown scenario %q (have %v)", name, Names()))
	}
	return s
}

// Names returns the registered names in registration order.
func Names() []string {
	out := make([]string, len(registryOrder))
	for i, s := range registryOrder {
		out[i] = s.Name
	}
	return out
}

// WithTag returns the scenarios carrying the given family tag, in
// registration order.
func WithTag(tag string) []*Scenario {
	var out []*Scenario
	for _, s := range registryOrder {
		for _, t := range s.Tags {
			if t == tag {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// Tags returns the union of all registered family tags, sorted.
func Tags() []string {
	seen := map[string]bool{}
	for _, s := range registryOrder {
		for _, t := range s.Tags {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
