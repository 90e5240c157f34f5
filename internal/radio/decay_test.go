package radio_test

import (
	"fmt"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/radio"
	"lcshortcut/internal/scenario"
)

// runDecay runs Decay on g cut into shards shards.
func runDecay(t *testing.T, shards int, g *graph.Graph, cfg radio.DecayConfig, opts congest.Options) []radio.DecayOutcome {
	t.Helper()
	out := make([]radio.DecayOutcome, g.NumNodes())
	opts.Model, opts.Shards = congest.ModelRadio, shards
	if _, err := congest.Run(g, radio.Decay(cfg, out), opts); err != nil {
		t.Fatalf("decay: %v", err)
	}
	return out
}

// TestDecayPath pins the deterministic base case: on Path(2) the lone
// informed source is the only transmitter, so its very first slot is
// collision-free and informs the neighbor in round 1.
func TestDecayPath(t *testing.T) {
	for _, sh := range congesttest.Shardings {
		out := runDecay(t, sh.Shards, gen.Path(2), radio.DecayConfig{Phases: 1}, congest.Options{Seed: 1})
		if !out[0].Informed || out[0].Round != 0 {
			t.Errorf("%s: source outcome %+v", sh.Name, out[0])
		}
		if !out[1].Informed || out[1].Round != 1 {
			t.Errorf("%s: neighbor outcome %+v, want informed in round 1", sh.Name, out[1])
		}
	}
}

// TestDecayCollisionsResolve is the reason Decay exists: a dense star where
// EVERY leaf starts... rather, where after one phase many informed leaves
// contend for the center's ear — the geometric decay must still isolate a
// lone transmitter. A clique of informed-after-phase-one nodes plus one
// far node exercises it deterministically via seeds.
func TestDecayCollisionsResolve(t *testing.T) {
	// Star(9): source is the center after phase 1 informs ALL 8 leaves at
	// once; a second stage would collide forever under naive flooding. Hang
	// one extra node off a leaf to force a second boundary crossing.
	var edges []graph.Edge
	for v := 1; v <= 8; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v, W: 1})
	}
	gr := graph.MustFromEdges(10, append(edges, graph.Edge{U: 8, V: 9, W: 1}))
	for _, sh := range congesttest.Shardings {
		out := runDecay(t, sh.Shards, gr, radio.DecayConfig{Phases: 12}, congest.Options{Seed: 3})
		informed, total := radio.DecayCoverage(out, nil)
		if informed != total {
			t.Errorf("%s: %d/%d informed; outlier must be reached through the contended hub", sh.Name, informed, total)
		}
	}
}

// TestDecayAllFamiliesCoverage is the acceptance sweep: full coverage on
// every scenario family with diameter-scaled phases, byte-identical across
// shard counts.
func TestDecayAllFamiliesCoverage(t *testing.T) {
	for _, s := range scenario.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			g := s.Build(s.Sizes[0], 1)
			cfg := radio.DecayConfig{Phases: 2*g.ApproxDiameter(0) + 10}
			var ref []radio.DecayOutcome
			for ei, sh := range congesttest.Shardings {
				out := runDecay(t, sh.Shards, g, cfg, congest.Options{Seed: 7})
				if informed, total := radio.DecayCoverage(out, nil); informed != total {
					t.Errorf("%s: coverage %d/%d", sh.Name, informed, total)
				}
				if ei == 0 {
					ref = out
				} else if fmt.Sprint(out) != fmt.Sprint(ref) {
					t.Error("outcomes differ across shard counts")
				}
			}
		})
	}
}

// TestDecayCrashedNodesExcluded runs Decay through a crash-stop plan: a
// crashed node transmits nothing and hears silence, and the rumor routes
// around it when the survivor graph allows.
func TestDecayCrashedNodesExcluded(t *testing.T) {
	g := gen.Grid(4, 4)
	// Node 5 dies immediately; the grid stays connected without it.
	plan := &congest.FaultPlan{Crashes: []congest.Crash{{Node: 5, Round: 0}}}
	cfg := radio.DecayConfig{Phases: 2*g.ApproxDiameter(0) + 10}
	for _, sh := range congesttest.Shardings {
		out := runDecay(t, sh.Shards, g, cfg, congest.Options{Seed: 5, Faults: plan})
		for v, o := range out {
			if v == 5 {
				if o.Informed {
					t.Errorf("%s: crashed node 5 got informed", sh.Name)
				}
				continue
			}
			if !o.Informed {
				t.Errorf("%s: survivor %d never informed", sh.Name, v)
			}
		}
	}
}

// TestDecayRoundsAccounting pins the advertised run length.
func TestDecayRoundsAccounting(t *testing.T) {
	g := gen.Ring(8)
	cfg := radio.DecayConfig{Phases: 4}
	out := make([]radio.DecayOutcome, g.NumNodes())
	stats, err := congest.Run(g, radio.Decay(cfg, out),
		congest.Options{Seed: 2, Model: congest.ModelRadio})
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Rounds(g.NumNodes()); stats.Rounds != want {
		t.Errorf("run took %d rounds, DecayConfig.Rounds predicts %d", stats.Rounds, want)
	}
}
