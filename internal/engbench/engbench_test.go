package engbench

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/scenario"
)

// TestSuiteShape pins the registry-driven suite contract: unique derived
// names, every light scenario buildable, and every new generator family
// present under the broadcast protocol.
func TestSuiteShape(t *testing.T) {
	suite := Scenarios()
	seen := map[string]bool{}
	families := map[string]bool{}
	for _, sc := range suite {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		proto, rest, ok := strings.Cut(sc.Name, "/")
		if !ok {
			t.Errorf("scenario name %q not of the form proto/family-nN", sc.Name)
			continue
		}
		switch proto {
		case "faulty", "reliable", "raft", "radio":
			// These groups embed the wrapped workload:
			// <group>/<workload>-<family>-nN.
			if _, rest, ok = strings.Cut(rest, "-"); !ok {
				t.Errorf("scenario name %q not of the form %s/workload-family-nN", sc.Name, proto)
				continue
			}
		}
		family, _, ok := strings.Cut(rest, "-n")
		if !ok {
			t.Errorf("scenario name %q lacks the -n<nodes> suffix", sc.Name)
			continue
		}
		if _, ok := scenario.Get(family); !ok {
			t.Errorf("scenario %q names unregistered family %q", sc.Name, family)
		}
		if proto == "broadcast" {
			families[family] = true
		}
		// Build-verify the small graphs only; the tens-of-thousands-node
		// bfsopen instances take seconds to construct and are exercised by
		// the benchmark runs themselves.
		var nodes int
		if _, err := fmt.Sscanf(rest, family+"-n%d", &nodes); err != nil {
			t.Errorf("scenario %q: cannot parse node count: %v", sc.Name, err)
		} else if nodes <= 4096 {
			if g := sc.Graph(); g == nil || g.NumNodes() != nodes || !g.Connected() {
				t.Errorf("scenario %q graph missing, mis-sized or disconnected", sc.Name)
			}
		}
	}
	for _, want := range []string{"ba", "geometric", "regular", "hypercube", "caveman", "surface"} {
		if !families[want] {
			t.Errorf("new family %q has no broadcast engbench scenario", want)
		}
	}
	// The findshortcut construction group measures named variants instead of
	// engines: both walk paths present, and exactly one of Run/Variants set
	// per scenario.
	fsc := 0
	for _, sc := range suite {
		if (sc.Run == nil) == (len(sc.Variants) == 0) {
			t.Errorf("scenario %q must set exactly one of Run and Variants", sc.Name)
		}
		if !strings.HasPrefix(sc.Name, "findshortcut/") {
			continue
		}
		fsc++
		if len(sc.Variants) != 2 || sc.Variants[0].Name != "sequential" || sc.Variants[1].Name != "parallel" {
			t.Errorf("scenario %q: want variants [sequential parallel], got %d", sc.Name, len(sc.Variants))
		}
	}
	if fsc == 0 {
		t.Error("no findshortcut construction scenarios in the suite")
	}
	// The million-node flood is registered Heavy: smoke runs skip it and
	// Measure times exactly one iteration.
	large, ok := func() (Scenario, bool) {
		for _, sc := range suite {
			if sc.Name == "broadcast/ba-n1000000" {
				return sc, true
			}
		}
		return Scenario{}, false
	}()
	if !ok {
		t.Fatal("million-node scenario broadcast/ba-n1000000 missing from the suite")
	}
	if !large.Heavy {
		t.Error("broadcast/ba-n1000000 must be Heavy (single timed iteration, skipped by smoke runs)")
	}
}

// TestMeasureSmoke runs the harness end to end on one tiny scenario to keep
// MeasureSuite's accounting wired (full measurements belong to
// cmd/experiments -bench-json and CI's bench gate). The engine rows follow
// the core count: one shard always, one shard per core only when
// GOMAXPROCS is above one.
func TestMeasureSmoke(t *testing.T) {
	name, g := graphOf("ring", 64, 1)
	tiny := []Scenario{{
		Name:  "tokenring/" + name,
		Graph: g,
		Run: func(g *graph.Graph, shards int) (congest.Stats, error) {
			return congest.Run(g, TokenRingProc(g.NumNodes(), g.NumNodes()), congest.Options{Seed: 1, Shards: shards})
		},
	}}
	tiny = append(tiny, findShortcutOn("grid", 36, 1, false))
	for _, tc := range []struct {
		procs   int
		engines []string
	}{
		{1, []string{"event-loop"}},
		{2, []string{"event-loop", "sharded"}},
	} {
		prev := runtime.GOMAXPROCS(tc.procs)
		rep, err := MeasureSuite(tiny, 1, 0, true)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		want := append(slices.Clone(tc.engines), "sequential", "parallel")
		var got []string
		for _, m := range rep.Results {
			got = append(got, m.Engine)
			if m.NsPerOp <= 0 {
				t.Errorf("%s/%s: empty measurement %+v", m.Scenario, m.Engine, m)
			}
			if m.SimRounds <= 0 && !strings.HasPrefix(m.Scenario, "findshortcut/") {
				t.Errorf("%s/%s: no simulated rounds %+v", m.Scenario, m.Engine, m)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: measured rows %v, want %v", tc.procs, got, want)
		}
		if !slices.Equal(rep.Engines, tc.engines) {
			t.Errorf("GOMAXPROCS=%d: report engines = %v, want %v", tc.procs, rep.Engines, tc.engines)
		}
		// Host metadata is what cmd/benchdiff's mismatch refusal keys on.
		if rep.GoVersion == "" || rep.GoMaxProcs != tc.procs {
			t.Errorf("report host metadata: go_version=%q gomaxprocs=%d, want gomaxprocs %d", rep.GoVersion, rep.GoMaxProcs, tc.procs)
		}
	}
}
