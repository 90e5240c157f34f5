package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// stripWall zeroes the one nondeterministic field so runs can be compared.
func stripWall(results []*Result) {
	for _, r := range results {
		if r != nil {
			r.Metrics.WallNS = 0
		}
	}
}

// TestParallelMatchesSequential is the harness determinism contract: for
// equal seeds (each experiment embeds its own), a sequential run
// (Workers=1) and a parallel run produce byte-identical tables — and in
// fact identical everything except wall time.
func TestParallelMatchesSequential(t *testing.T) {
	seq, par := runShort(t, 1).results, runShort(t, 8).results
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		sTbl, pTbl := seq[i].Table().Format(), par[i].Table().Format()
		if sTbl != pTbl {
			t.Errorf("%s: parallel table differs from sequential:\n--- sequential\n%s--- parallel\n%s", seq[i].ID, sTbl, pTbl)
		}
	}
	sJSON, _ := json.Marshal(seq)
	pJSON, _ := json.Marshal(par)
	if !bytes.Equal(sJSON, pJSON) {
		t.Error("parallel results differ from sequential beyond wall time")
	}
}

// TestResultJSONRoundTrip checks that WriteJSON/ReadJSON preserve results
// exactly (tables, grids, metrics, violations).
func TestResultJSONRoundTrip(t *testing.T) {
	in := []*Result{
		{
			ID: "E1", Title: "t", Ref: "Lemma 2", Bound: "b",
			Grid:       []GridAxis{{Name: "graph", Values: []string{"g1", "g2"}}},
			Header:     []string{"a", "b"},
			Rows:       [][]string{{"1", "yes"}, {"2", "NO"}},
			Violations: []string{"E1: bound violated"},
			Metrics:    Metrics{Simulations: 3, SimRounds: 100, SimMessages: 2000, SimBits: 9000, MaxMessageBits: 17, WallNS: 42},
		},
		{ID: "F1", Title: "fig", Ref: "Figure 1", Header: []string{"grid"}, Rows: [][]string{{". . ."}}},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	inJSON, _ := json.Marshal(in)
	outJSON, _ := json.Marshal(out)
	if !bytes.Equal(inJSON, outJSON) {
		t.Fatalf("round trip mutated results:\nin:  %s\nout: %s", inJSON, outJSON)
	}
	if got := out[0].Table().Format(); got != in[0].Table().Format() {
		t.Fatalf("round-tripped table renders differently:\n%s", got)
	}
}

// TestBenchOutput checks the bench-format emitter parses as Go benchmark
// lines: name, iteration count, then value/unit pairs.
func TestBenchOutput(t *testing.T) {
	r := &Result{ID: "E4", Metrics: Metrics{WallNS: 12345, SimRounds: 678, SimMessages: 90, SimBits: 11}}
	var buf bytes.Buffer
	if err := WriteBench(&buf, []*Result{r, nil}); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "BenchmarkExperiment/E4") || fields[1] != "1" {
		t.Fatalf("not a benchmark line: %q", line)
	}
	if fields[3] != "ns/op" || fields[2] != "12345" {
		t.Fatalf("missing ns/op pair: %q", line)
	}
	for _, want := range []string{"sim-rounds", "sim-msgs", "sim-bits"} {
		if !strings.Contains(line, want) {
			t.Errorf("bench line missing %s unit: %q", want, line)
		}
	}
}

// TestWriteDocs checks the generated EXPERIMENTS.md shape: a section per
// result with ref, grid and table, and no wall-clock contamination.
func TestWriteDocs(t *testing.T) {
	results := []*Result{{
		ID: "E2", Title: "core slow", Ref: "Lemma 7", Bound: "congestion ≤ 2c*",
		Grid:    []GridAxis{{Name: "instance", Values: []string{"grid12x12/voronoi9"}}},
		Header:  []string{"instance", "ok"},
		Rows:    [][]string{{"grid12x12/voronoi9", "yes"}},
		Metrics: Metrics{Simulations: 1, SimRounds: 10, SimMessages: 20, WallNS: 987654321},
	}}
	var buf bytes.Buffer
	if err := WriteDocs(&buf, results); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{"## E2 — Lemma 7", "**Bound checked:** congestion ≤ 2c*", "- instance: grid12x12/voronoi9", "== E2: core slow ==", "all bounds hold"} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs missing %q:\n%s", want, doc)
		}
	}
	if strings.Contains(doc, "987654321") {
		t.Error("docs contain wall-clock data; regeneration would not be byte-stable")
	}
}

// TestGoldenJSONDeterminism is the byte-level golden contract behind
// `cmd/experiments -short -json`: modulo the wall-clock metric (the one field
// documented as nondeterministic, zeroed by runShort), the emitted JSON must
// be byte-identical whether the registry ran on one worker or eight — the CSR
// graph core and scratch pooling must not leak scheduling into any table,
// grid or metric.
func TestGoldenJSONDeterminism(t *testing.T) {
	one := runShort(t, 1).json
	eight := runShort(t, 8).json
	if !bytes.Equal(one, eight) {
		t.Fatalf("-workers=1 and -workers=8 JSON differ:\n--- workers=1\n%s\n--- workers=8\n%s", one, eight)
	}
}
