package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lcshortcut/internal/engbench"
)

// writeReport serializes a report into dir and returns its path.
func writeReport(t *testing.T, dir, name string, rep *engbench.Report) string {
	t.Helper()
	if rep.GoVersion == "" {
		rep.GoVersion = runtime.Version()
	}
	if rep.GoMaxProcs == 0 {
		rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func measurement(scenario, engine string, nsPerOp, allocs int64) engbench.Measurement {
	return engbench.Measurement{
		Scenario: scenario, Engine: engine, Iters: 1,
		NsPerOp: nsPerOp, AllocsPerOp: allocs, SimRounds: 10, SimMessages: 100,
	}
}

// TestBenchdiffGate drives the regression gate over crafted baseline and
// candidate reports: pass within budget, fail on ns/op regression, fail on
// steady-state alloc increase, tolerate unmatched scenarios on either side.
func TestBenchdiffGate(t *testing.T) {
	dir := t.TempDir()
	baseline := writeReport(t, dir, "base.json", &engbench.Report{
		Results: []engbench.Measurement{
			measurement("broadcast/grid-n2048", "event-loop", 1_000_000, 2000),
			measurement("tokenring/ring-n1024", "event-loop", 500_000, 1000),
			measurement("mincut/grid-n64", "event-loop", 2_000_000, 5000),
		},
	})
	cases := []struct {
		name    string
		cand    []engbench.Measurement
		wantErr string
		wantOut []string
	}{
		{
			name: "within-budget",
			cand: []engbench.Measurement{
				measurement("broadcast/grid-n2048", "event-loop", 1_200_000, 2000),
				measurement("tokenring/ring-n1024", "event-loop", 450_000, 1010),
				measurement("mincut/grid-n64", "event-loop", 2_100_000, 5000),
			},
			wantOut: []string{"3 measurements within budget"},
		},
		{
			name: "ns-regression",
			cand: []engbench.Measurement{
				measurement("broadcast/grid-n2048", "event-loop", 1_400_000, 2000),
				measurement("tokenring/ring-n1024", "event-loop", 500_000, 1000),
				measurement("mincut/grid-n64", "event-loop", 2_000_000, 5000),
			},
			wantErr: "1 regression(s) against",
			wantOut: []string{"FAIL"},
		},
		{
			name: "alloc-increase",
			cand: []engbench.Measurement{
				measurement("broadcast/grid-n2048", "event-loop", 1_000_000, 2600),
				measurement("tokenring/ring-n1024", "event-loop", 500_000, 1000),
				measurement("mincut/grid-n64", "event-loop", 2_000_000, 5000),
			},
			wantErr: "1 regression(s) against",
			wantOut: []string{"allocs"},
		},
		{
			name: "unmatched-scenarios-tolerated",
			cand: []engbench.Measurement{
				measurement("broadcast/grid-n2048", "event-loop", 1_000_000, 2000),
				measurement("broadcast/newfamily-n512", "event-loop", 700_000, 900),
			},
			wantOut: []string{
				"(no baseline — add one with a full -bench-json run)",
				"(baseline only — not measured by this run)",
				"1 measurements within budget",
			},
		},
		{
			name: "nothing-matches",
			cand: []engbench.Measurement{
				measurement("broadcast/renamed-n2048", "event-loop", 1_000_000, 2000),
			},
			wantErr: "no (scenario, engine) measurement matched",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cand := writeReport(t, dir, tc.name+".json", &engbench.Report{Results: tc.cand})
			var buf strings.Builder
			err := run([]string{"-baseline", baseline, "-candidate", cand}, &buf)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("gate failed: %v\n%s", err, buf.String())
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("gate error %v, want substring %q", err, tc.wantErr)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("output missing %q:\n%s", want, buf.String())
				}
			}
		})
	}
}

// TestBenchdiffAllocTolerances pins the two-sided alloc tolerance: the
// relative measurement-noise allowance on big counts and the absolute
// -alloc-slack override.
func TestBenchdiffAllocTolerances(t *testing.T) {
	dir := t.TempDir()
	baseline := writeReport(t, dir, "base.json", &engbench.Report{
		Results: []engbench.Measurement{measurement("raft/commit-grid-n1024", "event-loop", 1_000_000, 1_000_000)},
	})
	within := writeReport(t, dir, "noise.json", &engbench.Report{
		Results: []engbench.Measurement{measurement("raft/commit-grid-n1024", "event-loop", 1_000_000, 1_015_000)},
	})
	var buf strings.Builder
	if err := run([]string{"-baseline", baseline, "-candidate", within, "-alloc-frac", "0.02"}, &buf); err != nil {
		t.Fatalf("1.5%% alloc noise rejected: %v", err)
	}
	over := writeReport(t, dir, "real.json", &engbench.Report{
		Results: []engbench.Measurement{measurement("raft/commit-grid-n1024", "event-loop", 1_000_000, 1_050_000)},
	})
	if err := run([]string{"-baseline", baseline, "-candidate", over, "-alloc-frac", "0.02"}, &buf); err == nil {
		t.Fatal("5% alloc increase passed the 2% tolerance")
	}
	if err := run([]string{"-baseline", baseline, "-candidate", over, "-alloc-slack", "60000"}, &buf); err != nil {
		t.Fatalf("absolute slack not honored: %v", err)
	}
}

// TestBenchdiffHostMismatch pins the recording-environment contract: a
// baseline from a different core count or Go release is refused outright
// (the committed baseline must be re-recorded, not fudged), patch-level Go
// differences are fine, and -allow-host-mismatch downgrades the refusal to
// the comparison with a warning.
func TestBenchdiffHostMismatch(t *testing.T) {
	dir := t.TempDir()
	m := []engbench.Measurement{measurement("broadcast/grid-n2048", "event-loop", 1_000_000, 2000)}
	cand := writeReport(t, dir, "cand.json", &engbench.Report{Results: m})
	otherProcs := writeReport(t, dir, "procs.json", &engbench.Report{
		GoMaxProcs: runtime.GOMAXPROCS(0) + 3, Results: m,
	})
	var buf strings.Builder
	err := run([]string{"-baseline", otherProcs, "-candidate", cand}, &buf)
	if err == nil || !strings.Contains(err.Error(), "recording environments differ") {
		t.Fatalf("gomaxprocs mismatch not refused: %v", err)
	}
	if err := run([]string{"-baseline", otherProcs, "-candidate", cand, "-allow-host-mismatch"}, &buf); err != nil {
		t.Fatalf("-allow-host-mismatch did not override the refusal: %v", err)
	}
	otherGo := writeReport(t, dir, "gover.json", &engbench.Report{
		GoVersion: "go987.654.3", Results: m,
	})
	if err := run([]string{"-baseline", otherGo, "-candidate", cand}, &buf); err == nil || !strings.Contains(err.Error(), "recording environments differ") {
		t.Fatalf("go release mismatch not refused: %v", err)
	}
	patch := writeReport(t, dir, "patch.json", &engbench.Report{
		GoVersion: goMinor(runtime.Version()) + ".999", Results: m,
	})
	if err := run([]string{"-baseline", patch, "-candidate", cand}, &buf); err != nil {
		t.Fatalf("patch-level go difference refused: %v", err)
	}
}

func TestGoMinor(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"go1.24.3", "go1.24"},
		{"go1.24", "go1.24"},
		{"go1.25rc1", "go1.25rc1"},
		{"devel +abc123", "devel +abc123"},
	} {
		if got := goMinor(tc.in); got != tc.want {
			t.Errorf("goMinor(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestBenchdiffRequireFaster drives the baseline-free scaling gate: pass
// when the fast engine beats the slow one on every qualifying scenario,
// fail on a slower row, fail when a qualifying scenario is missing the fast
// engine's measurement, and ignore scenarios below -min-n.
func TestBenchdiffRequireFaster(t *testing.T) {
	dir := t.TempDir()
	gate := []string{"-require-faster", "sharded:event-loop", "-min-n", "100000"}
	cases := []struct {
		name    string
		cand    []engbench.Measurement
		wantErr string
		wantOut string
	}{
		{
			name: "faster-passes",
			cand: []engbench.Measurement{
				measurement("broadcast/ba-n1000000", "event-loop", 4_000_000, 0),
				measurement("broadcast/ba-n1000000", "sharded", 1_500_000, 0),
				// Below min-n: sharded slower here must not fail the gate.
				measurement("broadcast/grid-n2048", "event-loop", 1_000, 0),
				measurement("broadcast/grid-n2048", "sharded", 2_000, 0),
			},
			wantOut: "sharded faster than event-loop on all 1 scenario(s)",
		},
		{
			name: "slower-fails",
			cand: []engbench.Measurement{
				measurement("broadcast/ba-n1000000", "event-loop", 1_000_000, 0),
				measurement("broadcast/ba-n1000000", "sharded", 1_200_000, 0),
			},
			wantErr: "1 scenario(s) where sharded does not beat event-loop",
		},
		{
			name: "missing-row-fails",
			cand: []engbench.Measurement{
				measurement("broadcast/ba-n1000000", "event-loop", 1_000_000, 0),
			},
			wantErr: "1 scenario(s) where sharded does not beat event-loop",
			wantOut: "missing sharded",
		},
		{
			name: "nothing-qualifies",
			cand: []engbench.Measurement{
				measurement("broadcast/grid-n2048", "event-loop", 1_000, 0),
				measurement("broadcast/grid-n2048", "sharded", 500, 0),
			},
			wantErr: "no candidate scenario has >= 100000 nodes",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cand := writeReport(t, dir, tc.name+".json", &engbench.Report{Results: tc.cand})
			var buf strings.Builder
			err := run(append([]string{"-candidate", cand}, gate...), &buf)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("gate failed: %v\n%s", err, buf.String())
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("gate error %v, want substring %q\n%s", err, tc.wantErr, buf.String())
			}
			if tc.wantOut != "" && !strings.Contains(buf.String(), tc.wantOut) {
				t.Errorf("output missing %q:\n%s", tc.wantOut, buf.String())
			}
		})
	}
	// A malformed engine pair is a usage error, independent of the reports.
	cand := writeReport(t, dir, "pair.json", &engbench.Report{
		Results: []engbench.Measurement{measurement("broadcast/ba-n1000000", "sharded", 1, 0)},
	})
	var buf strings.Builder
	if err := run([]string{"-candidate", cand, "-require-faster", "sharded"}, &buf); err == nil || !strings.Contains(err.Error(), "fast:slow") {
		t.Fatalf("malformed -require-faster pair not rejected: %v", err)
	}
}

func TestBenchdiffErrorPaths(t *testing.T) {
	dir := t.TempDir()
	good := writeReport(t, dir, "good.json", &engbench.Report{
		Results: []engbench.Measurement{measurement("tokenring/ring-n1024", "event-loop", 1, 1)},
	})
	malformed := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(malformed, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := writeReport(t, dir, "empty.json", &engbench.Report{})
	cases := []struct {
		name    string
		args    []string
		wantSub string
	}{
		{"bad-flag", []string{"-nosuchflag"}, "invalid arguments"},
		{"stray-args", []string{"extra"}, "unexpected arguments"},
		{"missing-candidate", []string{"-baseline", good}, "-candidate is required"},
		{"missing-file", []string{"-baseline", good, "-candidate", filepath.Join(dir, "nope.json")}, "no such file"},
		{"malformed-json", []string{"-baseline", good, "-candidate", malformed}, "decoding"},
		{"empty-report", []string{"-baseline", good, "-candidate", empty}, "contains no measurements"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			err := run(tc.args, &buf)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("run(%v) error %q, want substring %q", tc.args, err, tc.wantSub)
			}
		})
	}
}
