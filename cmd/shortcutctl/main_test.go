package main

import (
	"strings"
	"testing"
)

// TestRunGolden pins shortcutctl's stdout for representative flag
// combinations — every run is deterministic (fixed seeds throughout), so
// full-output comparisons are stable.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{
			name: "central-columns",
			args: []string{"-graph", "grid:8x8", "-partition", "columns"},
			want: "graph: n=64 m=112 diameter<=28  partition: N=8 maxPartDiam=7  witness c*=7\n" +
				"FindShortcut finished in 1 iterations (good per iter: [8])\n" +
				"quality: congestion=7 (shortcut-only 7)  block=1  dilation=14  (Lemma 1 bound 29)\n",
		},
		{
			name: "auto-doubling-ring",
			args: []string{"-graph", "ring:12", "-partition", "voronoi:3", "-auto"},
			want: "graph: n=12 m=12 diameter<=12  partition: N=3 maxPartDiam=5  witness c*=2\n" +
				"doubling settled at est=1 after 0 failed probes\n" +
				"quality: congestion=2 (shortcut-only 2)  block=1  dilation=6  (Lemma 1 bound 13)\n",
		},
		{
			name: "dist-protocol",
			args: []string{"-graph", "grid:6x6", "-partition", "voronoi:4", "-mode", "dist"},
			want: "graph: n=36 m=60 diameter<=20  partition: N=4 maxPartDiam=6  witness c*=4\n" +
				"distributed run: 826 CONGEST rounds, 3185 messages, 1 iterations\n" +
				"quality: congestion=4 (shortcut-only 4)  block=1  dilation=10  (Lemma 1 bound 21)\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			if err := run(tc.args, &buf); err != nil {
				t.Fatalf("run(%v) = %v", tc.args, err)
			}
			if buf.String() != tc.want {
				t.Errorf("run(%v) stdout:\n%s\nwant:\n%s", tc.args, buf.String(), tc.want)
			}
		})
	}
}

// TestRunRender checks the Figure 1 block rendering path on a snake
// partition (whole-grid coverage renders a solid block).
func TestRunRender(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-graph", "grid:9x9", "-partition", "snake:1", "-render", "0"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"part 0 decomposes into 1 block components:",
		"a a a a a a a a a",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestRunErrorPaths checks that every malformed invocation or infeasible run
// fails with a non-nil error (the process exit-1 path), naming the case.
func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantSub string
	}{
		{"bad-flag", []string{"-nosuchflag"}, "invalid arguments"},
		{"stray-args", []string{"grid:4x4"}, "unexpected arguments"},
		{"bad-graph-spec", []string{"-graph", "dodecahedron:5"}, "unknown graph spec"},
		{"malformed-grid-dims", []string{"-graph", "grid:axb"}, "bad graph spec"},
		{"bad-partition-spec", []string{"-graph", "grid:4x4", "-partition", "mystery:2"}, "unknown partition spec"},
		{"columns-needs-grid", []string{"-graph", "ring:8", "-partition", "columns"}, "columns partition needs a grid"},
		{"bad-mode", []string{"-graph", "grid:4x4", "-partition", "columns", "-mode", "quantum"}, "unknown mode"},
		{"render-needs-grid", []string{"-graph", "ring:8", "-partition", "voronoi:2", "-render", "0"}, "-render needs a grid-family graph"},
		{"render-part-out-of-range", []string{"-graph", "grid:6x6", "-partition", "voronoi:3", "-render", "7"}, "-render 7: the partition has only 3 parts"},
		{"render-part-at-count", []string{"-graph", "grid:6x6", "-partition", "voronoi:3", "-render", "3"}, "-render 3: the partition has only 3 parts"},
		{"dist-infeasible-params", []string{"-graph", "grid:16x16", "-partition", "snake:4", "-mode", "dist", "-c", "1"}, "distributed FindShortcut failed"},
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

// TestMincutSubcommand drives the mincut subcommand in both modes and pins
// the deterministic report lines; the -eps bound must pass on the exact
// ratio these instances achieve.
func TestMincutSubcommand(t *testing.T) {
	t.Run("dist", func(t *testing.T) {
		var buf strings.Builder
		err := runMincut([]string{"-graph", "grid:6x6", "-trees", "2", "-eps", "0.25"}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{
			"graph: n=36 m=60  packing: 2 trees (canonical strategy)",
			"certified cut=2",
			"witness: cut=2,",
			"exact: 2 (Stoer–Wagner)  ratio=1.000",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("dist output missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("central", func(t *testing.T) {
		var buf strings.Builder
		if err := runMincut([]string{"-graph", "ring:24", "-mode", "central"}, &buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{
			"packing: 6 trees (centralized reference)",
			"witness: cut=2, 1-respecting tree 0 at edge 0 (|S|=23)",
			"exact: 2 (Stoer–Wagner)  ratio=1.000",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("central output missing %q:\n%s", want, out)
			}
		}
	})
}

func TestMincutSubcommandErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantSub string
	}{
		{"bad-flag", []string{"-nosuchflag"}, "invalid arguments"},
		{"stray-args", []string{"grid:4x4"}, "unexpected arguments"},
		{"bad-graph", []string{"-graph", "mystery:9"}, "unknown graph spec"},
		{"bad-mode", []string{"-graph", "grid:4x4", "-mode", "quantum"}, "unknown mode"},
		{"bad-strategy", []string{"-graph", "grid:4x4", "-strategy", "telepathy"}, "unknown packing strategy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			err := runMincut(tc.args, &buf)
			if err == nil {
				t.Fatalf("runMincut(%v) succeeded, want error containing %q", tc.args, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("runMincut(%v) error %q, want substring %q", tc.args, err, tc.wantSub)
			}
		})
	}
}
