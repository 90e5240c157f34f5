package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyConfig is a fast test-size invocation.
func tinyConfig(seed int64, trace bool, dir string) config {
	return config{seed: seed, seconds: 0.2, trace: trace, tiny: true, setups: 1, traceDir: dir}
}

func mustRun(t *testing.T, wl workload, cfg config) (*result, *metrics) {
	t.Helper()
	res, table, err := runWorkload(wl, cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	return res, table
}

// TestTinyRunsReportEveryMetric runs every workload at test size, untraced
// and traced, and checks the result line carries exactly the declared
// metrics with passing output checks.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				dir := t.TempDir()
				res, _ := mustRun(t, wl, tinyConfig(1, traced, dir))
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
					}
				}
				if !traced {
					for _, m := range endToEnd {
						if res.Metrics[m.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.name, res.Metrics[m.name].Value)
						}
					}
				}
				if traced {
					files, err := os.ReadDir(dir)
					if err != nil || len(files) != 2 {
						t.Errorf("traced run wrote %d files (%v), want spans and layers", len(files), err)
					}
				}
			}
		})
	}
}

// exactNames are the per-layer metrics that are counts fixed by the inputs.
var exactNames = []string{
	"congest.rounds", "congest.messages", "bfsproto.rounds", "mst.rounds", "mst.phases",
	"core.probes", "core.iterations", "core.congestion", "core.block_param", "core.dilation",
}

func exactOf(t *testing.T, wl workload, seed int64) map[string]float64 {
	t.Helper()
	res, _ := mustRun(t, wl, tinyConfig(seed, true, ""))
	out := make(map[string]float64)
	for _, n := range exactNames {
		out[n] = res.Metrics[n].Value
	}
	return out
}

// TestExactMetricsFollowTheSeed checks the exact counts repeat under the
// same seed and change under another — except on mst-planar, whose
// instance is fixed.
func TestExactMetricsFollowTheSeed(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, b, c := exactOf(t, wl, 1), exactOf(t, wl, 1), exactOf(t, wl, 2)
			for _, n := range exactNames {
				if a[n] != b[n] {
					t.Errorf("%s: %v then %v under the same seed", n, a[n], b[n])
				}
			}
			same := true
			nonzero := false
			for _, n := range exactNames {
				same = same && a[n] == c[n]
				nonzero = nonzero || a[n] != 0
			}
			if !nonzero {
				t.Errorf("no exact metric is reported: %v", a)
			}
			if wl.name == "mst-planar" {
				if !same {
					t.Errorf("the fixed instance changed with the seed: %v vs %v", a, c)
				}
			} else if same {
				t.Errorf("exact metrics identical under seeds 1 and 2: %v", a)
			}
		})
	}
}

// TestBrokenCheckCountsAsFailed corrupts every reference and expects each
// operation to be counted as failed, never a crash.
func TestBrokenCheckCountsAsFailed(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := tinyConfig(1, false, "")
			cfg.breakCheck = true
			res, _ := mustRun(t, wl, cfg)
			if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
				t.Errorf("correct=%v failed=%d attempted=%d, want every op failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNamesAndManifest checks every name is well formed and that
// BENCHMARK.json declares exactly the workloads and metrics the code runs.
func TestMetricNamesAndManifest(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("bad or repeated metric %q (unit %q)", name, unit)
		}
		seen[name] = true
	}
	for _, m := range endToEnd {
		check(m.name, m.unit)
	}
	for _, m := range perLayer {
		check(m.name, m.unit)
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if w.dropped == "" {
			gated = append(gated, w)
		}
	}
	if len(manifest.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code gates %d", len(manifest.Workloads), len(gated))
	}
	for i, w := range manifest.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
	}
	if len(manifest.EndToEnd) != len(endToEnd) || len(manifest.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the code %d+%d",
			len(manifest.EndToEnd), len(manifest.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range manifest.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s/%s, code %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range manifest.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s/%s, code %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestCLI checks the result is the last stdout line and that bad
// invocations fail without printing one.
func TestCLI(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"--workload", "flood-expander", "--seed", "3", "--seconds", "0.2", "--trace", "0"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Errorf("result keys: %s", lines[len(lines)-1])
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mst-planar", "--trace", "2"},
		{"--workload", "mst-planar", "--seconds", "0"},
		{"--workload", "mst-planar", "extra"},
	} {
		out.Reset()
		if err := run(bad, &out, io.Discard); err == nil {
			t.Errorf("%v: want an error", bad)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v printed a result", bad)
		}
	}
}

// TestOpsPerSecondIgnoresASlowStretch gives one op per second, except for
// a stretch of three batches at a quarter of the rate.
func TestOpsPerSecondIgnoresASlowStretch(t *testing.T) {
	w := &window{}
	var end time.Duration
	for i := 0; i < 40; i++ {
		step := time.Second
		if i >= 8 && i < 20 {
			step = 4 * time.Second
		}
		end += step
		w.samples = append(w.samples, sample{d: step, end: end})
	}
	if got := w.opsPerSecond(); got != 1 {
		t.Errorf("opsPerSecond = %v, want 1", got)
	}
}

func TestCoveredNs(t *testing.T) {
	for _, c := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {3, 6}, {8, 9}}, 0, 10, 5},
		{[][2]int64{{-5, 3}, {9, 20}}, 0, 10, 4},
		{[][2]int64{{1, 2}, {1, 2}}, 0, 10, 1},
	} {
		if got := coveredNs(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("coveredNs(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}
