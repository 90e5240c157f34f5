// Command benchdiff is the CI benchmark-regression gate: it compares a
// fresh engine-benchmark report (cmd/experiments -bench-json) against the
// committed baseline BENCH_engine.json and fails on a >30% ns/op regression
// or any steady-state allocation increase (beyond a small relative
// measurement tolerance — see -alloc-frac) on a matching (scenario, engine)
// measurement.
//
//	go run ./cmd/experiments -short -bench-json /tmp/bench_new.json
//	go run ./cmd/benchdiff -baseline BENCH_engine.json -candidate /tmp/bench_new.json
//
// Measurements present only in the candidate (a new scenario without a
// recorded baseline) or only in the baseline (heavy scenarios skipped by a
// short run) are reported but do not fail the gate; the committed baseline
// is regenerated with a full `-bench-json BENCH_engine.json` run whenever
// the scenario suite changes.
//
// Absolute ns/op only transfers between equal recording environments, so the
// gate refuses outright when the two reports disagree on GOMAXPROCS or the
// Go release (major.minor): a failing comparison across hosts means
// "re-record the baseline in the gating environment", not "regression".
// -allow-host-mismatch downgrades the refusal to a warning for local
// exploration.
//
// A second, baseline-free mode gates the scaling claim of the sharded row
// (one shard per core) over the event-loop row (one shard):
//
//	go run ./cmd/benchdiff -candidate /tmp/large.json -require-faster sharded:event-loop -min-n 100000
//
// fails unless, on every candidate scenario with at least -min-n nodes
// (parsed from the -n<nodes> name suffix), the first engine's ns/op beats
// the second's. The nightly large-n CI job runs it on the million-node
// flood measured on a multi-core runner.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"lcshortcut/internal/engbench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		baselinePath  = fs.String("baseline", "BENCH_engine.json", "committed baseline report `path`")
		candidatePath = fs.String("candidate", "", "fresh report `path` to gate (required)")
		maxRegress    = fs.Float64("max-regress", 0.30, "maximum tolerated ns/op regression (fraction over baseline)")
		allocSlack    = fs.Int64("alloc-slack", 0, "absolute tolerated allocs/op increase")
		allocFrac     = fs.Float64("alloc-frac", 0.02, "relative allocs/op measurement tolerance (rows in the millions of allocs/op, such as raft/commit-grid-n1024 and broadcast/ba-n1000000, carry ~1% GC-timing noise; a real steady-state regression adds at least one alloc per round, far above this)")
		allowMismatch = fs.Bool("allow-host-mismatch", false, "compare reports recorded under different GOMAXPROCS or Go releases anyway (warning instead of refusal)")
		requireFaster = fs.String("require-faster", "", "baseline-free mode: `fast:slow` engine pair — fail unless fast beats slow on every candidate scenario with at least -min-n nodes")
		minN          = fs.Int("min-n", 100000, "with -require-faster, gate only scenarios of at least this many nodes (from the -n<nodes> name suffix)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already reported the problem and usage on stderr.
		return fmt.Errorf("invalid arguments")
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *candidatePath == "" {
		return fmt.Errorf("-candidate is required")
	}
	cand, err := readReport(*candidatePath)
	if err != nil {
		return err
	}
	if *requireFaster != "" {
		return runRequireFaster(out, cand, *requireFaster, *minN)
	}
	base, err := readReport(*baselinePath)
	if err != nil {
		return err
	}
	// Absolute ns/op only transfers between equal environments: a different
	// core count or Go release makes every comparison below meaningless, so
	// a mismatch is a hard refusal (the baseline must be re-recorded in the
	// gating environment), downgradeable to a warning for local exploration.
	if base.GoMaxProcs != cand.GoMaxProcs || goMinor(base.GoVersion) != goMinor(cand.GoVersion) {
		msg := fmt.Sprintf(
			"baseline recorded on %s gomaxprocs=%d, candidate on %s gomaxprocs=%d — absolute ns/op comparisons across environments are unreliable; regenerate the baseline with `go run ./cmd/experiments -bench-json %s` in the gating environment",
			base.GoVersion, base.GoMaxProcs, cand.GoVersion, cand.GoMaxProcs, *baselinePath)
		if !*allowMismatch {
			return fmt.Errorf("recording environments differ: %s (or pass -allow-host-mismatch)", msg)
		}
		fmt.Fprintf(os.Stderr, "benchdiff: WARNING: %s\n", msg)
	}
	type key struct{ scenario, engine string }
	baseline := make(map[key]engbench.Measurement, len(base.Results))
	for _, m := range base.Results {
		baseline[key{m.Scenario, m.Engine}] = m
	}
	var failures []string
	matched := 0
	fmt.Fprintf(out, "%-28s %-10s %14s %14s %8s %10s\n", "SCENARIO", "ENGINE", "BASE ns/op", "CAND ns/op", "Δ%", "allocs")
	for _, m := range cand.Results {
		b, ok := baseline[key{m.Scenario, m.Engine}]
		if !ok {
			fmt.Fprintf(out, "%-28s %-10s %14s %14d %8s %10d  (no baseline — add one with a full -bench-json run)\n",
				m.Scenario, m.Engine, "-", m.NsPerOp, "-", m.AllocsPerOp)
			continue
		}
		delete(baseline, key{m.Scenario, m.Engine})
		matched++
		delta := 100 * (float64(m.NsPerOp)/float64(b.NsPerOp) - 1)
		verdict := ""
		if float64(m.NsPerOp) > float64(b.NsPerOp)*(1+*maxRegress) {
			verdict = fmt.Sprintf("ns/op regressed %.1f%% (> %.0f%% tolerated)", delta, 100**maxRegress)
		}
		allocTol := *allocSlack
		if rel := int64(float64(b.AllocsPerOp) * *allocFrac); rel > allocTol {
			allocTol = rel
		}
		if m.AllocsPerOp > b.AllocsPerOp+allocTol {
			if verdict != "" {
				verdict += "; "
			}
			verdict += fmt.Sprintf("allocs/op %d -> %d (steady-state alloc increase)", b.AllocsPerOp, m.AllocsPerOp)
		}
		mark := ""
		if verdict != "" {
			failures = append(failures, fmt.Sprintf("%s/%s: %s", m.Scenario, m.Engine, verdict))
			mark = "  FAIL"
		}
		fmt.Fprintf(out, "%-28s %-10s %14d %14d %+7.1f%% %5d->%-4d%s\n",
			m.Scenario, m.Engine, b.NsPerOp, m.NsPerOp, delta, b.AllocsPerOp, m.AllocsPerOp, mark)
	}
	var unmeasured []key
	for k := range baseline {
		unmeasured = append(unmeasured, k)
	}
	sort.Slice(unmeasured, func(i, j int) bool {
		if unmeasured[i].scenario != unmeasured[j].scenario {
			return unmeasured[i].scenario < unmeasured[j].scenario
		}
		return unmeasured[i].engine < unmeasured[j].engine
	})
	for _, k := range unmeasured {
		fmt.Fprintf(out, "%-28s %-10s  (baseline only — not measured by this run)\n", k.scenario, k.engine)
	}
	if matched == 0 {
		return fmt.Errorf("no (scenario, engine) measurement matched the baseline — suite renamed without regenerating %s?", *baselinePath)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchdiff: FAIL %s\n", f)
		}
		return fmt.Errorf("%d regression(s) against %s", len(failures), *baselinePath)
	}
	fmt.Fprintf(out, "benchdiff: %d measurements within budget (ns/op +%.0f%%, allocs +max(%d, %.0f%%))\n", matched, 100**maxRegress, *allocSlack, 100**allocFrac)
	return nil
}

// goMinor reduces a runtime.Version() string to its major.minor release
// ("go1.24.3" -> "go1.24"): patch releases don't shift benchmark numbers,
// toolchain releases can.
func goMinor(v string) string {
	if i := strings.Index(v, "."); i >= 0 {
		if j := strings.Index(v[i+1:], "."); j >= 0 {
			return v[:i+1+j]
		}
	}
	return v
}

// dash renders a possibly-missing ns/op cell.
func dash(v int64, ok bool) string {
	if !ok {
		return "-"
	}
	return strconv.FormatInt(v, 10)
}

// scenarioNodes parses the node count from a scenario name's trailing
// -n<nodes> suffix ("broadcast/ba-n1000000" -> 1000000); ok is false for
// names without one.
var nodeSuffix = regexp.MustCompile(`-n(\d+)$`)

func scenarioNodes(name string) (int, bool) {
	m := nodeSuffix.FindStringSubmatch(name)
	if m == nil {
		return 0, false
	}
	n, err := strconv.Atoi(m[1])
	return n, err == nil
}

// runRequireFaster is the baseline-free scaling gate: on every candidate
// scenario with at least minN nodes, the fast engine's ns/op must beat the
// slow engine's. A qualifying scenario missing either engine's measurement
// fails too — a gate that silently skips the row it exists for is no gate.
func runRequireFaster(out io.Writer, cand *engbench.Report, pair string, minN int) error {
	fast, slow, ok := strings.Cut(pair, ":")
	if !ok || fast == "" || slow == "" {
		return fmt.Errorf("-require-faster wants fast:slow engine names, got %q", pair)
	}
	perScenario := make(map[string]map[string]int64)
	var names []string
	for _, m := range cand.Results {
		n, ok := scenarioNodes(m.Scenario)
		if !ok || n < minN {
			continue
		}
		if perScenario[m.Scenario] == nil {
			perScenario[m.Scenario] = make(map[string]int64)
			names = append(names, m.Scenario)
		}
		perScenario[m.Scenario][m.Engine] = m.NsPerOp
	}
	if len(names) == 0 {
		return fmt.Errorf("no candidate scenario has >= %d nodes — nothing to gate", minN)
	}
	sort.Strings(names)
	var failures []string
	fmt.Fprintf(out, "%-28s %14s %14s %8s\n", "SCENARIO", fast+" ns/op", slow+" ns/op", "speedup")
	for _, name := range names {
		engines := perScenario[name]
		f, fok := engines[fast]
		s, sok := engines[slow]
		switch {
		case !fok || !sok:
			missing := fast
			if fok {
				missing = slow
			}
			failures = append(failures, fmt.Sprintf("%s: no %q measurement", name, missing))
			fmt.Fprintf(out, "%-28s %14s %14s %8s  FAIL (missing %s)\n", name, dash(f, fok), dash(s, sok), "-", missing)
		case f >= s:
			failures = append(failures, fmt.Sprintf("%s: %s (%d ns/op) not faster than %s (%d ns/op)", name, fast, f, slow, s))
			fmt.Fprintf(out, "%-28s %14d %14d %7.2fx  FAIL\n", name, f, s, float64(s)/float64(f))
		default:
			fmt.Fprintf(out, "%-28s %14d %14d %7.2fx\n", name, f, s, float64(s)/float64(f))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchdiff: FAIL %s\n", f)
		}
		return fmt.Errorf("%d scenario(s) where %s does not beat %s at n >= %d (gomaxprocs=%d)", len(failures), fast, slow, minN, cand.GoMaxProcs)
	}
	fmt.Fprintf(out, "benchdiff: %s faster than %s on all %d scenario(s) with n >= %d (gomaxprocs=%d)\n", fast, slow, len(names), minN, cand.GoMaxProcs)
	return nil
}

func readReport(path string) (*engbench.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep engbench.Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s contains no measurements", path)
	}
	return &rep, nil
}
