// Command perfbench is the repository benchmark: four workloads driven
// through the program's public entry points — the round-accurate CONGEST
// simulator (mst-planar, flood-expander), the centralized shortcut
// construction (construct-coarse) and the cached shortcut service
// (serve-zipf). BENCHMARK.json gates three of them; construct-coarse stays
// runnable for its traced layer split (see NOTES.md).
//
//	bash perfbench/run.sh --workload mst-planar --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) records spans around every call into a layer and reports the
// per-layer metrics, its self-time table and its own overhead. Every
// operation's output is checked; a failed check counts as a failed
// operation. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"lcshortcut/internal/congest"
)

// holdoutSeed is the seed kept out of tuning; the default seed is 1.
const holdoutSeed = 7919

// traceDir receives a traced run's span and layer files, relative to the
// checkout root the benchmark runs from.
const traceDir = ".bench_build/perfbench/traces"

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input to test size.
	tiny bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// breakCheck corrupts every output reference, so each operation's check
	// must fail (benchmark self-tests only).
	breakCheck bool
	// traceDir receives the span and layer files of a traced run.
	traceDir string
}

// instance is a workload after set-up: inputs built, references computed,
// pools warm.
type instance interface {
	// op runs operation id and checks its output. outcome labels the
	// operation (the X-Cache value for serve-zipf, "" elsewhere); a non-nil
	// error is a failed check.
	op(tr *tracer, id int) (outcome string, err error)
	// minOps is the fewest ops a window runs, however long they take.
	minOps() int
	// report adds the workload's exact results to table after an untraced
	// window, and in a traced run also its layer metrics to layers.
	report(cfg config, tr *tracer, w *window, table, layers *metrics) error
	close()
}

// workload names one benchmark input set.
type workload struct {
	name string
	why  string
	// setup builds one instance, recording its layer costs into layers.
	setup func(cfg config, layers *metrics) (instance, error)
	// dropped, when set, says why the workload is not in BENCHMARK.json:
	// it stays runnable for its traced layer split, but is not gated.
	dropped string
}

var workloads = []workload{
	{name: "mst-planar", why: "the paper's application end to end: Boruvka MST over found shortcuts with the engine at its sparsest", setup: setupMST},
	{name: "flood-expander", why: "the engine used the other way: every node sends on every arc in every round", setup: setupFlood},
	{name: "construct-coarse", why: "the centralized construction at scale, where sealing (part diameters) dominates", setup: setupConstruct,
		dropped: "op_ms_p50 spread 0.195 and ops_per_s spread 0.172 over 10 seeds of 25 s runs"},
	{name: "serve-zipf", why: "the service layers under a churning cache: decode, cache, single-flight, construction, encode", setup: setupServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"retained_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, on every workload. A
// layer the workload never calls reports 0.
var perLayer = []struct{ name, unit string }{
	{"congest.ns_per_node_round", "ns"},
	{"congest.ns_per_msg", "ns"},
	{"congest.send_ms", "ms"},
	{"congest.step_ms", "ms"},
	{"congest.rounds", "count"},
	{"congest.messages", "count"},
	{"bfsproto.rounds", "count"},
	{"bfsproto.ms", "ms"},
	{"mst.rounds", "count"},
	{"mst.ms", "ms"},
	{"mst.phases", "count"},
	{"graph.build_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"partition.voronoi_ms", "ms"},
	{"partition.fingerprint_ms", "ms"},
	{"tree.bfstree_ms", "ms"},
	{"core.probes", "count"},
	{"core.iterations", "count"},
	{"core.congestion", "count"},
	{"core.block_param", "count"},
	{"core.dilation", "count"},
	{"core.corefast_ms", "ms"},
	{"core.seal_ms", "ms"},
	{"core.blocks_ms", "ms"},
	{"core.diameter_ms", "ms"},
	{"core.congestion_ms", "ms"},
	{"shortcutsvc.hit_ratio", "ratio"},
	{"shortcutsvc.coalesced", "count"},
	{"shortcutsvc.evictions", "count"},
	{"shortcutsvc.errors", "count"},
	{"shortcutsvc.hit_ms_p50", "ms"},
	{"shortcutsvc.miss_ms_p50", "ms"},
	{"shortcutsvc.op_ms_p99", "ms"},
	{"shortcutsvc.query_hit_us", "us"},
	{"shortcutsvc.query_miss_ms", "ms"},
	{"shortcutsvc.decode_us", "us"},
	{"shortcutsvc.encode_us", "us"},
	{"shortcutsvc.http_us", "us"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.gc_per_op", "count"},
	{"proc.alloc_mb_per_op", "MB"},
	{"trace.overhead_pct", "%"},
}

// sample is one timed operation; end is its completion time since the
// window started.
type sample struct {
	d, end  time.Duration
	outcome string
}

// window is one measured stretch of closed-loop operations.
type window struct {
	samples           []sample
	attempted, failed int
	before, after     procSnap
	failures          []string
}

// throughputBatches is how many consecutive batches opsPerSecond splits a
// window into.
const throughputBatches = 10

// opsPerSecond is the median throughput over consecutive batches of the
// window's ops in completion order (at least two ops per batch): a batch's
// throughput is its op count over the time from the previous batch's last
// completion to its own. Unlike ops over the whole window, the median
// ignores a slow stretch covering fewer than half the batches.
func (w *window) opsPerSecond() float64 {
	ends := make([]time.Duration, len(w.samples))
	for i, s := range w.samples {
		ends[i] = s.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	batches := min(throughputBatches, max(1, len(ends)/2))
	var rates []float64
	var prev time.Duration
	for b := 0; b < batches; b++ {
		lo, hi := b*len(ends)/batches, (b+1)*len(ends)/batches
		last := ends[hi-1]
		rates = append(rates, float64(hi-lo)/(last-prev).Seconds())
		prev = last
	}
	return median(rates)
}

func (w *window) latenciesMs(keep func(outcome string) bool) []float64 {
	var out []float64
	for _, s := range w.samples {
		if keep == nil || keep(s.outcome) {
			out = append(out, ms(s.d))
		}
	}
	return out
}

// measureWindow runs inst's closed loop for d (and at least inst.minOps()
// operations): one client issues each op after the previous one returned.
func measureWindow(inst instance, tr *tracer, d time.Duration, firstID int) *window {
	w := &window{}
	start := time.Now()
	deadline := start.Add(d)
	w.before = readProc()
	for id := firstID; w.attempted < inst.minOps() || !time.Now().After(deadline); id++ {
		w.attempted++
		t0 := time.Now()
		outcome, err := inst.op(tr, id)
		w.samples = append(w.samples, sample{d: time.Since(t0), end: time.Since(start), outcome: outcome})
		if err != nil {
			w.failed++
			if len(w.failures) < 5 {
				w.failures = append(w.failures, fmt.Sprintf("op %d: %v", id, err))
			}
		}
	}
	w.after = readProc()
	return w
}

// opLatencies are the latencies op_ms_p50 is the median of: every op, except
// that serve-zipf counts only its cache hits. Over all its requests the
// median falls at the hits' 71st percentile, on the slope of slow hits
// rather than at their peak, and it spread more than the hit median in
// every set of runs measured; misses weigh in through ops_per_s.
func opLatencies(w *window) []float64 {
	return w.latenciesMs(func(outcome string) bool { return outcome == "" || isHit(outcome) })
}

// result is what one invocation prints last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload performs one invocation: set-up (timed cfg.setups times), the
// measured window, the output checks and the report. The returned table
// holds every number the run printed, including workload-specific ones
// outside the JSON result.
func runWorkload(wl workload, cfg config, log io.Writer) (*result, *metrics, error) {
	setupLayers := newMetrics()
	var inst instance
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			inst.close()
		}
		layers := newMetrics()
		t0 := time.Now()
		var err error
		inst, err = wl.setup(cfg, layers)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i == 0 {
			setupLayers = layers
		}
	}
	defer inst.close()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	table := newMetrics()
	layers := newMetrics()
	tr := newTracer(false)
	var w *window
	if !cfg.trace {
		w = measureWindow(inst, tr, dur, 0)
	} else {
		// The first half of the window runs untraced and gives every
		// latency and process number; the second half records spans. The
		// difference between the halves is the tracing overhead.
		w = measureWindow(inst, tr, dur/2, 0)
		tr = newTracer(true)
		traced := measureWindow(inst, tr, dur/2, w.attempted)
		base, cost := median(opLatencies(w)), median(opLatencies(traced))
		layers.set("trace.overhead_pct", 100*(cost-base)/base, "%", len(traced.samples))
		w.attempted += traced.attempted
		w.failed += traced.failed
		w.failures = append(w.failures, traced.failures...)
	}
	for _, f := range w.failures {
		fmt.Fprintln(log, "check failed:", f)
	}

	lat := opLatencies(w)
	table.set("setup_s", median(setupS), "s", len(setupS))
	table.set("op_ms_p50", median(lat), "ms", len(lat))
	table.set("ops_per_s", w.opsPerSecond(), "1/s", len(w.samples))
	if err := inst.report(cfg, tr, w, table, layers); err != nil {
		return nil, nil, fmt.Errorf("%s: report: %w", wl.name, err)
	}
	table.set("retained_mb", retainedMB(), "MB", 1)
	runtime.KeepAlive(inst)

	res := &result{Attempted: w.attempted, Failed: w.failed, Metrics: make(map[string]jsonMetric)}
	res.Correct = res.Failed == 0
	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = jsonMetric{Value: table.m[m.name].Value, Unit: m.unit}
		}
		return res, table, nil
	}
	addProcMetrics(layers, w.before, w.after, len(w.samples))
	for name, m := range setupLayers.m {
		layers.m[name] = m
	}
	rows := tr.selfTimes()
	printLayers(log, rows)
	if cfg.traceDir != "" {
		stem := fmt.Sprintf("%s-seed%d", wl.name, cfg.seed)
		path, err := tr.writeSpans(cfg.traceDir, stem, rows)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintln(log, "spans written to", path)
	}
	for _, m := range perLayer {
		v := layers.m[m.name]
		res.Metrics[m.name] = jsonMetric{Value: v.Value, Unit: m.unit}
	}
	return res, layers, nil
}

// printTable writes every reported number with its unit and sample count.
func printTable(w io.Writer, ms *metrics) {
	names := make([]string, 0, len(ms.m))
	for n := range ms.m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %16s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := ms.m[n]
		fmt.Fprintf(w, "%-28s %16.6g %-6s %8d\n", n, m.Value, m.Unit, m.Samples)
	}
}

func engineName(e congest.Engine) string {
	switch e {
	case congest.EngineEventLoop:
		return "event-loop"
	case congest.EngineChannel:
		return "channel"
	case congest.EngineSharded:
		return "sharded"
	}
	return fmt.Sprintf("engine-%d", int(e))
}

// meta describes the host and configuration, so numbers recorded under
// another engine or core count are never compared silently.
func meta(wl workload, cfg config) map[string]any {
	m := map[string]any{
		"workload":     wl.name,
		"why":          wl.why,
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"engine":       engineName(congest.CurrentEngine()),
		"seed":         cfg.seed,
		"holdout_seed": holdoutSeed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
	}
	if wl.dropped != "" {
		m["not_gated"] = wl.dropped
	}
	return m
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mst-planar, flood-expander, construct-coarse or serve-zipf")
	seed := fs.Int64("seed", 1, fmt.Sprintf("workload seed (hold-out seed: %d)", holdoutSeed))
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	wl, ok := findWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3, traceDir: traceDir}
	if cfg.trace {
		cfg.setups = 1
	}
	mj, err := json.Marshal(meta(wl, cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# meta %s\n", mj)
	res, table, err := runWorkload(wl, cfg, stdout)
	if err != nil {
		return err
	}
	printTable(stdout, table)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
