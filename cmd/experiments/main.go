// Command experiments is the front end of the registry-driven experiment
// harness: it lists, filters and regenerates the paper-reproduction tables
// (E1-E9, F1, the scenario sweeps S1/S2 and the min-cut sweep M1)
// concurrently, and emits them as aligned text, machine-readable JSON, Go
// benchmark-format lines, or the EXPERIMENTS.md document.
//
//	experiments                  # run everything, print tables
//	experiments E4 E7 F1         # run a subset
//	experiments -list            # show the registry (no runs)
//	experiments -list-scenarios  # show the graph-scenario registry feeding it
//	experiments -json            # machine-readable results on stdout
//	experiments -bench           # benchstat-compatible lines on stdout
//	experiments -short -workers 4   # trimmed grids on 4 workers (CI smoke)
//	experiments -write-docs EXPERIMENTS.md   # regenerate the docs from live runs
//	experiments -bench-json BENCH_engine.json   # engine microbenchmarks only
//	experiments -bench-json out.json -bench-filter 'broadcast/ba-n1000000'  # one scenario, Heavy included
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"

	"lcshortcut/internal/engbench"
	"lcshortcut/internal/experiments"
	"lcshortcut/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list        = fs.Bool("list", false, "list registered experiments and exit")
		listScen    = fs.Bool("list-scenarios", false, "list the scenario registry feeding the experiments and benchmarks, then exit")
		jsonOut     = fs.Bool("json", false, "emit results as JSON")
		benchOut    = fs.Bool("bench", false, "emit results as Go benchmark-format lines")
		short       = fs.Bool("short", false, "run trimmed smoke-sized parameter grids")
		workers     = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		writeDocs   = fs.String("write-docs", "", "regenerate the given EXPERIMENTS.md `path` from this run")
		benchJSON   = fs.String("bench-json", "", "run the engine microbenchmarks and write the report to `path`, skipping the experiments")
		benchFilter = fs.String("bench-filter", "", "with -bench-json, measure only scenarios whose name matches this `regexp` (an explicit filter also runs matching Heavy scenarios in -short mode)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: experiments [flags] [ID ...]\n\nRegenerates the paper-reproduction tables. IDs filter the run (see -list).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already reported the problem and usage on stderr.
		return fmt.Errorf("invalid arguments")
	}
	if *listScen {
		if len(fs.Args()) > 0 {
			return fmt.Errorf("-list-scenarios lists the whole registry; drop the arguments %v", fs.Args())
		}
		for _, s := range scenario.All() {
			fmt.Fprintf(out, "%-12s  %-30s  %s\n", s.Name, strings.Join(s.Tags, ","), s.Description)
		}
		return nil
	}
	if *benchJSON != "" {
		if len(fs.Args()) > 0 {
			return fmt.Errorf("-bench-json runs the fixed engine scenario suite; drop the arguments %v", fs.Args())
		}
		return writeBenchJSON(*benchJSON, *short, *benchFilter)
	}
	if *benchFilter != "" {
		return fmt.Errorf("-bench-filter only applies with -bench-json")
	}
	exps, err := experiments.Select(fs.Args())
	if err != nil {
		return err
	}
	// EXPERIMENTS.md documents the whole registry; a filtered -write-docs
	// would silently drop every unselected section.
	if *writeDocs != "" && len(fs.Args()) > 0 {
		return fmt.Errorf("-write-docs regenerates the full document; drop the ID filter %v", fs.Args())
	}
	if *list {
		for _, e := range exps {
			fmt.Fprintf(out, "%-3s  %-28s  %s\n", e.ID, e.Ref, e.Title)
		}
		return nil
	}
	results, err := experiments.Run(exps, experiments.Options{Workers: *workers, Short: *short})
	if err != nil {
		return err
	}
	switch {
	case *jsonOut:
		if err := experiments.WriteJSON(out, results); err != nil {
			return err
		}
	case *benchOut:
		if err := experiments.WriteBench(out, results); err != nil {
			return err
		}
	default:
		if *writeDocs == "" {
			for _, r := range results {
				fmt.Fprintln(out, r.Table().Format())
			}
		}
	}
	if *writeDocs != "" {
		f, err := os.Create(*writeDocs)
		if err != nil {
			return err
		}
		if err := experiments.WriteDocs(f, results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", *writeDocs)
	}
	var violated []string
	for _, r := range results {
		if len(r.Violations) > 0 {
			violated = append(violated, r.ID)
		}
	}
	if len(violated) > 0 {
		return fmt.Errorf("bound violations in %s", strings.Join(violated, ", "))
	}
	return nil
}

// writeBenchJSON runs the engine microbenchmark suite (internal/engbench),
// one measurement per row (see engbench.Scenario.Rows), and records the
// measurements — the repository's engine perf trajectory — at path. Short
// mode runs each light scenario twice per row and skips the heavy ones (the
// CI bench gate; two iterations keep single-run scheduler noise out of the
// regression comparison); otherwise each measurement lasts at least a second. A filter
// regexp narrows the suite by scenario name — and since naming a scenario is
// an explicit request to run it, a filtered run measures matching Heavy
// scenarios even in short mode (the nightly large-n job measures exactly the
// million-node flood this way).
func writeBenchJSON(path string, short bool, filter string) error {
	minIters, minDur := 3, time.Second
	if short {
		minIters, minDur = 2, 0
	}
	suite := engbench.Scenarios()
	skipHeavy := short
	if filter != "" {
		re, err := regexp.Compile(filter)
		if err != nil {
			return fmt.Errorf("-bench-filter: %w", err)
		}
		matched := suite[:0]
		for _, sc := range suite {
			if re.MatchString(sc.Name) {
				matched = append(matched, sc)
			}
		}
		if len(matched) == 0 {
			return fmt.Errorf("-bench-filter %q matches no scenario", filter)
		}
		suite, skipHeavy = matched, false
	}
	rep, err := engbench.MeasureSuite(suite, minIters, minDur, skipHeavy)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, m := range rep.Results {
		fmt.Fprintf(os.Stderr, "%-22s %-10s %12d ns/op %8d allocs/op\n", m.Scenario, m.Engine, m.NsPerOp, m.AllocsPerOp)
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", path)
	return nil
}
