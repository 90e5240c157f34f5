package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/graph"
)

// RunContext is the per-experiment execution context: the run mode plus an
// accumulator for the simulated CONGEST cost of every simulation the
// experiment performs. One RunContext belongs to exactly one experiment
// execution (experiments are internally sequential; only distinct
// experiments run concurrently), so it needs no locking.
type RunContext struct {
	// Short trims parameter grids to smoke-run size (CI, -short).
	Short bool

	sims  int
	stats congest.Stats
}

// Record accumulates the cost of one completed simulation. Experiment code
// calls it (directly or via RunContext.Run) after every congest.Run so the
// harness can report total simulated work per experiment.
func (rc *RunContext) Record(s congest.Stats) {
	rc.sims++
	rc.stats.Add(s)
}

// Run is congest.Run with accounting: it runs proc on g and records the
// run's Stats into the context before returning them.
func (rc *RunContext) Run(g *graph.Graph, proc congest.Proc, opts congest.Options) (congest.Stats, error) {
	stats, err := congest.Run(g, proc, opts)
	rc.Record(stats)
	return stats, err
}

// Simulations returns the number of recorded simulation runs so far.
func (rc *RunContext) Simulations() int { return rc.sims }

// Stats returns the accumulated simulated cost so far.
func (rc *RunContext) Stats() congest.Stats { return rc.stats }

// Options configures a harness run.
type Options struct {
	// Workers sets the worker-pool size; 0 or negative means
	// runtime.GOMAXPROCS(0). Workers == 1 is sequential execution; because
	// every experiment is deterministic per seed, any worker count produces
	// byte-identical tables.
	Workers int
	// Short selects the trimmed smoke grids.
	Short bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the given experiments on a worker pool and returns one Result
// per experiment, in input order regardless of completion order. Experiments
// are embarrassingly parallel — each simulation is deterministic per seed
// and experiments share no mutable state — so results are identical for
// every worker count. On experiment failure the corresponding Result is nil
// and the joined error names every failed experiment; the other results are
// still returned.
func Run(exps []*Experiment, opts Options) ([]*Result, error) {
	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = runOne(exps[i], opts.Short)
			}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, errors.Join(errs...)
}

// RunAll executes every registered experiment.
func RunAll(opts Options) ([]*Result, error) {
	return Run(All(), opts)
}

func runOne(e *Experiment, short bool) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%s: panic: %v", e.ID, r)
		}
	}()
	rc := &RunContext{Short: short}
	start := time.Now()
	tbl, err := e.Run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	// The descriptor owns identity; run functions only produce rows.
	tbl.ID, tbl.Title = e.ID, e.Title
	stats := rc.Stats()
	return &Result{
		ID:         e.ID,
		Title:      e.Title,
		Ref:        e.Ref,
		Bound:      e.Bound,
		Grid:       e.Grid(short),
		Header:     tbl.Header,
		Rows:       tbl.Rows,
		Violations: e.Violations(tbl),
		Metrics: Metrics{
			Simulations:    rc.Simulations(),
			SimRounds:      stats.Rounds,
			SimMessages:    stats.Messages,
			SimBits:        stats.TotalBits,
			MaxMessageBits: stats.MaxMessageBits,
			WallNS:         time.Since(start).Nanoseconds(),
		},
	}, nil
}
