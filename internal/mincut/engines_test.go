package mincut

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/congest/congesttest"
	"lcshortcut/internal/gen"
)

// TestMincutEnginesIdentical pins the shard-count contract for the
// protocol: outcome and simulated cost must be byte-identical at one shard
// and at three.
func TestMincutEnginesIdentical(t *testing.T) {
	g := gen.WithUniqueWeights(gen.Grid(6, 6), 4)
	_, _, err := congesttest.Identical(t, func(shards int) (any, congest.Stats, error) {
		out, stats, err := Run(g, 0, 9, Config{Trees: 3}, congest.Options{Shards: shards})
		return out, stats, err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitGoroutines polls until the goroutine count drops back to at most base,
// so asynchronous abort unwinding cannot flake the leak assertions
// (mirroring congest's engines_test pattern).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestMincutAbortMidPackingNoGoroutineLeak aborts the protocol in the middle
// of the packing stage with a tight watchdog at one shard and at three: Run
// must surface ErrMaxRounds and every node goroutine must exit (polled with
// a bound: a goroutine past its deferred WaitGroup.Done may not have exited
// when Run returns).
func TestMincutAbortMidPackingNoGoroutineLeak(t *testing.T) {
	g := gen.Grid(6, 6)
	for _, sh := range congesttest.Shardings {
		t.Run(sh.Name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, _, err := Run(g, 0, 7, Config{Trees: 4}, congest.Options{MaxRounds: 60, Shards: sh.Shards})
			if !errors.Is(err, congest.ErrMaxRounds) {
				t.Fatalf("err = %v, want ErrMaxRounds", err)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestMincutWorkerConcurrencySafe runs the protocol concurrently from several
// goroutines — the harness's worker-pool shape — so the race detector can
// check the shared engine pools under the new workload.
func TestMincutWorkerConcurrencySafe(t *testing.T) {
	graphs := []struct {
		name string
		run  func() (*Outcome, error)
	}{
		{"grid5x5", func() (*Outcome, error) {
			out, _, err := Run(gen.Grid(5, 5), 0, 3, Config{Trees: 2}, congest.Options{})
			return out, err
		}},
		{"ring12", func() (*Outcome, error) {
			out, _, err := Run(gen.Ring(12), 0, 5, Config{Trees: 2}, congest.Options{})
			return out, err
		}},
	}
	for _, gr := range graphs {
		want, err := gr.run()
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*Outcome, 4)
		errs := make([]error, 4)
		done := make(chan int)
		for w := 0; w < 4; w++ {
			go func(w int) {
				results[w], errs[w] = gr.run()
				done <- w
			}(w)
		}
		for range results {
			<-done
		}
		for w, err := range errs {
			if err != nil {
				t.Fatalf("%s worker %d: %v", gr.name, w, err)
			}
			if !reflect.DeepEqual(results[w], want) {
				t.Fatalf("%s worker %d outcome diverges", gr.name, w)
			}
		}
	}
}
