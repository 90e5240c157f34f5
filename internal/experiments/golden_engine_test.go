package experiments

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"lcshortcut/internal/congest"
)

// shortRun is one full registry run (short grids): its results with the
// wall-clock field zeroed, and the JSON document `cmd/experiments -short
// -json` would emit for them.
type shortRun struct {
	results []*Result
	json    []byte
}

// runShortUncached computes a shortRun on workers harness workers under the
// process-wide shard count and fault plan.
func runShortUncached(t *testing.T, workers int) *shortRun {
	t.Helper()
	results, err := RunAll(Options{Workers: workers, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	stripWall(results)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	return &shortRun{results: results, json: buf.Bytes()}
}

// shortRuns memoizes runShort per test binary. Several tests compare the
// same run (the sequential one-shard run is shared by four, the 8-worker
// one by three), and each run takes a quarter of a minute.
var shortRuns = struct {
	sync.Mutex
	m map[shortRunKey]*shortRun
}{m: map[shortRunKey]*shortRun{}}

type shortRunKey struct {
	workers int
	shards  int
}

// runShort is runShortUncached computed once per (workers, shards) and
// shared; callers must not modify the result. It assumes no default
// fault plan is installed: the chaos test, which installs one, runs
// uncached.
func runShort(t *testing.T, workers int) *shortRun {
	t.Helper()
	key := shortRunKey{workers, congest.DefaultShards()}
	shortRuns.Lock()
	defer shortRuns.Unlock()
	r, ok := shortRuns.m[key]
	if !ok {
		r = runShortUncached(t, workers)
		shortRuns.m[key] = r
	}
	return r
}

// TestGoldenBaselineFile pins every experiment table, grid and simulated-cost
// metric against testdata/golden_short.json. The E1…F1 sections were
// captured on the pre-rewrite (PR 2) channel engine and have survived both
// the arena-engine rewrite and the scenario-registry migration
// byte-for-byte; the S1/S2 sections were appended when the registry sweeps
// landed (their E-section bytes were verified unchanged at capture time).
// Any drift in a seeded output — an inbox ordering change, a lost or
// duplicated message, a miscounted bit — fails here byte-for-byte.
func TestGoldenBaselineFile(t *testing.T) {
	f, err := os.Open("testdata/golden_short.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	baseline, err := ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	stripWall(baseline)
	var want bytes.Buffer
	if err := WriteJSON(&want, baseline); err != nil {
		t.Fatal(err)
	}
	got := runShort(t, 1).json
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatalf("experiment output drifted from the PR 2 golden baseline\n--- want (testdata/golden_short.json)\n%s\n--- got\n%s", want.Bytes(), got)
	}
}

// TestGoldenEngineIdentity is the shard-count contract: the full registry
// must produce byte-identical JSON at one shard, sequentially and on eight
// harness workers, and at shard counts 4 and 8, since the shard cut must
// never leak into seeded protocol output (deliveries are merged back into
// by-neighbor-ID inbox order regardless of which shard relayed them).
func TestGoldenEngineIdentity(t *testing.T) {
	type variant struct {
		workers int
		shards  int
	}
	ref := runShort(t, 1).json // one shard, sequential
	variants := []variant{{8, 1}, {1, 4}}
	if !raceEnabled {
		// Each variant is a full registry run — minutes under the race
		// detector, so the race job keeps one variant of several shards
		// (shards=4 exercises cross-shard relays everywhere) and the
		// uninstrumented jobs add shards=8. The congest package's own race
		// suite already runs every protocol at 3 shards.
		variants = append(variants, variant{8, 8})
	}
	for _, v := range variants {
		prev := congest.SetDefaultShards(v.shards)
		got := runShort(t, v.workers).json
		congest.SetDefaultShards(prev)
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d shards=%d diverges from one-shard workers=1 JSON", v.workers, v.shards)
		}
	}
}
