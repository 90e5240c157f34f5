package shortcutsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func postJSON(t *testing.T, url string, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// TestHandlerTable drives /shortcut through the error and success paths:
// bad family, oversized n, malformed partition specs, malformed JSON, wrong
// method, uploaded graphs good and bad, and the cache hit/miss headers.
func TestHandlerTable(t *testing.T) {
	svc := New(Config{MaxNodes: 4096, CacheEntries: 8})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCache  string // expected X-Cache header, "" = don't check
	}{
		{
			name:       "miss-then-hit-setup",
			body:       `{"family":"grid","n":64,"seed":1,"partition":{"kind":"voronoi","parts":4,"seed":1}}`,
			wantStatus: http.StatusOK,
			wantCache:  "miss",
		},
		{
			name:       "identical-query-hits",
			body:       `{"family":"grid","n":64,"seed":1,"partition":{"kind":"voronoi","parts":4,"seed":1}}`,
			wantStatus: http.StatusOK,
			wantCache:  "hit",
		},
		{
			name:       "bad-family",
			body:       `{"family":"nonesuch","n":64,"seed":1,"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "oversized-n",
			body:       `{"family":"grid","n":100000,"seed":1,"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusRequestEntityTooLarge,
		},
		{
			name:       "no-graph",
			body:       `{"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "both-graphs",
			body:       `{"family":"grid","n":64,"nodes":4,"edges":[[0,1]],"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "missing-partition-kind",
			body:       `{"family":"grid","n":64,"seed":1,"partition":{}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "unknown-partition-kind",
			body:       `{"family":"grid","n":64,"seed":1,"partition":{"kind":"stripes"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "voronoi-zero-parts",
			body:       `{"family":"grid","n":64,"seed":1,"partition":{"kind":"voronoi"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "assign-wrong-length",
			body:       `{"family":"grid","n":64,"seed":1,"partition":{"kind":"assign","assign":[0,1]}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "assign-sparse-part-indices",
			body:       `{"nodes":4,"edges":[[0,1],[1,2],[2,3]],"partition":{"kind":"assign","assign":[0,0,2,2]}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "mismatched-c-b",
			body:       `{"family":"grid","n":64,"seed":1,"partition":{"kind":"whole"},"c":4}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "malformed-json",
			body:       `{"family":"grid",`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "unknown-field",
			body:       `{"family":"grid","n":64,"seed":1,"partition":{"kind":"whole"},"bogus":true}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "upload-ok",
			body:       `{"nodes":4,"edges":[[0,1],[1,2],[2,3],[3,0]],"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusOK,
			wantCache:  "miss",
		},
		{
			name:       "upload-disconnected",
			body:       `{"nodes":4,"edges":[[0,1],[2,3]],"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "upload-self-loop",
			body:       `{"nodes":3,"edges":[[0,0],[1,2]],"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "upload-duplicate-reversed",
			body:       `{"nodes":2,"edges":[[0,1],[1,0]],"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "upload-repeated-edge",
			body:       `{"nodes":2,"edges":[[0,1],[0,1]],"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "upload-endpoint-out-of-range",
			body:       `{"nodes":4,"edges":[[0,1],[1,2],[2,3],[0,4]],"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "upload-negative-endpoint",
			body:       `{"nodes":2,"edges":[[0,1],[-1,0]],"partition":{"kind":"whole"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "explicit-params-ok",
			body:       `{"family":"ring","n":32,"seed":2,"partition":{"kind":"voronoi","parts":4,"seed":2},"c":8,"b":4}`,
			wantStatus: http.StatusOK,
			wantCache:  "miss",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/shortcut", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body: %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if tc.wantCache != "" {
				if got := resp.Header.Get("X-Cache"); got != tc.wantCache {
					t.Errorf("X-Cache = %q, want %q", got, tc.wantCache)
				}
			}
			if tc.wantStatus == http.StatusOK {
				var r Response
				if err := json.Unmarshal([]byte(body), &r); err != nil {
					t.Fatalf("unmarshal response: %v", err)
				}
				if r.Quality.Congestion < 1 || r.Quality.Dilation < 1 {
					t.Errorf("implausible quality in response: %+v", r.Quality)
				}
			}
		})
	}

	t.Run("method-not-allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/shortcut")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /shortcut = %d, want 405", resp.StatusCode)
		}
	})
	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %d", resp.StatusCode)
		}
	})
	t.Run("metrics-and-stats", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Contains(data, []byte("shortcutd_cache_hits_total")) {
			t.Errorf("metrics output missing counters: %s", data)
		}
		resp, err = http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Hits < 1 || st.Misses < 3 {
			t.Errorf("stats don't reflect the table run: %+v", st)
		}
	})
}

// TestContentAddressing pins the cache key semantics: two requests that name
// the same structure differently (registry reference vs uploaded edge list
// vs raw assignment) share one cache entry, and any parameter difference
// (seed, size, C/B) splits entries.
func TestContentAddressing(t *testing.T) {
	svc := New(Config{})
	// Query a ring by registry reference.
	ref := &Request{Family: "ring", N: 16, Seed: 3, Partition: PartitionSpec{Kind: "whole"}}
	e1, out1, err := svc.Query(ref)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != OutcomeMiss {
		t.Fatalf("first query outcome = %s", out1)
	}
	// Upload the byte-identical ring (ring n=16 is vertices i—i+1 mod 16; the
	// generator inserts edges in that order, weight 1).
	up := &Request{Nodes: 16, Partition: PartitionSpec{Kind: "whole"}}
	for i := 0; i < 16; i++ {
		up.Edges = append(up.Edges, [2]int{i, (i + 1) % 16})
	}
	e2, out2, err := svc.Query(up)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != OutcomeHit {
		t.Errorf("uploaded identical structure outcome = %s, want hit (content addressing)", out2)
	}
	if e1 != e2 {
		t.Error("identical content produced distinct cache entries")
	}
	// The ring generator ignores its seed, so a different seed is the SAME
	// content — a hit, not a miss: request shape doesn't matter, structure
	// does.
	ref2 := &Request{Family: "ring", N: 16, Seed: 4, Partition: PartitionSpec{Kind: "whole"}}
	if _, out, err := svc.Query(ref2); err != nil || out != OutcomeHit {
		t.Errorf("seed-insensitive family at a new seed: outcome=%v err=%v, want content hit", out, err)
	}
	// A seeded family at different seeds is genuinely different structure.
	for _, seed := range []int64{1, 2} {
		er := &Request{Family: "er-sparse", N: 64, Seed: seed, Partition: PartitionSpec{Kind: "whole"}}
		if _, out, err := svc.Query(er); err != nil || out != OutcomeMiss {
			t.Errorf("er-sparse seed %d: outcome=%v err=%v, want miss", seed, out, err)
		}
	}
	// Different size: different structure, different entry.
	refN := &Request{Family: "ring", N: 20, Seed: 3, Partition: PartitionSpec{Kind: "whole"}}
	if _, out, err := svc.Query(refN); err != nil || out != OutcomeMiss {
		t.Errorf("different size: outcome=%v err=%v, want miss", out, err)
	}
	// Same structure, explicit params: separate entry from auto.
	refP := &Request{Family: "ring", N: 16, Seed: 3, Partition: PartitionSpec{Kind: "whole"}, C: 8, B: 4}
	if _, out, err := svc.Query(refP); err != nil || out != OutcomeMiss {
		t.Errorf("explicit params: outcome=%v err=%v, want miss", out, err)
	}
}

// TestSingleFlight pins that concurrent identical cold queries collapse into
// one construction: exactly one miss, the rest coalesced onto it, and every
// caller gets the same entry.
func TestSingleFlight(t *testing.T) {
	svc := New(Config{})
	const callers = 16
	var wg sync.WaitGroup
	entries := make([]*entry, callers)
	outcomes := make([]Outcome, callers)
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			req := &Request{Family: "grid", N: 1024, Seed: 5, Partition: PartitionSpec{Kind: "voronoi", Parts: 16, Seed: 5}}
			ent, out, err := svc.Query(req)
			if err != nil {
				t.Error(err)
				return
			}
			entries[k] = ent
			outcomes[k] = out
		}(k)
	}
	wg.Wait()
	misses := 0
	for k := 0; k < callers; k++ {
		if entries[k] == nil {
			t.Fatal("nil entry")
		}
		if entries[k] != entries[0] {
			t.Error("concurrent identical queries produced distinct entries")
		}
		if outcomes[k] == OutcomeMiss {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d constructions ran for one key, want exactly 1 (single-flight)", misses)
	}
	if st := svc.Stats(); st.Misses != 1 || st.Hits+st.Coalesced != callers-1 {
		t.Errorf("stats %+v don't show 1 miss + %d shared answers", st, callers-1)
	}
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightPanic pins the panic safety of the single-flight layer:
// a construction that panics while requests are coalesced on it reports an
// error to its leader and to every waiter, releases its slot, leaks no
// goroutine, and leaves the key retryable — the next request is a fresh
// miss.
func TestSingleFlightPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{})
	release := make(chan struct{})
	var constructions atomic.Int32
	svc.constructHook = func() {
		if constructions.Add(1) == 1 {
			<-release
			panic("injected construction failure")
		}
	}
	req := func() *Request {
		return &Request{Family: "grid", N: 256, Seed: 3, Partition: PartitionSpec{Kind: "voronoi", Parts: 8, Seed: 3}}
	}
	const waiters = 4
	errs := make(chan error, waiters+1)
	query := func() {
		_, _, err := svc.Query(req())
		errs <- err
	}
	go query() // the leader: its construction blocks in the hook
	waitUntil(t, "the leader holds a construction slot", func() bool { return svc.Stats().InFlight == 1 })
	for k := 0; k < waiters; k++ {
		go query()
	}
	waitUntil(t, "every waiter has coalesced", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		n := 0
		for _, c := range svc.flight {
			n += c.waiters
		}
		return n == waiters
	})
	close(release)
	for k := 0; k < waiters+1; k++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("request %d: err = %v, want the construction panic as an error", k, err)
		}
	}
	svc.mu.Lock()
	flights := len(svc.flight)
	svc.mu.Unlock()
	if st := svc.Stats(); st.InFlight != 0 || st.Errors != waiters+1 || flights != 0 {
		t.Errorf("after the panic: stats %+v, %d keys in flight; want no slot held, %d errors, no key in flight", st, flights, waiters+1)
	}
	if _, out, err := svc.Query(req()); err != nil || out != OutcomeMiss {
		t.Fatalf("retry after the panic: outcome=%v err=%v, want a successful miss", out, err)
	}
	if st := svc.Stats(); st.InFlight != 0 || st.Misses != 1 {
		t.Errorf("after the retry: stats %+v, want 1 miss and no slot held", st)
	}
	waitUntil(t, "the goroutine count returns to its baseline", func() bool { return runtime.NumGoroutine() <= before })
}

// TestLRUEviction pins the capacity bound: filling past CacheEntries evicts
// the least recently used entry, which then misses again.
func TestLRUEviction(t *testing.T) {
	svc := New(Config{CacheEntries: 2})
	// Distinct sizes are distinct structures (the ring generator ignores its
	// seed, so varying the seed would revisit one content key).
	q := func(n int) Outcome {
		t.Helper()
		req := &Request{Family: "ring", N: 8 + 4*n, Seed: 1, Partition: PartitionSpec{Kind: "whole"}}
		_, out, err := svc.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	q(1)                                // cache: [1]
	q(2)                                // cache: [2 1]
	if out := q(1); out != OutcomeHit { // cache: [1 2]
		t.Fatalf("entry 1 should still be cached, got %s", out)
	}
	q(3) // evicts 2 -> cache: [3 1]
	if out := q(2); out != OutcomeMiss {
		t.Errorf("evicted entry 2 answered %s, want miss", out)
	}
	if st := svc.Stats(); st.Evictions < 1 {
		t.Errorf("no evictions recorded: %+v", st)
	}
}

// TestRefsBoundedByCache pins that the registry-reference map never
// outgrows the cache: each cached entry keeps only the last reference that
// resolved to it, and loses it on eviction — whether the references name
// many structures or one structure many ways.
func TestRefsBoundedByCache(t *testing.T) {
	const capacity = 4
	// checkRefs fails t unless there are at most capacity references, each
	// resolving to a cached entry.
	checkRefs := func(t *testing.T, svc *Service) {
		t.Helper()
		svc.mu.Lock()
		defer svc.mu.Unlock()
		if len(svc.refs) > capacity {
			t.Errorf("%d registry references kept for a cache of %d entries", len(svc.refs), capacity)
		}
		stale := 0
		for _, key := range svc.refs {
			if _, ok := svc.items[key]; !ok {
				stale++
			}
		}
		if stale > 0 {
			t.Errorf("%d registry references resolve to evicted entries", stale)
		}
	}
	query := func(t *testing.T, svc *Service, req *Request) Outcome {
		t.Helper()
		_, out, err := svc.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	t.Run("distinct-structures", func(t *testing.T) {
		svc := New(Config{CacheEntries: capacity})
		for i := range 200 {
			query(t, svc, &Request{Family: "ring", N: 8 + i, Seed: 1, Partition: PartitionSpec{Kind: "whole"}})
		}
		if st := svc.Stats(); st.CacheSize != capacity || st.Misses != 200 {
			t.Errorf("stats %+v, want %d cached entries after 200 misses", st, capacity)
		}
		checkRefs(t, svc)
	})
	t.Run("one-structure-many-seeds", func(t *testing.T) {
		// The ring generator ignores its seed: 100 references, one entry.
		svc := New(Config{CacheEntries: capacity})
		ring := func(seed int64) *Request {
			return &Request{Family: "ring", N: 16, Seed: seed, Partition: PartitionSpec{Kind: "whole"}}
		}
		for seed := range int64(100) {
			query(t, svc, ring(seed))
		}
		if st := svc.Stats(); st.CacheSize != 1 || st.Misses != 1 || st.Hits != 99 {
			t.Errorf("stats %+v, want one entry, 1 miss and 99 hits", st)
		}
		checkRefs(t, svc)
		if out := query(t, svc, ring(3)); out != OutcomeHit {
			t.Errorf("an earlier seed answered %s, want a content hit", out)
		}
		checkRefs(t, svc)
	})
}

// TestGracefulShutdown pins the drain contract: a query in flight when the
// server begins shutting down completes with a full response, and after
// shutdown the goroutine count returns to its baseline (the service spawns
// no goroutine that outlives its request).
func TestGracefulShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{})
	ts := httptest.NewServer(svc.Handler())

	results := make(chan error, 4)
	for k := 0; k < 4; k++ {
		go func(seed int) {
			body := fmt.Sprintf(`{"family":"grid","n":4096,"seed":%d,"partition":{"kind":"voronoi","parts":16,"seed":1}}`, seed)
			resp, err := http.Post(ts.URL+"/shortcut", "application/json", strings.NewReader(body))
			if err != nil {
				results <- err
				return
			}
			defer resp.Body.Close()
			if _, err := io.ReadAll(resp.Body); err != nil {
				results <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				results <- fmt.Errorf("in-flight query got %d during shutdown", resp.StatusCode)
				return
			}
			results <- nil
		}(k)
	}
	// Wait until all four requests are inside handlers (the request counter
	// bumps on Query entry) — closing earlier can reset a connection whose
	// request the server has not started reading yet, which is a client
	// error, not a drain failure.
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().Requests < 4; {
		if time.Now().After(deadline) {
			t.Fatal("queries never reached the service")
		}
		time.Sleep(time.Millisecond)
	}
	ts.Close() // blocks until outstanding requests drain
	for k := 0; k < 4; k++ {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across shutdown: %d -> %d", before, after)
	}
}

// TestAllocGuardCacheHit pins the O(1) hit path: the cache lookup itself —
// map probe plus LRU splice — performs zero allocations.
func TestAllocGuardCacheHit(t *testing.T) {
	svc := New(Config{})
	req := &Request{Family: "grid", N: 256, Seed: 1, Partition: PartitionSpec{Kind: "voronoi", Parts: 8, Seed: 1}}
	ent, _, err := svc.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	key := ent.key
	allocs := testing.AllocsPerRun(200, func() {
		svc.mu.Lock()
		if svc.cacheGet(key) == nil {
			t.Error("hit path missed")
		}
		svc.mu.Unlock()
	})
	if allocs != 0 {
		t.Errorf("cache-hit lookup allocates %.1f objects, want 0", allocs)
	}
	// The ref-keyed fast path on top of it stays allocation-light too: a
	// full Query on a warmed reference must not construct anything.
	if _, out, err := svc.Query(req); err != nil || out != OutcomeHit {
		t.Fatalf("warmed reference query: outcome=%v err=%v", out, err)
	}
}
