package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"lcshortcut/internal/core"
	"lcshortcut/internal/shortcutsvc"
)

// serveInstance is serve-zipf: one closed-loop client POSTs /shortcut to an
// in-process shortcutd handler on a loopback listener. Requests follow a
// zipf(1.1) popularity over 128 registry keys — 4 families × n ∈ {256,
// 1024} × 16 seeds, 16 Voronoi parts, doubling search — against a 32-entry
// LRU, so misses recur for the whole run.
//
// One client, not two: with a second one, hits ran beside the other
// client's construction and constructions beside each other on the two
// cores, and over the same 10 seeds the hit median spread 0.107 and the
// throughput 0.135, against 0.038 and 0.036 with one client.
type serveInstance struct {
	keys  []serveKey
	seq   []int // key index of each request, in sending order
	warm  int   // requests issued during set-up; the window continues at seq[warm]
	cache int

	svc    *shortcutsvc.Service
	srv    *http.Server
	served chan struct{} // closed once srv.Serve has returned
	url    string
	client *http.Client
	tr     *tracer // set for the traced window; read by the server wrapper
	trMu   sync.Mutex
	base   shortcutsvc.Stats // counters when the window started
}

// serveKey is one registry request with its in-process reference answer.
type serveKey struct {
	req  shortcutsvc.Request
	body []byte
	want serveQuality
}

// serveQuality is the part of a reply the check compares.
type serveQuality struct {
	C, B, Probes, Iterations                        int
	Congestion, ShortcutCongestion, BlockParam, Dil int
}

// serveZipfS is the zipf exponent of serve-zipf's request popularity.
const serveZipfS = 1.1

func serveShape(tiny bool) (families []string, sizes []int, perClass, parts, cache, seqLen int) {
	if tiny {
		return []string{"grid", "er-sparse"}, []int{64}, 4, 4, 4, 4096
	}
	return []string{"grid", "er-sparse", "ba", "surface"}, []int{256, 1024}, 16, 16, 32, 1 << 17
}

func setupServe(cfg config, layers *metrics) (instance, error) {
	families, sizes, perClass, parts, cache, seqLen := serveShape(cfg.tiny)
	rng := rand.New(rand.NewSource(cfg.seed))
	// Popularity rank r maps to class r mod #classes, so every seed sees the
	// same mix of families and sizes at every popularity; the seed picks
	// the graph and partition seeds and the request order.
	nClass := len(families) * len(sizes)
	keys := make([]serveKey, nClass*perClass)
	used := make(map[int64]bool)
	for r := range keys {
		class := r % nClass
		family, n := families[class%len(families)], sizes[class/len(families)]
		s := rng.Int63n(1 << 30)
		for used[s] {
			s = rng.Int63n(1 << 30)
		}
		used[s] = true
		req := shortcutsvc.Request{Family: family, N: n, Seed: s,
			Partition: shortcutsvc.PartitionSpec{Kind: "voronoi", Parts: parts, Seed: s}}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in := buildInputs(family, n, parts, s, s, layers)
		ar, err := core.FindShortcutAuto(in.t, in.p, s, false, 1)
		if err != nil {
			return nil, fmt.Errorf("reference for %s n=%d seed=%d: %w", family, n, s, err)
		}
		q := ar.S.Measure()
		want := serveQuality{C: ar.EstC, B: ar.EstB, Probes: ar.Probes, Iterations: ar.Iterations,
			Congestion: q.Congestion, ShortcutCongestion: ar.S.ShortcutCongestion(),
			BlockParam: q.BlockParameter, Dil: q.Dilation}
		if cfg.breakCheck {
			want.Dil++
		}
		keys[r] = serveKey{req: req, body: body, want: want}
	}
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(keys)-1))
	seq := make([]int, seqLen)
	for i := range seq {
		seq[i] = int(zipf.Uint64())
	}

	si := &serveInstance{keys: keys, seq: seq, cache: cache,
		svc: shortcutsvc.New(shortcutsvc.Config{CacheEntries: cache})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	si.url = "http://" + ln.Addr().String() + "/shortcut"
	si.srv = &http.Server{Handler: si.wrap(si.svc.Handler()), ReadHeaderTimeout: 10 * time.Second}
	si.served = make(chan struct{})
	go func() {
		defer close(si.served)
		_ = si.srv.Serve(ln) // http.ErrServerClosed once close() shuts the server down
	}()
	si.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}

	// Fill the LRU and let it churn to steady state before timing.
	for si.warm < 8*cache || si.svc.Stats().CacheSize < cache {
		if si.warm >= len(seq) {
			si.close()
			return nil, errors.New("warm-up never filled the cache")
		}
		if _, _, err := si.post(si.keys[si.seq[si.warm]].body, -1, -1); err != nil {
			si.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		si.warm++
	}
	si.base = si.svc.Stats()
	return si, nil
}

// Headers carrying a traced request's op and client span to the server
// wrapper, so the server-side span joins the op's span tree.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

// wrap records a span around the service's handler for traced requests.
func (si *serveInstance) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		si.trMu.Lock()
		tr := si.tr
		si.trMu.Unlock()
		if tr == nil || r.Header.Get(hdrOp) == "" {
			h.ServeHTTP(w, r)
			return
		}
		// Only this benchmark's own client sets the headers.
		op, _ := strconv.Atoi(r.Header.Get(hdrOp))
		parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
		sp := tr.begin("shortcutsvc.handler", parent, op)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// post sends one request and returns the reply's X-Cache outcome and body.
func (si *serveInstance) post(body []byte, op, span int) (string, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, si.url, bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		req.Header.Set(hdrOp, strconv.Itoa(op))
		req.Header.Set(hdrSpan, strconv.Itoa(span))
	}
	resp, err := si.client.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, fmt.Errorf("read reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	outcome := resp.Header.Get("X-Cache")
	switch shortcutsvc.Outcome(outcome) {
	case shortcutsvc.OutcomeHit, shortcutsvc.OutcomeMiss, shortcutsvc.OutcomeCoalesced:
	default:
		return "", nil, fmt.Errorf("X-Cache %q", outcome)
	}
	return outcome, data, nil
}

func (si *serveInstance) minOps() int { return 1 }

func (si *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := si.srv.Shutdown(ctx); err != nil {
		_ = si.srv.Close() // the drain timed out: drop the connections left
	}
	<-si.served
	si.client.CloseIdleConnections()
}

func (si *serveInstance) op(tr *tracer, id int) (string, error) {
	if tr.on {
		si.trMu.Lock()
		si.tr = tr
		si.trMu.Unlock()
	}
	k := &si.keys[si.seq[(si.warm+id)%len(si.seq)]]
	root := tr.begin("serve-zipf.op", -1, id)
	outcome, data, err := si.post(k.body, id, root)
	tr.end(root)
	if err != nil {
		return outcome, err
	}
	var resp shortcutsvc.Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return outcome, fmt.Errorf("decode reply: %w", err)
	}
	got := serveQuality{C: resp.Params.C, B: resp.Params.B, Probes: resp.Probes, Iterations: resp.Iterations,
		Congestion: resp.Quality.Congestion, ShortcutCongestion: resp.Quality.ShortcutCongestion,
		BlockParam: resp.Quality.BlockParameter, Dil: resp.Quality.Dilation}
	if got != k.want {
		return outcome, fmt.Errorf("%s n=%d seed=%d: reply %+v, in-process reference %+v",
			k.req.Family, k.req.N, k.req.Seed, got, k.want)
	}
	return outcome, nil
}

func isMiss(outcome string) bool {
	return outcome == string(shortcutsvc.OutcomeMiss) || outcome == string(shortcutsvc.OutcomeCoalesced)
}

func isHit(outcome string) bool { return outcome == string(shortcutsvc.OutcomeHit) }

func (si *serveInstance) report(cfg config, tr *tracer, w *window, table, layers *metrics) error {
	st := si.svc.Stats()
	reqs := st.Requests - si.base.Requests
	if reqs == 0 {
		return fmt.Errorf("no request completed")
	}
	hits := w.latenciesMs(isHit)
	misses := w.latenciesMs(isMiss)
	all := w.latenciesMs(nil)
	out := []*metrics{table}
	if tr.on {
		out = append(out, layers)
	}
	var probes, iters, cong, block, dil float64
	for _, k := range si.keys {
		probes += float64(k.want.Probes)
		iters += float64(k.want.Iterations)
		cong += float64(k.want.Congestion)
		block += float64(k.want.BlockParam)
		dil += float64(k.want.Dil)
	}
	nk := float64(len(si.keys))
	table.set("hit_ms_p50", median(hits), "ms", len(hits))
	table.set("miss_ms_p50", median(misses), "ms", len(misses))
	table.set("op_ms_p99", quantile(all, 0.99), "ms", len(all))
	for _, m := range out {
		m.set("shortcutsvc.hit_ratio", float64(st.Hits-si.base.Hits)/float64(reqs), "ratio", int(reqs))
		m.set("shortcutsvc.coalesced", float64(st.Coalesced-si.base.Coalesced), "count", int(reqs))
		m.set("shortcutsvc.evictions", float64(st.Evictions-si.base.Evictions), "count", int(reqs))
		m.set("shortcutsvc.errors", float64(st.Errors-si.base.Errors), "count", int(reqs))
		m.set("core.probes", probes/nk, "count", len(si.keys))
		m.set("core.iterations", iters/nk, "count", len(si.keys))
		m.set("core.congestion", cong/nk, "count", len(si.keys))
		m.set("core.block_param", block/nk, "count", len(si.keys))
		m.set("core.dilation", dil/nk, "count", len(si.keys))
	}
	// Hold the most popular keys in the LRU, so retained_mb weighs the same
	// mix of entries under every seed.
	for r := si.cache - 1; r >= 0; r-- {
		if _, _, err := si.svc.Query(&si.keys[r].req); err != nil {
			return fmt.Errorf("refill: %w", err)
		}
	}
	if !tr.on {
		return nil
	}
	layers.set("shortcutsvc.hit_ms_p50", median(hits), "ms", len(hits))
	layers.set("shortcutsvc.miss_ms_p50", median(misses), "ms", len(misses))
	layers.set("shortcutsvc.op_ms_p99", quantile(all, 0.99), "ms", len(all))
	if err := si.replayQueries(cfg, w.attempted, layers); err != nil {
		return err
	}
	layers.set("shortcutsvc.http_us", 1000*median(hits)-layers.m["shortcutsvc.query_hit_us"].Value, "us", len(hits))
	return si.replayConstructions(tr, layers)
}

// replayQueries replays the warm-up and then the measured request sequence
// in process through a fresh Service.Query, timing each query by outcome
// and the JSON decode of its request and encode of its reply. The replay
// stops after a quarter of the run's window.
func (si *serveInstance) replayQueries(cfg config, ops int, layers *metrics) error {
	svc := shortcutsvc.New(shortcutsvc.Config{CacheEntries: si.cache})
	for i := 0; i < si.warm; i++ {
		req := si.keys[si.seq[i]].req
		if _, _, err := svc.Query(&req); err != nil {
			return fmt.Errorf("replay warm-up: %w", err)
		}
	}
	var hitUs, missMs, decUs, encUs []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second) / 4))
	for i := 0; i < ops && time.Now().Before(deadline); i++ {
		k := &si.keys[si.seq[(si.warm+i)%len(si.seq)]]
		t0 := time.Now()
		var req shortcutsvc.Request
		if err := json.Unmarshal(k.body, &req); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		decUs = append(decUs, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		ent, outcome, err := svc.Query(&req)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay query: %w", err)
		}
		if isHit(string(outcome)) {
			hitUs = append(hitUs, float64(d.Nanoseconds())/1e3)
		} else {
			missMs = append(missMs, ms(d))
		}
		t0 = time.Now()
		if err := json.NewEncoder(io.Discard).Encode(replyOf(ent.Result(), outcome)); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		encUs = append(encUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	layers.set("shortcutsvc.query_hit_us", median(hitUs), "us", len(hitUs))
	layers.set("shortcutsvc.query_miss_ms", median(missMs), "ms", len(missMs))
	layers.set("shortcutsvc.decode_us", median(decUs), "us", len(decUs))
	layers.set("shortcutsvc.encode_us", median(encUs), "us", len(encUs))
	return nil
}

// replyOf builds the /shortcut reply for res, field for field as the
// service's handler does.
func replyOf(res shortcutsvc.Result, outcome shortcutsvc.Outcome) *shortcutsvc.Response {
	resp := &shortcutsvc.Response{Cached: outcome == shortcutsvc.OutcomeHit, Source: string(outcome)}
	resp.Graph.Nodes = res.GraphNodes
	resp.Graph.Edges = res.GraphEdges
	resp.Graph.Fingerprint = fmt.Sprintf("%016x", res.GraphFingerprint)
	resp.Partition.Parts = res.Parts
	resp.Partition.Fingerprint = fmt.Sprintf("%016x", res.PartitionFingerprint)
	resp.Params.C, resp.Params.B, resp.Params.Auto = res.C, res.B, res.Auto
	resp.Quality.Congestion = res.Quality.Congestion
	resp.Quality.ShortcutCongestion = res.ShortcutCongestion
	resp.Quality.BlockParameter = res.Quality.BlockParameter
	resp.Quality.Dilation = res.Quality.Dilation
	resp.Iterations, resp.Probes, resp.ConstructMillis = res.Iterations, res.Probes, res.ConstructMillis
	return resp
}

// replayConstructions splits the constructions of the most popular keys
// into their layers (see replayCore) and reports the mean split.
func (si *serveInstance) replayConstructions(tr *tracer, layers *metrics) error {
	n := min(16, len(si.keys))
	var sum coreSplit
	scratch := newMetrics()
	for r := 0; r < n; r++ {
		k := si.keys[r]
		in := buildInputs(k.req.Family, k.req.N, k.req.Partition.Parts, k.req.Seed, k.req.Partition.Seed, scratch)
		ar, err := core.FindShortcutAuto(in.t, in.p, k.req.Seed, false, 1)
		if err != nil {
			return fmt.Errorf("replay construction: %w", err)
		}
		sum = sum.add(replayCore(tr, -1-r, in.t, in.p, k.req.Seed, ar, 1))
	}
	sum.set(layers, n)
	return nil
}
