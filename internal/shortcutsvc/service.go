// Package shortcutsvc is the embeddable engine of shortcutd: a concurrent
// shortcut-construction service with a content-addressed LRU cache. Requests
// name a graph (a scenario-registry family+size+seed reference, or an
// uploaded edge list) plus a partition spec and the (C, B) parameters;
// the service runs the FindShortcut construction on a bounded worker pool
// and returns the quality measures.
//
// The cache is keyed by (graph fingerprint, partition fingerprint, C, B) —
// content, not request shape — so two requests that describe the same
// structure by different means share one entry, and repeated queries are
// O(1) map hits. An entry keeps only the fixed-size Result the handlers
// serve; the graph, tree, partition and shortcut of a construction are
// garbage once its Result is taken. A hand-rolled single-flight layer
// collapses concurrent identical misses into one construction; a semaphore
// bounds how many constructions run at once so a burst of distinct cold
// queries cannot fork unbounded workers.
package shortcutsvc

import (
	"container/list"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lcshortcut/internal/core"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/scenario"
	"lcshortcut/internal/tree"
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// CacheEntries bounds the LRU cache (default 256 entries). Each entry
	// holds one Result of fixed size, so cache memory scales with the entry
	// count alone, not with instance size.
	CacheEntries int
	// MaxNodes rejects graphs larger than this (default 1<<17). The seal's
	// exact part diameters usually take a handful of BFSs per part, but a
	// vertex-transitive part (a "whole" ring, torus or hypercube) takes one
	// per vertex: O(n·m) for a part of n vertices and m edges.
	MaxNodes int
	// ConstructWorkers is the per-construction parallelism forwarded to
	// FindConfig.Workers (default 1: under concurrent load, parallelism
	// across requests beats parallelism within one).
	ConstructWorkers int
	// MaxConcurrent bounds how many constructions run at once (default
	// GOMAXPROCS); excess cold queries queue on the semaphore.
	MaxConcurrent int
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 17
	}
	if c.ConstructWorkers == 0 {
		c.ConstructWorkers = 1
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	return c
}

// cacheKey is the content address of a shortcut: structural fingerprints of
// the inputs plus the construction parameters. C == 0 means the doubling
// search (Auto); the two parameter modes never share an entry.
type cacheKey struct {
	gfp, pfp uint64
	c, b     int
}

// refKey is the normalized form of a registry-reference request — the fast
// path that lets repeated hits skip rebuilding (and re-fingerprinting) the
// graph. Uploaded edge lists have no refKey; they are hashed per request.
type refKey struct {
	family string
	n      int
	seed   int64
	pkind  string
	parts  int
	pseed  int64
	// assignFp distinguishes raw-assignment partitions riding on a registry
	// graph reference (0 when the partition is generated).
	assignFp uint64
	c, b     int
}

// entry is one cached construction: its content key and the Result the
// handlers serve.
type entry struct {
	key    cacheKey
	result Result
}

// Result is the computed payload of one construction, independent of how
// the request named its inputs.
type Result struct {
	GraphNodes           int
	GraphEdges           int
	GraphFingerprint     uint64
	Parts                int
	PartitionFingerprint uint64
	// C and B are the parameters the construction actually used: the request
	// values, or the doubling search's successful estimate when the request
	// left them 0.
	C, B               int
	Auto               bool
	Iterations         int
	Probes             int
	Quality            core.Quality
	ShortcutCongestion int
	ConstructMillis    float64
}

// Stats is a snapshot of the service counters.
type Stats struct {
	Requests    int64   `json:"requests"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Coalesced   int64   `json:"coalesced"`
	Errors      int64   `json:"errors"`
	InFlight    int64   `json:"in_flight"`
	CacheSize   int     `json:"cache_size"`
	Evictions   int64   `json:"evictions"`
	ConstructMs float64 `json:"construct_ms_total"`
}

// call is one in-flight construction of the single-flight layer.
type call struct {
	done    chan struct{}
	ent     *entry
	err     error
	waiters int // coalesced requests waiting on done; guarded by Service.mu
}

// Service answers shortcut queries. Safe for concurrent use.
type Service struct {
	cfg Config

	mu    sync.Mutex
	items map[cacheKey]*list.Element // -> *entry, in lruList
	lru   *list.List                 // front = most recent
	// refs maps a registry reference to the cached key it resolved to, and
	// refOf is its inverse: each cached entry keeps only the last reference
	// that resolved to it, and loses it on eviction, so neither map outgrows
	// the cache.
	refs   map[refKey]cacheKey
	refOf  map[cacheKey]refKey
	flight map[cacheKey]*call

	sem chan struct{} // construction slots

	// constructHook, set only by tests, runs at the start of every
	// construction, while it holds its slot.
	constructHook func()

	requests    atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	errs        atomic.Int64
	inFlight    atomic.Int64
	evictions   atomic.Int64
	constructNs atomic.Int64
}

// New returns a Service with cfg's limits (zero values = defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:    cfg,
		items:  make(map[cacheKey]*list.Element),
		lru:    list.New(),
		refs:   make(map[refKey]cacheKey),
		refOf:  make(map[cacheKey]refKey),
		flight: make(map[cacheKey]*call),
		sem:    make(chan struct{}, cfg.MaxConcurrent),
	}
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	size := s.lru.Len()
	s.mu.Unlock()
	return Stats{
		Requests:    s.requests.Load(),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Coalesced:   s.coalesced.Load(),
		Errors:      s.errs.Load(),
		InFlight:    s.inFlight.Load(),
		CacheSize:   size,
		Evictions:   s.evictions.Load(),
		ConstructMs: float64(s.constructNs.Load()) / 1e6,
	}
}

// cacheGet returns the cached entry for key, marking it most recently used.
// Allocation-free: a map probe and a list splice (guarded by
// TestAllocGuardCacheHit). Caller must hold s.mu.
func (s *Service) cacheGet(key cacheKey) *entry {
	el, ok := s.items[key]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry)
}

// cachePut inserts ent, evicting from the LRU tail past capacity. Caller
// must hold s.mu.
func (s *Service) cachePut(ent *entry) {
	if el, ok := s.items[ent.key]; ok {
		s.lru.MoveToFront(el)
		el.Value = ent
		return
	}
	s.items[ent.key] = s.lru.PushFront(ent)
	for s.lru.Len() > s.cfg.CacheEntries {
		tail := s.lru.Back()
		victim := s.lru.Remove(tail).(*entry)
		delete(s.items, victim.key)
		s.evictions.Add(1)
		if rk, ok := s.refOf[victim.key]; ok {
			delete(s.refs, rk)
			delete(s.refOf, victim.key)
		}
	}
}

// setRef makes rk the one registry reference kept for the cached key,
// dropping the reference key kept before and the key rk resolved to before.
// Caller must hold s.mu.
func (s *Service) setRef(rk refKey, key cacheKey) {
	if old, ok := s.refOf[key]; ok {
		delete(s.refs, old)
	}
	if old, ok := s.refs[rk]; ok {
		delete(s.refOf, old)
	}
	s.refs[rk] = key
	s.refOf[key] = rk
}

// Outcome labels how a query was answered (the X-Cache response header).
type Outcome string

const (
	OutcomeHit       Outcome = "hit"       // served from cache
	OutcomeMiss      Outcome = "miss"      // constructed by this request
	OutcomeCoalesced Outcome = "coalesced" // waited on another request's construction
)

// Query answers one validated request, consulting the cache first. The
// returned entry is shared by every caller of the same key and is never
// modified; read it through Result.
func (s *Service) Query(req *Request) (*entry, Outcome, error) {
	s.requests.Add(1)
	ent, outcome, err := s.query(req)
	if err != nil {
		s.errs.Add(1)
	}
	return ent, outcome, err
}

func (s *Service) query(req *Request) (*entry, Outcome, error) {
	if err := req.validate(s.cfg); err != nil {
		return nil, "", err
	}
	rk, hasRef := req.refKey()
	if hasRef {
		s.mu.Lock()
		if key, ok := s.refs[rk]; ok {
			if ent := s.cacheGet(key); ent != nil {
				s.mu.Unlock()
				s.hits.Add(1)
				return ent, OutcomeHit, nil
			}
		}
		s.mu.Unlock()
	}

	// Slow path: materialize the inputs and address them by content.
	g, p, err := req.build(s.cfg)
	if err != nil {
		return nil, "", err
	}
	key := cacheKey{gfp: g.Fingerprint(), pfp: p.Fingerprint(), c: req.C, b: req.B}

	s.mu.Lock()
	if ent := s.cacheGet(key); ent != nil {
		if hasRef {
			s.setRef(rk, key)
		}
		s.mu.Unlock()
		s.hits.Add(1)
		return ent, OutcomeHit, nil
	}
	if c, inflight := s.flight[key]; inflight {
		c.waiters++
		s.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, "", c.err
		}
		s.coalesced.Add(1)
		return c.ent, OutcomeCoalesced, nil
	}
	c := &call{done: make(chan struct{})}
	s.flight[key] = c
	s.mu.Unlock()

	s.lead(c, req, g, p, key, rk, hasRef)
	if c.err != nil {
		return nil, "", c.err
	}
	s.misses.Add(1)
	return c.ent, OutcomeMiss, nil
}

// lead runs the construction of the in-flight call c and publishes its
// outcome: it caches a success, drops the key from the flight map and wakes
// every coalesced waiter. Publishing is deferred, so a panic in the
// construction reaches the leader and every waiter as an error, and the key
// stays retryable instead of hanging.
func (s *Service) lead(c *call, req *Request, g *graph.Graph, p *partition.Partition, key cacheKey, rk refKey, hasRef bool) {
	defer func() {
		if r := recover(); r != nil {
			c.ent, c.err = nil, fmt.Errorf("construction panicked: %v", r)
		}
		s.mu.Lock()
		delete(s.flight, key)
		if c.err == nil {
			s.cachePut(c.ent)
			if hasRef {
				s.setRef(rk, key)
			}
		}
		s.mu.Unlock()
		close(c.done)
	}()
	c.ent, c.err = s.construct(req, g, p, key)
}

// construct runs the construction on a bounded slot.
func (s *Service) construct(req *Request, g *graph.Graph, p *partition.Partition, key cacheKey) (*entry, error) {
	s.sem <- struct{}{}
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		<-s.sem
	}()
	if s.constructHook != nil {
		s.constructHook()
	}

	tr := tree.BFSTree(g, 0)
	start := time.Now()
	var (
		sc         *core.Shortcut
		iterations int
		probes     int
		c, b       int
	)
	if req.C == 0 { // doubling search
		ar, err := core.FindShortcutAuto(tr, p, req.Seed, false, s.cfg.ConstructWorkers)
		if err != nil {
			return nil, fmt.Errorf("construction failed: %w", err)
		}
		sc, iterations, probes = ar.S, ar.Iterations, ar.Probes
		c, b = ar.EstC, ar.EstB
	} else {
		fr, err := core.FindShortcut(tr, p, core.FindConfig{
			C: req.C, B: req.B, Seed: req.Seed, Workers: s.cfg.ConstructWorkers,
		})
		if err != nil {
			return nil, fmt.Errorf("construction failed: %w", err)
		}
		sc, iterations = fr.S, fr.Iterations
		c, b = req.C, req.B
	}
	elapsed := time.Since(start)
	s.constructNs.Add(elapsed.Nanoseconds())

	return &entry{
		key: key,
		result: Result{
			GraphNodes:           g.NumNodes(),
			GraphEdges:           g.NumEdges(),
			GraphFingerprint:     key.gfp,
			Parts:                p.NumParts(),
			PartitionFingerprint: key.pfp,
			C:                    c,
			B:                    b,
			Auto:                 req.C == 0,
			Iterations:           iterations,
			Probes:               probes,
			Quality:              sc.Measure(),
			ShortcutCongestion:   sc.ShortcutCongestion(),
			ConstructMillis:      float64(elapsed.Nanoseconds()) / 1e6,
		},
	}, nil
}

// Result exposes the entry's computed payload.
func (e *entry) Result() Result { return e.result }

// buildScenario resolves a registry family reference.
func buildScenario(family string, n int, seed int64) (*graph.Graph, error) {
	sc, ok := scenario.Get(family)
	if !ok {
		return nil, fmt.Errorf("unknown scenario family %q", family)
	}
	return sc.Build(n, seed), nil
}
