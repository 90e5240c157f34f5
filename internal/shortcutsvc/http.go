package shortcutsvc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxBodyBytes bounds /shortcut request bodies (uploaded edge lists are the
// only large payload; 16 MiB is ~10^6 edges of JSON).
const maxBodyBytes = 16 << 20

// bodyReadTimeout bounds the /shortcut body read. A client that stalls
// inside its body would otherwise hold its handler, and a graceful drain,
// without bound. The body is read to its end under the deadline — a JSON
// value may end before the Content-Length it was sent under, and net/http
// would read the rest after the reply with no deadline — and the deadline
// is then cleared, so it never cuts a construction or the reply.
const bodyReadTimeout = 5 * time.Second

// Response is the /shortcut reply.
type Response struct {
	Cached bool   `json:"cached"`
	Source string `json:"source"` // hit | miss | coalesced

	Graph struct {
		Nodes       int    `json:"nodes"`
		Edges       int    `json:"edges"`
		Fingerprint string `json:"fingerprint"`
	} `json:"graph"`
	Partition struct {
		Parts       int    `json:"parts"`
		Fingerprint string `json:"fingerprint"`
	} `json:"partition"`
	Params struct {
		C    int  `json:"c"`
		B    int  `json:"b"`
		Auto bool `json:"auto"`
	} `json:"params"`
	Quality struct {
		Congestion         int `json:"congestion"`
		ShortcutCongestion int `json:"shortcut_congestion"`
		BlockParameter     int `json:"block_parameter"`
		Dilation           int `json:"dilation"`
	} `json:"quality"`
	Iterations      int     `json:"iterations"`
	Probes          int     `json:"probes"`
	ConstructMillis float64 `json:"construct_ms"`
}

func responseFrom(res Result, outcome Outcome) *Response {
	resp := &Response{Cached: outcome == OutcomeHit, Source: string(outcome)}
	resp.Graph.Nodes = res.GraphNodes
	resp.Graph.Edges = res.GraphEdges
	resp.Graph.Fingerprint = fmt.Sprintf("%016x", res.GraphFingerprint)
	resp.Partition.Parts = res.Parts
	resp.Partition.Fingerprint = fmt.Sprintf("%016x", res.PartitionFingerprint)
	resp.Params.C = res.C
	resp.Params.B = res.B
	resp.Params.Auto = res.Auto
	resp.Quality.Congestion = res.Quality.Congestion
	resp.Quality.ShortcutCongestion = res.ShortcutCongestion
	resp.Quality.BlockParameter = res.Quality.BlockParameter
	resp.Quality.Dilation = res.Quality.Dilation
	resp.Iterations = res.Iterations
	resp.Probes = res.Probes
	resp.ConstructMillis = res.ConstructMillis
	return resp
}

// Handler returns the service's HTTP mux: POST /shortcut, GET /healthz,
// GET /metrics (plain-text counters), GET /stats (JSON snapshot).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shortcut", s.handleShortcut)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

func (s *Service) handleShortcut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a shortcut request", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	// Writers without deadlines (httptest recorders) leave the read unbounded.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "malformed request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	ent, outcome, err := s.Query(&req)
	if err != nil {
		switch {
		case IsTooLarge(err):
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		case IsBadRequest(err):
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", string(outcome))
	if err := json.NewEncoder(w).Encode(responseFrom(ent.Result(), outcome)); err != nil {
		// Client went away mid-write; nothing to do.
		_ = err
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "shortcutd_requests_total %d\n", st.Requests)
	fmt.Fprintf(w, "shortcutd_cache_hits_total %d\n", st.Hits)
	fmt.Fprintf(w, "shortcutd_cache_misses_total %d\n", st.Misses)
	fmt.Fprintf(w, "shortcutd_coalesced_total %d\n", st.Coalesced)
	fmt.Fprintf(w, "shortcutd_errors_total %d\n", st.Errors)
	fmt.Fprintf(w, "shortcutd_in_flight %d\n", st.InFlight)
	fmt.Fprintf(w, "shortcutd_cache_entries %d\n", st.CacheSize)
	fmt.Fprintf(w, "shortcutd_cache_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(w, "shortcutd_construct_ms_total %.3f\n", st.ConstructMs)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Stats()); err != nil {
		_ = err
	}
}
