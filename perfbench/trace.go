package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one operation share Op; Parent is the enclosing span's ID
// (-1 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so untraced runs pay one branch per boundary.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-timed span (used where the benchmark sums many
// short intervals itself, such as per-round engine calls).
func (t *tracer) record(name string, parent, op int, start time.Time, d time.Duration) int {
	if !t.on {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op, Start: s, End: s + d.Nanoseconds()})
	t.mu.Unlock()
	return id
}

// layerRow aggregates every closed span of one name.
type layerRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	Ops     int     `json:"ops"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes returns, per span name, the summed duration and self time: a
// span's duration minus the part of its interval its children cover
// (overlapping children are merged first).
func (t *tracer) selfTimes() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := make(map[string]*layerRow)
	ops := make(map[string]map[int]bool)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		covered := coveredNs(children[s.ID], s.Start, s.End)
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
			ops[s.Name] = make(map[int]bool)
		}
		r.Calls++
		r.TotalMs += float64(dur) / 1e6
		r.SelfMs += float64(dur-covered) / 1e6
		ops[s.Name][s.Op] = true
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.Ops = len(ops[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredNs is the length of the union of ivs clipped to [lo, hi].
func coveredNs(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// printLayers writes the per-layer self-time table.
func printLayers(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %8s %6s %12s %12s\n", "span", "calls", "ops", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %6d %12.3f %12.3f\n", r.Name, r.Calls, r.Ops, r.TotalMs, r.SelfMs)
	}
}

// writeSpans stores every span as one JSON line, plus the per-layer table,
// under dir. It returns the span file's path.
func (t *tracer) writeSpans(dir, stem string, rows []layerRow) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace dir: %w", err)
	}
	path := filepath.Join(dir, stem+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("write span: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("flush span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close span file: %w", err)
	}
	table, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return "", fmt.Errorf("encode layer table: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".layers.json"), append(table, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write layer table: %w", err)
	}
	return path, nil
}
