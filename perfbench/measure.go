package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number: its value, unit and how many samples it
// summarizes (1 for a single measurement or an exact count).
type metric struct {
	Value   float64
	Unit    string
	Samples int
}

// metrics is the set of numbers one run reports, by name.
type metrics struct {
	m map[string]metric
}

func newMetrics() *metrics { return &metrics{m: make(map[string]metric)} }

func (ms *metrics) set(name string, value float64, unit string, samples int) {
	ms.m[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// procSnap is a point-in-time reading of the process counters the proc
// layer metrics difference.
type procSnap struct {
	cpu        time.Duration
	numGC      uint32
	totalAlloc uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time on failure is reported as such
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		numGC:      mem.NumGC,
		totalAlloc: mem.TotalAlloc,
	}
}

// peakRSSMB is the process's peak resident set (Linux reports ru_maxrss in
// KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// retainedMB forces two collections (the second also drops sync.Pool victim
// caches) and returns the live heap: what the caller still holds.
func retainedMB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// addProcMetrics reports the proc layer over the window [before, after]
// that ran ops operations.
func addProcMetrics(out *metrics, before, after procSnap, ops int) {
	if ops < 1 {
		ops = 1
	}
	n := float64(ops)
	out.set("proc.cpu_ms_per_op", ms(after.cpu-before.cpu)/n, "ms", ops)
	out.set("proc.peak_rss_mb", peakRSSMB(), "MB", 1)
	out.set("proc.gc_per_op", float64(after.numGC-before.numGC)/n, "count", ops)
	out.set("proc.alloc_mb_per_op", float64(after.totalAlloc-before.totalAlloc)/(1<<20)/n, "MB", ops)
}
