package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// nsQuantiles sorts ns samples in place and returns their p50 and p99 in µs.
func nsQuantiles(ns []int64) (p50, p99 float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(ns)))) - 1
		return float64(ns[min(max(i, 0), len(ns)-1)]) / 1e3
	}
	return at(0.50), at(0.99)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procSample is the process-wide counters read at one instant: wall clock,
// CPU time, heap allocation and GC totals, and syscall counts.
type procSample struct {
	wall         time.Time
	cpu          time.Duration
	mallocs      uint64
	allocBytes   uint64
	numGC        uint32
	pauseTotalNs uint64
	syscr, syscw uint64
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{
		wall:         time.Now(),
		cpu:          cpuTime(),
		mallocs:      ms.Mallocs,
		allocBytes:   ms.TotalAlloc,
		numGC:        ms.NumGC,
		pauseTotalNs: ms.PauseTotalNs,
	}
	s.syscr, s.syscw = syscallCounts()
	return s
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// syscallCounts reads the read and write syscall totals from /proc/self/io
// (zero where the file is unavailable).
func syscallCounts() (syscr, syscw uint64) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		k, v, ok := bytes.Cut(sc.Bytes(), []byte(":"))
		if !ok {
			continue
		}
		n, _ := strconv.ParseUint(string(bytes.TrimSpace(v)), 10, 64)
		switch string(k) {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// procDelta is the change in process counters over a window.
type procDelta struct {
	wall         time.Duration
	cpu          time.Duration
	mallocs      uint64
	allocBytes   uint64
	numGC        uint32
	pauseTotalNs uint64
	syscr, syscw uint64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:         b.wall.Sub(a.wall),
		cpu:          b.cpu - a.cpu,
		mallocs:      b.mallocs - a.mallocs,
		allocBytes:   b.allocBytes - a.allocBytes,
		numGC:        b.numGC - a.numGC,
		pauseTotalNs: b.pauseTotalNs - a.pauseTotalNs,
		syscr:        b.syscr - a.syscr,
		syscw:        b.syscw - a.syscw,
	}
}

// runtimeMetrics fills the runtime and process per-layer metrics for a window
// in which ops objects were acknowledged.
func (d procDelta) runtimeMetrics(m metricSet, ops float64) {
	m.set("runtime.allocs_per_op", ratio(float64(d.mallocs), ops), "count")
	m.set("runtime.alloc_bytes_per_op", ratio(float64(d.allocBytes), ops), "B")
	m.set("runtime.gc_cycles", float64(d.numGC), "count")
	m.set("runtime.gc_pause_ms", float64(d.pauseTotalNs)/1e6, "ms")
	m.set("process.cpu_busy_frac", ratio(d.cpu.Seconds(), d.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
}

// goroutineSampler records the goroutine high-water mark until stopped. Only
// traced runs start one, so untraced timings never pay for it.
type goroutineSampler struct {
	peak atomic.Int64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startGoroutineSampler(every time.Duration) *goroutineSampler {
	s := &goroutineSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > s.peak.Load() {
				s.peak.Store(n)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the high-water mark.
func (s *goroutineSampler) Stop() int64 {
	close(s.stop)
	s.wg.Wait()
	return s.peak.Load()
}
