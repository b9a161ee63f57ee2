package main

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// hist is a log-linear latency histogram in ns: values below 2^(subBits+1)
// are exact, and each power of two above is split into 2^subBits buckets, so
// a quantile is within 1/2^subBits of a recorded value. Its memory is fixed,
// so how much the benchmark records does not show in the process's RSS.
// metrics.LatencyHist has 16 buckets per power of two; its ~6% steps would
// make a median latency read the same bucket in run after run.
type hist struct {
	counts [(64 - subBits) << subBits]uint64
	n      int64
}

const subBits = 7

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<(subBits+1) {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - (subBits + 1)
	return (shift+1)<<subBits + int(uint64(v)>>uint(shift)) - 1<<subBits
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 1<<(subBits+1) {
		return float64(i)
	}
	shift := i>>subBits - 1
	lower := uint64(i&(1<<subBits-1)+1<<subBits) << uint(shift)
	return float64(lower) + float64(uint64(1)<<uint(shift))/2
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in µs by the nearest-rank rule.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(max(math.Ceil(q*float64(h.n)), 1))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i) / 1e3
		}
	}
	return 0
}

// sliceEvery is the length of the slices a timed window is cut into. The
// end-to-end TCP metrics are medians over the full slices, so a stall of
// the machine moves one slice, not the result.
const sliceEvery = 2 * time.Second

// window is a timed phase cut into slices. Slice k covers
// [start+k*sliceEvery, start+(k+1)*sliceEvery); everything later, up to the
// end of the drain, lands in the extra last slice.
type window struct {
	start time.Time
	full  int
}

func newWindow(start time.Time, d time.Duration) *window {
	return &window{start: start, full: int(d / sliceEvery)}
}

func (w *window) slice(t time.Time) int {
	return min(max(int(t.Sub(w.start)/sliceEvery), 0), w.full)
}

// sliced holds one recorder's latencies and acknowledged objects per slice.
// A single goroutine writes it.
type sliced struct {
	hists []hist
	acked []int64
}

func newSliced(w *window) *sliced {
	return &sliced{hists: make([]hist, w.full+1), acked: make([]int64, w.full+1)}
}

// cpuMarks samples process CPU time at each slice boundary of a window.
type cpuMarks struct {
	at   []time.Duration
	stop chan struct{}
	wg   sync.WaitGroup
}

func startCPUMarks(w *window) *cpuMarks {
	c := &cpuMarks{at: []time.Duration{cpuTime()}, stop: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for k := 1; k <= w.full; k++ {
			t := time.NewTimer(time.Until(w.start.Add(time.Duration(k) * sliceEvery)))
			select {
			case <-c.stop:
				t.Stop()
				return
			case <-t.C:
				c.at = append(c.at, cpuTime())
			}
		}
	}()
	return c
}

// Stop waits for the sampler; at may be read once it returns.
func (c *cpuMarks) Stop() {
	close(c.stop)
	c.wg.Wait()
}

// sliceStats are the end-to-end figures of each full slice of a window.
type sliceStats struct {
	perS, p50, p99, matchP50, matchP99, cpuPerOp []float64
	// calls and matches merge every slice, the tail included.
	calls, matches hist
}

// add appends another window's slices.
func (st *sliceStats) add(o sliceStats) {
	st.perS = append(st.perS, o.perS...)
	st.p50 = append(st.p50, o.p50...)
	st.p99 = append(st.p99, o.p99...)
	st.matchP50 = append(st.matchP50, o.matchP50...)
	st.matchP99 = append(st.matchP99, o.matchP99...)
	st.cpuPerOp = append(st.cpuPerOp, o.cpuPerOp...)
	st.calls.merge(&o.calls)
	st.matches.merge(&o.matches)
}

func computeSlices(w *window, calls []*sliced, matches []*sliced, cpu []time.Duration) sliceStats {
	var st sliceStats
	for k := 0; k <= w.full; k++ {
		var ch, mh hist
		var acked float64
		for _, s := range calls {
			ch.merge(&s.hists[k])
			acked += float64(s.acked[k])
		}
		for _, s := range matches {
			mh.merge(&s.hists[k])
		}
		st.calls.merge(&ch)
		st.matches.merge(&mh)
		if k == w.full {
			break
		}
		st.perS = append(st.perS, acked/sliceEvery.Seconds())
		st.p50 = append(st.p50, ch.quantile(0.50))
		st.p99 = append(st.p99, ch.quantile(0.99))
		st.matchP50 = append(st.matchP50, mh.quantile(0.50))
		st.matchP99 = append(st.matchP99, mh.quantile(0.99))
		if k+1 < len(cpu) {
			st.cpuPerOp = append(st.cpuPerOp, ratio(float64((cpu[k+1]-cpu[k]).Microseconds()), acked))
		}
	}
	return st
}

// phaseWindows lets the match receivers find the window of a phase; drive
// publishes it before the phase's first packet is sent.
type phaseWindows [numPhases]atomic.Pointer[window]
