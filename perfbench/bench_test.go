package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"clash/internal/bitkey"
)

func TestHistQuantileWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	vals := make([]int64, 20000)
	for i := range vals {
		vals[i] = int64(rng.ExpFloat64() * 80000) // ~80 µs mean
		h.add(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := float64(vals[int(math.Ceil(q*float64(len(vals))))-1]) / 1e3
		got := h.quantile(q)
		if math.Abs(got-want) > want/(1<<subBits)+1e-3 {
			t.Errorf("q%.2f = %.3f µs, want %.3f µs within 1/%d", q, got, want, 1<<subBits)
		}
	}
}

func TestHistIndexMonotonic(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 7 {
		i := histIndex(v)
		if i < prev {
			t.Fatalf("histIndex(%d) = %d < %d", v, i, prev)
		}
		if lo := histValue(i); math.Abs(lo-float64(v)) > float64(v)/(1<<subBits)+1 {
			t.Fatalf("histValue(histIndex(%d)) = %.1f", v, lo)
		}
		prev = i
	}
	if i := histIndex(math.MaxInt64); i >= len(hist{}.counts) {
		t.Fatalf("histIndex(max) = %d out of range", i)
	}
}

func TestWindowSlices(t *testing.T) {
	start := time.Unix(100, 0)
	w := newWindow(start, 5*time.Second) // two full slices
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{-time.Second, 0}, {0, 0}, {sliceEvery - 1, 0}, {sliceEvery, 1}, {2 * sliceEvery, 2}, {time.Hour, 2}} {
		if got := w.slice(start.Add(c.at)); got != c.want {
			t.Errorf("slice(+%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

func TestTiles(t *testing.T) {
	g := func(v uint64, bits int) bitkey.Group { return bitkey.NewGroup(bitkey.Key{Value: v, Bits: bits}) }
	if !tiles([]bitkey.Group{g(0, 1), g(2, 2), g(3, 2)}) {
		t.Error("0*, 10*, 11* should tile the key space")
	}
	if tiles([]bitkey.Group{g(0, 1), g(2, 2)}) {
		t.Error("0*, 10* leave 11* uncovered")
	}
	if tiles([]bitkey.Group{g(0, 1), g(0, 2), g(1, 1)}) {
		t.Error("0* and 00* overlap")
	}
}

func TestCovered(t *testing.T) {
	if got := covered([][2]int64{{5, 10}, {0, 3}, {8, 12}, {2, 4}}); got != 11 {
		t.Errorf("covered = %d, want 11", got)
	}
}

func TestFoldTraces(t *testing.T) {
	text := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      20ms   internal/runtime/syscall.Syscall6
             syscall.write
             clash/internal/overlay.(*muxConn).writeLoop
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             clash/internal/core.(*Server).HandleAcceptObject
             clash/internal/overlay.(*Node).acceptOne
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      40ms   runtime.futex
             runtime.notesleep
             runtime.findRunnable
             runtime.schedule
-----------+-------------------------------------------------------
`)
	shares, total := foldTraces(text)
	if math.Abs(total-0.1) > 1e-9 {
		t.Fatalf("total = %v s, want 0.1", total)
	}
	for mod, want := range map[string]float64{"syscall": 0.02, "core": 0.01, "gc": 0.03, "scheduler": 0.04} {
		if math.Abs(shares[mod]-want) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", mod, shares[mod], want)
		}
	}
}

func TestSeqRoundTrip(t *testing.T) {
	seq := makeSeq(phaseTraced, 5, 12345)
	if seqPhase(seq) != phaseTraced || seqCaller(seq) != 5 || seq>>56 != seqMagic {
		t.Fatalf("seq %x decodes to phase %d caller %d", seq, seqPhase(seq), seqCaller(seq))
	}
	data := make([]byte, 3+payloadLen)
	for i := 0; i < 8; i++ {
		data[3+i] = byte(seq >> (8 * i))
	}
	if got, ok := seqFromData(data); !ok || got != seq {
		t.Fatalf("seqFromData = %x, %v", got, ok)
	}
}

func TestReferenceMatchesQueries(t *testing.T) {
	for _, w := range []tcpWorkload{publishTCP, fanoutBatchTCP} {
		qs := w.makeQueries()
		ref := newReference(qs)
		base := baseGenerator()
		in := newInputs(base, 3, phaseUntraced, 0)
		check := newInputs(base, 3, phaseUntraced, 0)
		sum, count := ref.replay(in, 5000)
		var wantSum uint64
		var wantCount int64
		for i := 0; i < 5000; i++ {
			key, speed, seq := check.next()
			for _, q := range qs {
				cq := q.query()
				if cq.Region.Contains(key) && speed > q.thr {
					wantSum += matchHash(seq, q.id)
					wantCount++
				}
			}
		}
		if sum != wantSum || count != wantCount {
			t.Fatalf("%d queries: reference found %d matches, scanning every query finds %d", len(qs), count, wantCount)
		}
		if count == 0 {
			t.Fatalf("%d queries: no packet matched", len(qs))
		}
	}
}
