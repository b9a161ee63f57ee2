package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"clash/internal/sim/link"
	"clash/internal/wirecodec"
)

// newMemNet is the wall-clock fabric the overlay tests run on.
func newMemNet() *MemNetwork {
	return NewMemNetwork(WallClock(), rand.New(rand.NewSource(1)))
}

// costTimeline is a virtual Timeline for single-goroutine tests: latency is
// summed instead of waited out, and late deliveries queue until run.
type costTimeline struct {
	spent time.Duration
	later []func()
}

func (c *costTimeline) Elapse(d time.Duration)               { c.spent += d }
func (c *costTimeline) AfterFunc(_ time.Duration, fn func()) { c.later = append(c.later, fn) }

func TestMemTransportCallAndFailures(t *testing.T) {
	net := newMemNet()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	b.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		if msgType == TypeStatus {
			return nil, fmt.Errorf("handler says no")
		}
		return append([]byte("echo:"), payload...), nil
	})

	reply, err := a.Call("b", TypePing, []byte("hi"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "echo:hi" {
		t.Errorf("reply = %q", reply)
	}
	if net.Calls(TypePing) != 1 {
		t.Errorf("Calls(ping) = %d, want 1", net.Calls(TypePing))
	}

	if _, err := a.Call("b", TypeStatus, nil); !IsRemote(err) {
		t.Errorf("remote handler error = %v, want RemoteError", err)
	}
	if _, err := a.Call("b", "not.registered", nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("unregistered type = %v, want ErrBadFrame", err)
	}
	if _, err := a.Call("b", TypePing, make([]byte, maxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized payload = %v, want ErrFrameTooLarge", err)
	}
	if _, err := a.Call("missing", TypePing, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to unknown endpoint = %v, want ErrUnreachable", err)
	}
	net.SetDown("b", true)
	if _, err := a.Call("b", TypePing, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to down endpoint = %v, want ErrUnreachable", err)
	}
	if _, err := b.Call("a", TypePing, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call from down endpoint = %v, want ErrUnreachable", err)
	}
	net.SetDown("b", false)
	if _, err := a.Call("b", TypePing, nil); err != nil {
		t.Errorf("call after SetDown(false): %v", err)
	}

	st := a.Stats()
	if st.FramesOut == 0 || st.BytesOut == 0 || st.FramesIn == 0 {
		t.Errorf("caller stats not counted: %+v", st)
	}
	if bst := b.Stats(); bst.FramesIn == 0 {
		t.Errorf("target stats not counted: %+v", bst)
	}
	a.Close()
	if _, err := a.Call("b", TypePing, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("call from closed endpoint = %v, want ErrClosed", err)
	}
}

// TestMemWallClockLink runs a few-millisecond link model on the wall clock:
// the sampled latency is slept, a deadline shorter than it expires, a lost
// message surfaces after the drop timeout, and RTT reports the round trip.
func TestMemWallClockLink(t *testing.T) {
	const lat = 3 * time.Millisecond
	net := newMemNet()
	a := net.Endpoint("a")
	net.Endpoint("b").SetHandler(func(_ string, p []byte) ([]byte, error) {
		return append(wirecodec.GetBuf(), p...), nil
	})
	if err := net.SetLink(link.Model{BaseLatency: lat, DropTimeout: 2 * lat}); err != nil {
		t.Fatal(err)
	}

	var rtt time.Duration
	start := time.Now()
	reply, err := a.CallOpts("b", TypePing, []byte("x"), CallOpts{RTT: &rtt})
	if err != nil || string(reply) != "x" {
		t.Fatalf("CallOpts = %q, %v", reply, err)
	}
	if rtt != 2*lat {
		t.Errorf("RTT = %v, want %v", rtt, 2*lat)
	}
	if el := time.Since(start); el < 2*lat {
		t.Errorf("call returned after %v, before its %v round trip", el, 2*lat)
	}

	start = time.Now()
	_, err = a.CallOpts("b", TypePing, nil, CallOpts{Timeout: lat / 3})
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("deadline below the RTT = %v, want ErrDeadline", err)
	}
	if el := time.Since(start); el < lat/3 {
		t.Errorf("deadline expired after %v, before its %v", el, lat/3)
	}
	if got := a.Stats().Timeouts; got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}

	if err := net.SetLink(link.Model{BaseLatency: lat, DropTimeout: 2 * lat, Loss: 0.999}); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := a.Call("b", TypePing, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("lost message = %v, want ErrUnreachable", err)
	}
	if el := time.Since(start); el < 2*lat {
		t.Errorf("loss surfaced after %v, before the %v drop timeout", el, 2*lat)
	}
}

// TestMemDupAndReorder checks the duplicate and late-copy faults: a
// duplicate re-runs the handler at once, a late copy waits on the timeline
// and is dropped when its target has gone; the caller is charged the round
// trip either way.
func TestMemDupAndReorder(t *testing.T) {
	tl := &costTimeline{}
	net := NewMemNetwork(tl, rand.New(rand.NewSource(1)))
	m := link.Model{BaseLatency: time.Millisecond, DropTimeout: 4 * time.Millisecond, Dup: 0.999, Reorder: 0.999}
	if err := net.SetLink(m); err != nil {
		t.Fatal(err)
	}
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	var got []string
	b.SetHandler(func(_ string, p []byte) ([]byte, error) {
		got = append(got, string(p))
		return nil, nil
	})
	if _, err := a.Call("b", TypePing, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(tl.later) != 1 {
		t.Fatalf("after one call: %d deliveries, %d late copies queued; want 2 and 1", len(got), len(tl.later))
	}
	if tl.spent != 2*time.Millisecond {
		t.Errorf("charged %v, want the %v round trip", tl.spent, 2*time.Millisecond)
	}
	tl.later[0]()
	if len(got) != 3 || got[2] != "one" {
		t.Errorf("late copy delivered %q, want a third %q", got, "one")
	}

	if _, err := a.Call("b", TypePing, []byte("two")); err != nil {
		t.Fatal(err)
	}
	b.Close()
	tl.later[1]()
	if len(got) != 5 {
		t.Errorf("late copy reached a closed endpoint: deliveries %q", got)
	}
}

// TestMemFaultsConcurrent drives wall-clock callers, including a re-entrant
// A→B→A chain, across partition and asymmetric-block flips. Run it under
// -race: every outcome must be a correct echo or a clean transport failure.
func TestMemFaultsConcurrent(t *testing.T) {
	net := newMemNet()
	addrs := []string{"n0", "n1", "n2", "n3"}
	for i, addr := range addrs {
		ep := net.Endpoint(addr)
		back := addrs[(i+len(addrs)-1)%len(addrs)]
		ep.SetHandler(func(msgType string, p []byte) ([]byte, error) {
			if msgType == TypeStatus {
				// Re-entrant: call out before answering (A→B→A when back
				// is the caller).
				if _, err := ep.CallOpts(back, TypePing, nil, CallOpts{Timeout: time.Millisecond}); err != nil {
					return nil, err
				}
			}
			return append(wirecodec.GetBuf(), p...), nil
		})
	}
	net.SetAsymGroup("n2", 1)
	net.SetAsymGroup("n3", 1)

	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			net.SetPartition(addrs[round%len(addrs)], 1)
			net.SetAsymBlocked(0, 1, round%2 == 0)
			net.Heal()
			if round%5 == 0 {
				net.HealAsym()
				net.SetAsymGroup("n2", 1)
				net.SetAsymGroup("n3", 1)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := net.Endpoint(addrs[w])
			msg := []byte(addrs[w])
			for i := 0; i < 500; i++ {
				typ := TypePing
				if i%3 == 0 {
					typ = TypeStatus
				}
				to := addrs[(w+1+i)%len(addrs)]
				reply, err := from.CallOpts(to, typ, msg, CallOpts{Timeout: time.Millisecond})
				switch {
				case err == nil:
					if string(reply) != string(msg) {
						t.Errorf("%s→%s reply %q, want %q", addrs[w], to, reply, msg)
						return
					}
				case IsRemote(err), errors.Is(err, ErrUnreachable), errors.Is(err, ErrDeadline):
				default:
					t.Errorf("%s→%s: unexpected error %v", addrs[w], to, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-flipped

	net.Heal()
	net.HealAsym()
	for _, from := range addrs {
		for _, to := range addrs {
			if _, err := net.Endpoint(from).Call(to, TypeStatus, nil); err != nil {
				t.Errorf("%s→%s after heal: %v", from, to, err)
			}
		}
	}
	if st := net.Endpoint("n0").Stats(); st.InFlight != 0 {
		t.Errorf("InFlight = %d after all calls returned", st.InFlight)
	}
}

// BenchmarkMemCall measures the fabric's per-call cost on a 120-byte echo,
// instantaneous and with a sampled WAN link (on a virtual timeline, so the
// latency is accounted, not slept).
func BenchmarkMemCall(b *testing.B) {
	for _, bc := range []struct {
		name string
		link link.Model
	}{
		{"zero", link.Model{}},
		{"wan", link.WAN(20*time.Millisecond, 0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			net := NewMemNetwork(&costTimeline{}, rand.New(rand.NewSource(1)))
			if err := net.SetLink(bc.link); err != nil {
				b.Fatal(err)
			}
			a := net.Endpoint("a")
			net.Endpoint("b").SetHandler(func(_ string, p []byte) ([]byte, error) {
				return append(wirecodec.GetBuf(), p...), nil
			})
			payload := make([]byte, 120)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Call("b", TypePing, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
