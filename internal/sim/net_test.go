package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"clash/internal/overlay"
	"clash/internal/sim/link"
	"clash/internal/wirecodec"
)

// testNet builds the in-memory fabric on an engine, as Run does.
func testNet(t *testing.T, m link.Model) (*Engine, *overlay.MemNetwork) {
	t.Helper()
	eng := NewEngine(1)
	net := overlay.NewMemNetwork(eng, eng.Rand())
	if err := net.SetLink(m); err != nil {
		t.Fatal(err)
	}
	return eng, net
}

// TestNetCallAndErrors drives the fabric on the engine timeline, as Run does:
// an echo round trip, the per-type call count, a remote handler error, and
// unknown or down endpoints surfacing as ErrUnreachable.
func TestNetCallAndErrors(t *testing.T) {
	_, net := testNet(t, link.Model{})
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	b.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		if msgType == overlay.TypeStatus {
			return nil, fmt.Errorf("nope")
		}
		return append([]byte("echo:"), payload...), nil
	})

	reply, err := a.Call("b", overlay.TypePing, []byte("hi"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "echo:hi" {
		t.Errorf("reply = %q", reply)
	}
	if net.Calls(overlay.TypePing) != 1 {
		t.Errorf("Calls(ping) = %d", net.Calls(overlay.TypePing))
	}
	if _, err := a.Call("b", overlay.TypeStatus, nil); !overlay.IsRemote(err) {
		t.Errorf("handler error = %v, want RemoteError", err)
	}
	if _, err := a.Call("missing", overlay.TypePing, nil); !errors.Is(err, overlay.ErrUnreachable) {
		t.Errorf("unknown endpoint = %v, want ErrUnreachable", err)
	}
	net.SetDown("b", true)
	if _, err := a.Call("b", overlay.TypePing, nil); !errors.Is(err, overlay.ErrUnreachable) {
		t.Errorf("down endpoint = %v, want ErrUnreachable", err)
	}
	net.SetDown("b", false)
	if _, err := a.Call("b", overlay.TypePing, nil); err != nil {
		t.Errorf("after SetDown(false): %v", err)
	}

	st := a.Stats()
	if st.FramesOut == 0 || st.BytesOut == 0 || st.FramesIn == 0 {
		t.Errorf("caller stats not counted: %+v", st)
	}
}

func TestNetPartition(t *testing.T) {
	_, net := testNet(t, link.Model{})
	a := net.Endpoint("a")
	net.Endpoint("b").SetHandler(func(string, []byte) ([]byte, error) { return nil, nil })

	net.SetPartition("b", 1)
	if _, err := a.Call("b", overlay.TypePing, nil); !errors.Is(err, overlay.ErrUnreachable) {
		t.Errorf("cross-partition call = %v, want ErrUnreachable", err)
	}
	net.SetPartition("a", 1)
	if _, err := a.Call("b", overlay.TypePing, nil); err != nil {
		t.Errorf("same-partition call: %v", err)
	}
	net.Heal()
	if _, err := a.Call("b", overlay.TypePing, nil); err != nil {
		t.Errorf("after Heal: %v", err)
	}
}

func TestNetLatencyRecordedAndLoss(t *testing.T) {
	m := link.Model{BaseLatency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond, Loss: 0.5}
	_, net := testNet(t, m)
	a := net.Endpoint("a")
	net.Endpoint("b").SetHandler(func(string, []byte) ([]byte, error) { return nil, nil })

	ok, lost := 0, 0
	for i := 0; i < 200; i++ {
		if _, err := a.Call("b", overlay.TypePing, nil); err != nil {
			if !errors.Is(err, overlay.ErrUnreachable) {
				t.Fatalf("loss error = %v", err)
			}
			lost++
		} else {
			ok++
		}
	}
	// Loss 0.5 per direction: roughly 3/4 of calls fail.
	if ok == 0 || lost == 0 {
		t.Fatalf("ok=%d lost=%d, want a mix", ok, lost)
	}
	h := net.Latency(overlay.TypePing)
	if h == nil || h.Count() == 0 {
		t.Fatal("no latency recorded")
	}
	s := h.Summary()
	if s.Min < 10000 || s.Max > 15000 {
		t.Errorf("one-way latency range [%.0f, %.0f]µs, want within [10ms, 15ms)", s.Min, s.Max)
	}
}

// TestNetPayloadIsolation checks that a handler retaining its payload is not
// corrupted by the caller recycling the buffer, and that the caller's reply
// survives the handler's reply buffer going back to the pool.
func TestNetPayloadIsolation(t *testing.T) {
	_, net := testNet(t, link.Model{})
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	var retained, handed []byte
	b.SetHandler(func(_ string, payload []byte) ([]byte, error) {
		retained = payload
		handed = append(wirecodec.GetBuf(), "reply"...)
		return handed, nil
	})
	buf := []byte("payload")
	got, err := a.Call("b", overlay.TypePing, buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	handed[0] = 'X' // the fabric recycled it: the next pool user may write
	if string(retained) != "payload" {
		t.Errorf("handler payload corrupted: %q", retained)
	}
	if string(got) != "reply" {
		t.Errorf("caller reply corrupted: %q", got)
	}
}

// TestNetEngineTimeline checks the engine as the fabric's time source: a
// call's sampled round trip is charged to the armed TraceCall instead of
// advancing the clock, and a late duplicate lands as an engine event.
func TestNetEngineTimeline(t *testing.T) {
	m := link.Model{BaseLatency: 10 * time.Millisecond, DropTimeout: 40 * time.Millisecond, Reorder: 0.999}
	eng, net := testNet(t, m)
	a := net.Endpoint("a")
	calls := 0
	net.Endpoint("b").SetHandler(func(string, []byte) ([]byte, error) {
		calls++
		return nil, nil
	})
	var rtt time.Duration
	cost := eng.TraceCall(func() {
		if _, err := a.CallOpts("b", overlay.TypePing, nil, overlay.CallOpts{RTT: &rtt}); err != nil {
			t.Fatal(err)
		}
	})
	if cost != 20*time.Millisecond || rtt != cost {
		t.Errorf("charged %v with RTT %v, want both 20ms", cost, rtt)
	}
	if eng.VirtualNow() != 0 || calls != 1 {
		t.Fatalf("after the call: virtual now %v, %d deliveries; want 0 and 1", eng.VirtualNow(), calls)
	}
	eng.RunUntil(49 * time.Millisecond)
	if calls != 1 {
		t.Errorf("late copy landed before request latency + drop timeout")
	}
	eng.RunUntil(50 * time.Millisecond)
	if calls != 2 {
		t.Errorf("late copy not delivered at 50ms: %d deliveries", calls)
	}

	// A deadline below the request latency costs exactly the deadline.
	cost = eng.TraceCall(func() {
		_, err := a.CallOpts("b", overlay.TypePing, nil, overlay.CallOpts{Timeout: 5 * time.Millisecond})
		if !errors.Is(err, overlay.ErrDeadline) {
			t.Errorf("short deadline = %v, want ErrDeadline", err)
		}
	})
	if cost != 5*time.Millisecond {
		t.Errorf("expired deadline charged %v, want 5ms", cost)
	}
}
