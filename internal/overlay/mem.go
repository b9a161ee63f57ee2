package overlay

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/clock"
	"clash/internal/metrics"
	"clash/internal/sim/link"
	"clash/internal/wirecodec"
)

// Timeline is the time source a MemNetwork's link latency runs on.
type Timeline interface {
	// Elapse makes the calling exchange spend d of sampled link latency. The
	// wall clock sleeps it; the simulator, which executes every exchange at
	// its issue instant, charges it to the caller's cost trace instead.
	Elapse(d time.Duration)
	// AfterFunc runs fn once d has passed: a late duplicate request arriving.
	AfterFunc(d time.Duration, fn func())
}

// WallClock returns the real-time Timeline: latency is slept and a late
// duplicate arrives on its own goroutine.
func WallClock() Timeline { return wallClock{clock.Real()} }

type wallClock struct{ clk clock.Clock }

func (w wallClock) Elapse(d time.Duration) {
	if d <= 0 {
		return
	}
	t := w.clk.NewTimer(d)
	<-t.C()
}

func (w wallClock) AfterFunc(d time.Duration, fn func()) {
	t := w.clk.NewTimer(d)
	go func() {
		<-t.C()
		fn()
	}()
}

// memDefaultTimeout is the deadline of a call without a CallOpts timeout,
// matching the TCP transport's default.
const memDefaultTimeout = 10 * time.Second

// MemNetwork is the in-memory transport fabric: endpoints created from the
// same network reach each other by address without sockets, and the handler
// runs inline on the caller's goroutine. The overlay tests, clashload -inproc
// and the discrete-event simulator (internal/sim) all run on it.
//
// Every message's one-way latency and loss are drawn from a link model (zero
// by default: instantaneous and lossless) with the network's PRNG, and gray
// faults layer on top: crashed endpoints, partitions, slow nodes, asymmetric
// blackholes, duplicated and late requests. The Timeline decides what a
// sampled latency costs the caller. Per-type call counts and one-way latency
// histograms let tests and scenarios assert on message complexity and
// delivery latency.
//
// The fabric is safe for concurrent use. One mutex guards its state and every
// PRNG draw, and it is never held across a handler or a wait, so re-entrant
// call chains (A→B→A) cannot deadlock. Driven from one goroutine, the draws
// happen in a fixed order and same-seed runs are bit-identical.
type MemNetwork struct {
	tl Timeline

	mu    sync.Mutex
	rng   *rand.Rand
	model link.Model
	eps   map[string]*MemEndpoint
	// asymBlock holds the blackholed [from, to] asymmetric-group directions.
	asymBlock map[[2]int]bool
	// calls and latency are indexed by wire type byte; latency records the
	// one-way microseconds of every delivered request.
	calls   [256]int
	latency [256]*metrics.LatencyHist
}

// NewMemNetwork creates an empty, zero-latency fabric on the given time
// source. rng supplies every link draw; the fabric only reads it under its
// own lock, so pass a PRNG nothing else uses concurrently.
func NewMemNetwork(tl Timeline, rng *rand.Rand) *MemNetwork {
	return &MemNetwork{
		tl:        tl,
		rng:       rng,
		eps:       make(map[string]*MemEndpoint),
		asymBlock: make(map[[2]int]bool),
	}
}

// Endpoint creates (or returns the existing) endpoint with the given address.
func (n *MemNetwork) Endpoint(addr string) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.endpointLocked(addr)
}

func (n *MemNetwork) endpointLocked(addr string) *MemEndpoint {
	if ep, ok := n.eps[addr]; ok {
		return ep
	}
	ep := &MemEndpoint{net: n, addr: addr}
	n.eps[addr] = ep
	return ep
}

// SetLink installs the link model applied to every message crossing the
// fabric; the zero model restores the instantaneous fabric. The simulator
// boots on a lossless copy of its scenario link and engages the real model
// when measurement starts, and clashload -inproc does the same.
func (n *MemNetwork) SetLink(m link.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.model = m
	return nil
}

// The fault setters below address endpoints by name; an address nobody has
// created yet gets an endpoint with no handler.

// SetDown marks an address crashed (true) or back up (false). Calls from and
// to a down endpoint fail with ErrUnreachable.
func (n *MemNetwork) SetDown(addr string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpointLocked(addr).down = down
}

// SetPartition assigns an address to a network partition; only endpoints in
// the same partition can exchange messages. All endpoints start in partition
// 0.
func (n *MemNetwork) SetPartition(addr string, partition int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpointLocked(addr).part = partition
}

// Heal returns every endpoint to partition 0.
func (n *MemNetwork) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ep := range n.eps {
		ep.part = 0
	}
}

// SetSlow assigns a node a link slowdown factor: every message to or from it
// takes factor times the sampled latency (a gray-failing node: alive, but
// answering far too slowly). Factor 1 (or less) restores normal speed.
func (n *MemNetwork) SetSlow(addr string, factor float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpointLocked(addr).slow = factor
}

// SetAsymGroup assigns an address to an asymmetric-partition group (default
// 0). Unlike SetPartition, group membership alone blocks nothing: directions
// are blocked pairwise with SetAsymBlocked.
func (n *MemNetwork) SetAsymGroup(addr string, group int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpointLocked(addr).asym = group
}

// SetAsymBlocked blackholes (or restores) one direction between two
// asymmetric-partition groups: messages from a node in group from to a node
// in group to vanish in transit, while the reverse direction keeps working,
// the classic gray failure where A can reach B but B cannot reach A. A
// request crossing a blocked direction never arrives (the caller times out);
// a reply crossing one is lost after the handler ran.
func (n *MemNetwork) SetAsymBlocked(from, to int, blocked bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if blocked {
		n.asymBlock[[2]int{from, to}] = true
		return
	}
	delete(n.asymBlock, [2]int{from, to})
}

// HealAsym clears all asymmetric-partition state.
func (n *MemNetwork) HealAsym() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ep := range n.eps {
		ep.asym = 0
	}
	n.asymBlock = make(map[[2]int]bool)
}

// Calls returns how many requests of the given type were attempted.
func (n *MemNetwork) Calls(msgType string) int {
	typ, err := typeByte(msgType)
	if err != nil {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.calls[typ]
}

// Latency returns a copy of the one-way delivery latency histogram (in
// microseconds of the timeline's time) recorded for a message type, or nil if
// none was delivered.
func (n *MemNetwork) Latency(msgType string) *metrics.LatencyHist {
	typ, err := typeByte(msgType)
	if err != nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.latency[typ] == nil {
		return nil
	}
	h := *n.latency[typ]
	return &h
}

// asymBlocked reports whether the a→b direction is blackholed. Callers hold
// n.mu.
func (n *MemNetwork) asymBlocked(a, b *MemEndpoint) bool {
	return len(n.asymBlock) > 0 && n.asymBlock[[2]int{a.asym, b.asym}]
}

// draw reports whether one PRNG draw falls below p.
func (n *MemNetwork) draw(p float64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64() < p
}

// liveHandler returns t's handler, or nil when t has closed or crashed.
func (n *MemNetwork) liveHandler(t *MemEndpoint) Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	if t.closed || t.down {
		return nil
	}
	return t.handler
}

// redeliver runs h once more on its own copy of payload: a duplicated or late
// request, whose reply answers a sequence ID nobody waits for.
func redeliver(h Handler, msgType string, payload []byte) {
	if h == nil {
		return
	}
	req := append(wirecodec.GetBuf(), payload...)
	reply, _ := h(msgType, req)
	wirecodec.PutBuf(req)
	wirecodec.PutBuf(reply)
}

// deadline waits out the rest of an expired deadline and reports it.
func (n *MemNetwork) deadline(addr string, wait, timeout time.Duration) error {
	n.tl.Elapse(wait)
	return fmt.Errorf("%w: %s after %s", ErrDeadline, addr, timeout)
}

// lost waits until the sender gives up on a lost message and reports it. A
// lost reply's wait is the drop timeout less the request leg already spent,
// and never negative.
func (n *MemNetwork) lost(addr, leg string, wait time.Duration) error {
	n.tl.Elapse(max(wait, 0))
	return fmt.Errorf("%w: %s: %s lost", ErrUnreachable, addr, leg)
}

// slowFactor is the latency multiplier for the a↔b pair (the slower side
// wins).
func slowFactor(a, b *MemEndpoint) float64 {
	return max(1, a.slow, b.slow)
}

// scale multiplies a sampled latency by a slowdown factor.
func scale(d time.Duration, f float64) time.Duration {
	if f <= 1 {
		return d
	}
	return time.Duration(float64(d) * f)
}

// MemEndpoint is one addressable endpoint of a MemNetwork.
type MemEndpoint struct {
	net      *MemNetwork
	addr     string
	inFlight atomic.Int64

	// Guarded by net.mu.
	handler Handler
	closed  bool
	down    bool
	part    int     // partition; only same-partition endpoints communicate
	asym    int     // asymmetric-partition group
	slow    float64 // link slowdown factor; 1 or less is full speed
	stats   TransportStats
}

var _ Transport = (*MemEndpoint)(nil)

// Addr implements Transport.
func (e *MemEndpoint) Addr() string { return e.addr }

// SetHandler implements Transport.
func (e *MemEndpoint) SetHandler(h Handler) {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.handler = h
}

// Stats implements Transport.
func (e *MemEndpoint) Stats() TransportStats {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	st := e.stats
	st.InFlight = e.inFlight.Load()
	return st
}

// RecordRetry implements RetryRecorder.
func (e *MemEndpoint) RecordRetry() {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.stats.Retries++
}

// Close implements Transport.
func (e *MemEndpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.closed = true
	return nil
}

// Call implements Transport.
func (e *MemEndpoint) Call(addr, msgType string, payload []byte) ([]byte, error) {
	return e.CallOpts(addr, msgType, payload, CallOpts{})
}

// CallOpts implements Transport. Both directions draw their fate from the
// link model in a fixed order (request, then the handler's own calls, then
// the duplicate and late-copy draws, then the reply): a lost request or
// reply fails the call with ErrUnreachable once the model's drop timeout has
// passed, and a delivered request's latency is recorded in the per-type
// histogram. The handler runs inline on a pooled copy of the payload that
// goes back to the pool when it returns; its errors come back as
// *RemoteError. Frames are counted as header plus payload, the bytes TCP
// would carry.
//
// Gray faults layer on top: slowdown factors multiply the sampled latencies,
// and a latency sum past the deadline fails the call with ErrDeadline, before
// the handler runs when the request leg alone overshoots and after it when
// the reply leg does, exactly the ambiguity a real timeout has. An
// asymmetrically blocked direction expires the deadline too (a blackholed
// message is indistinguishable from a slow one until the timer fires). Dup
// re-runs the handler at once and Reorder DropTimeout later, on the
// timeline; their replies go nowhere. A successful call reports the modeled
// round trip in opts.RTT. Handler execution is not metered against the
// deadline: the fabric cannot preempt an inline handler.
func (e *MemEndpoint) CallOpts(addr, msgType string, payload []byte, opts CallOpts) ([]byte, error) {
	typ, err := typeByte(msgType)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxFrameSize {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrFrameTooLarge, len(payload))
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = memDefaultTimeout
	}
	n := e.net
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)

	// Request leg.
	n.mu.Lock()
	if e.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrClosed, e.addr)
	}
	n.calls[typ]++
	t := n.eps[addr]
	if t == nil || t.closed || e.down || t.down || e.part != t.part {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	m := n.model
	factor := slowFactor(e, t)
	size := uint64(frameHeaderSize + len(payload))
	e.stats.FramesOut++
	e.stats.BytesOut += size
	if n.asymBlocked(e, t) {
		// The request vanishes in transit. No PRNG draw: a blackholed
		// message has no fate to sample.
		e.stats.Timeouts++
		n.mu.Unlock()
		return nil, n.deadline(addr, timeout, timeout)
	}
	reqLat, reqDrop := m.Sample(n.rng)
	reqLat = scale(reqLat, factor)
	if reqDrop {
		n.mu.Unlock()
		return nil, n.lost(addr, "request", scale(m.DropTimeout, factor))
	}
	if reqLat > timeout {
		// Still in flight when the deadline fires: the handler never runs
		// (the mux would discard the stale sequence ID).
		e.stats.Timeouts++
		n.mu.Unlock()
		return nil, n.deadline(addr, timeout, timeout)
	}
	if n.latency[typ] == nil {
		n.latency[typ] = metrics.NewLatencyHist()
	}
	n.latency[typ].Record(reqLat.Microseconds())
	t.stats.FramesIn++
	t.stats.BytesIn += size
	h := t.handler
	n.mu.Unlock()
	n.tl.Elapse(reqLat)

	req := append(wirecodec.GetBuf(), payload...)
	reply, herr := dispatch(h, msgType, req)
	wirecodec.PutBuf(req)
	if herr != nil {
		herr = &RemoteError{Msg: herr.Error()}
	}
	if m.Dup > 0 && n.draw(m.Dup) {
		redeliver(n.liveHandler(t), msgType, payload)
	}
	if m.Reorder > 0 && n.draw(m.Reorder) {
		// By the time the late copy lands the target may be gone.
		late := append([]byte(nil), payload...)
		n.tl.AfterFunc(scale(reqLat+m.DropTimeout, factor), func() {
			redeliver(n.liveHandler(t), msgType, late)
		})
	}

	// Reply leg: the handler ran, so state on the target may have changed
	// whatever happens to the reply.
	n.mu.Lock()
	repSize := uint64(frameHeaderSize + len(reply))
	t.stats.FramesOut++
	t.stats.BytesOut += repSize
	if n.asymBlocked(t, e) {
		e.stats.Timeouts++
		n.mu.Unlock()
		wirecodec.PutBuf(reply)
		return nil, n.deadline(addr, timeout-reqLat, timeout)
	}
	repLat, repDrop := m.Sample(n.rng)
	repLat = scale(repLat, factor)
	if repDrop {
		n.mu.Unlock()
		wirecodec.PutBuf(reply)
		return nil, n.lost(addr, "reply", scale(m.DropTimeout, factor)-reqLat)
	}
	if reqLat+repLat > timeout {
		e.stats.Timeouts++
		n.mu.Unlock()
		wirecodec.PutBuf(reply)
		return nil, n.deadline(addr, timeout-reqLat, timeout)
	}
	e.stats.FramesIn++
	e.stats.BytesIn += repSize
	n.mu.Unlock()
	n.tl.Elapse(repLat)
	if opts.RTT != nil {
		*opts.RTT = reqLat + repLat
	}
	if herr != nil {
		wirecodec.PutBuf(reply)
		return nil, herr
	}
	// The reply escapes to the caller; the handler's buffer goes back to
	// the pool.
	out := append([]byte(nil), reply...)
	wirecodec.PutBuf(reply)
	return out, nil
}
