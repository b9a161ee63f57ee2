package overlay

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/wirecodec"
)

// Default timeouts for the TCP transport (the zero TCPConfig). Dial and
// per-call deadlines keep a dead peer from wedging the maintenance loop; the
// idle deadline reaps connections whose peer went away.
const (
	tcpDialTimeout = 3 * time.Second
	tcpCallTimeout = 10 * time.Second
	tcpIdleTimeout = 5 * time.Minute
	// tcpShedWait bounds how long an inbound request may wait for a dispatch
	// slot before the server sheds it with a framed shed reply. Without the
	// bound, a wedged handler holding every slot would queue pipelined
	// requests forever.
	tcpShedWait = 2 * time.Second
	// tcpMuxIdle is how long an outbound multiplexed connection may sit with
	// no call in flight before the client closes it itself. It is well below
	// the server-side idle timeout for the same reason the old pool's
	// tcpPoolIdle was: the side that reaps first must be the client, so a
	// request is never written into a socket the peer's reaper may already
	// have closed (such a write "succeeds" into the dead buffer and cannot
	// safely be retried).
	tcpMuxIdle = time.Minute
	// serverMaxConcurrent bounds how many pipelined requests one inbound
	// connection may have dispatched at once; excess requests wait for a
	// slot (backpressure) instead of spawning unbounded goroutines.
	serverMaxConcurrent = 256
)

// TCPConfig tunes a TCPTransport's timeouts and dispatch bounds. Zero fields
// take the package defaults above.
type TCPConfig struct {
	// DialTimeout bounds each outbound connection attempt.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline used when CallOpts carries none,
	// and the ceiling for socket write deadlines.
	CallTimeout time.Duration
	// IdleTimeout is the server-side read deadline: an inbound connection
	// with no traffic for this long is closed.
	IdleTimeout time.Duration
	// ShedWait bounds how long an inbound request waits for a dispatch slot
	// before being shed with a framed shed reply.
	ShedWait time.Duration
	// MaxConcurrent bounds concurrently dispatched requests per inbound
	// connection.
	MaxConcurrent int
}

// withDefaults fills zero fields with the package defaults.
func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = tcpDialTimeout
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = tcpCallTimeout
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = tcpIdleTimeout
	}
	if c.ShedWait <= 0 {
		c.ShedWait = tcpShedWait
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = serverMaxConcurrent
	}
	return c
}

// errMuxClosed marks a Call that failed because the shared connection closed
// before the request frame was handed to the writer loop. The request never
// touched the socket, so retrying on a fresh connection is safe.
var errMuxClosed = errors.New("overlay: connection closed before write")

// TCPTransport is the production transport: one listening socket answering
// framed requests, plus one multiplexed outbound connection per peer.
// Concurrent Calls to the same address pipeline their frames onto that single
// connection — a writer loop serialises request frames, a demux reader loop
// matches replies to waiting calls by sequence ID — so N in-flight calls cost
// one socket, not N lockstep exchanges. Inbound requests are dispatched
// concurrently, so replies leave in completion order, not arrival order.
type TCPTransport struct {
	ln    net.Listener
	addr  string
	cfg   TCPConfig
	stats transportStats

	mu      sync.Mutex
	handler Handler
	closed  bool
	serving map[net.Conn]struct{}
	muxes   map[string]*muxConn
	dialing map[string]*sync.Mutex // per-addr dial serialisation
	dialed  map[string]bool        // addrs dialed at least once (reconnect counting)
	wg      sync.WaitGroup
}

var _ Transport = (*TCPTransport)(nil)

// ListenTCP binds a TCP transport with the default timeouts and starts its
// accept loop. Pass an address with port 0 to let the kernel choose (the
// chosen address is what Addr returns and therefore the node's identity — use
// an address peers can reach).
func ListenTCP(addr string) (*TCPTransport, error) {
	return ListenTCPConfig(addr, TCPConfig{})
}

// ListenTCPConfig is ListenTCP with explicit timeouts and dispatch bounds.
func ListenTCPConfig(addr string, cfg TCPConfig) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("overlay: listen %s: %w", addr, err)
	}
	t := &TCPTransport{
		ln:      ln,
		addr:    ln.Addr().String(),
		cfg:     cfg.withDefaults(),
		serving: make(map[net.Conn]struct{}),
		muxes:   make(map[string]*muxConn),
		dialing: make(map[string]*sync.Mutex),
		dialed:  make(map[string]bool),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements Transport.
func (t *TCPTransport) Addr() string { return t.addr }

// SetHandler implements Transport.
func (t *TCPTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Stats implements Transport.
func (t *TCPTransport) Stats() TransportStats { return t.stats.snapshot() }

// RecordRetry implements RetryRecorder.
func (t *TCPTransport) RecordRetry() { t.stats.retries.Add(1) }

// Close implements Transport: it stops the accept loop, closes every inbound
// connection and outbound mux, then waits for all connection goroutines.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	err := t.ln.Close()
	for c := range t.serving {
		c.Close()
	}
	muxes := make([]*muxConn, 0, len(t.muxes))
	for _, mc := range t.muxes {
		muxes = append(muxes, mc)
	}
	t.mu.Unlock()
	for _, mc := range muxes {
		mc.fail(fmt.Errorf("%w: %s", ErrClosed, t.addr))
	}
	t.wg.Wait()
	return err
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.serving[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serveConn(conn)
	}
}

// numServing returns the number of live inbound connections (tests use it to
// prove that pipelined calls share one socket).
func (t *TCPTransport) numServing() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.serving)
}

// frameQueueDepth is the writer-loop channel capacity on both sides of a
// connection; frameWriteBatch caps how many queued frames one writev
// coalesces.
const (
	frameQueueDepth = 256
	frameWriteBatch = 64
)

// writeScratch is a writer loop's reusable batching state: owned keeps the
// collected frames for stats/pool return after net.Buffers.WriteTo has
// consumed the bufs view. One writer goroutine owns each instance, so the
// per-flush slices are reused instead of reallocated.
type writeScratch struct {
	bufs  net.Buffers
	owned [][]byte
}

func newWriteScratch() *writeScratch {
	return &writeScratch{
		bufs:  make(net.Buffers, 0, frameWriteBatch),
		owned: make([][]byte, 0, frameWriteBatch),
	}
}

// drainWrite writes one frame plus everything else already queued in a
// single writev, returning the frames' pooled buffers afterwards. It reports
// whether the write succeeded.
func (ws *writeScratch) drainWrite(conn net.Conn, stats *transportStats, first []byte, ch <-chan []byte, writeTimeout time.Duration) bool {
	ws.owned = append(ws.owned[:0], first)
	for len(ws.owned) < frameWriteBatch {
		select {
		case b := <-ch:
			ws.owned = append(ws.owned, b)
		default:
			goto write
		}
	}
write:
	ws.bufs = append(ws.bufs[:0], ws.owned...)
	// Count before writing: once the bytes are on the socket the peer may
	// reply and the caller read Stats before this goroutine runs again.
	for _, b := range ws.owned {
		stats.countOut(len(b))
	}
	//clashvet:ignore clockcheck kernel socket deadlines need the wall clock; TCP never runs under the simulator
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := ws.bufs.WriteTo(conn) // writev: one syscall for the whole batch
	for i, b := range ws.owned {
		wirecodec.PutBuf(b)
		ws.owned[i] = nil
	}
	return err == nil
}

// serveConn answers framed requests on one inbound connection until the peer
// hangs up, framing corrupts, or the idle deadline passes. Requests are
// dispatched concurrently (bounded by cfg.MaxConcurrent) and each reply
// carries its request's sequence ID, so a slow handler never head-of-line
// blocks the requests pipelined behind it; a per-connection writer loop
// coalesces queued replies into single writev calls. A request that cannot
// get a dispatch slot within cfg.ShedWait is shed with a framed shed reply —
// wedged handlers cost the peer a bounded wait, not an unbounded queue.
func (t *TCPTransport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	var (
		hwg     sync.WaitGroup
		sem     = make(chan struct{}, t.cfg.MaxConcurrent)
		writeCh = make(chan []byte, frameQueueDepth)
		done    = make(chan struct{})
		wdone   = make(chan struct{})
	)
	// Reply writer loop: drains queued frames ahead of shutdown, so every
	// reply a handler produced is flushed before the connection winds down.
	go func() {
		defer close(wdone)
		ws := newWriteScratch()
		for {
			select {
			case buf := <-writeCh:
				if !ws.drainWrite(conn, &t.stats, buf, writeCh, t.cfg.CallTimeout) {
					// The peer stopped reading; tear the connection down so
					// the read loop exits too.
					conn.Close()
					return
				}
			default:
				select {
				case buf := <-writeCh:
					if !ws.drainWrite(conn, &t.stats, buf, writeCh, t.cfg.CallTimeout) {
						conn.Close()
						return
					}
				case <-done:
					return
				}
			}
		}
	}()
	defer func() {
		// Let in-flight handlers finish and the writer drain their replies
		// before the socket closes: a peer that half-closed its write side
		// after pipelining requests still receives every reply. On a dead
		// connection the writer's write error closes the socket itself, so
		// this drain cannot wedge (handlers fall through to wdone).
		hwg.Wait()
		close(done)
		<-wdone
		conn.Close()
		t.mu.Lock()
		delete(t.serving, conn)
		t.mu.Unlock()
	}()
	writeReply := func(seq uint64, typ byte, payload []byte) {
		buf, err := appendFrame(wirecodec.GetBuf(), seq, typ, payload)
		if err != nil {
			// An oversized reply must still answer its sequence ID — a
			// dropped frame would leave the caller waiting out its timeout
			// and retrying forever. The error text always fits.
			buf, err = appendFrame(buf[:0], seq, typeReplyErr, []byte(err.Error()))
			if err != nil {
				wirecodec.PutBuf(buf)
				return
			}
		}
		select {
		case writeCh <- buf:
		case <-wdone:
			wirecodec.PutBuf(buf)
		}
	}
	for {
		//clashvet:ignore clockcheck kernel socket deadlines need the wall clock; TCP never runs under the simulator
		_ = conn.SetReadDeadline(time.Now().Add(t.cfg.IdleTimeout))
		// Request payloads live in pooled buffers end-to-end: the socket read
		// lands in a pooled buffer, the handler decodes it in place, and the
		// dispatch goroutine returns it to the pool once the reply frame has
		// been built (appendFrame copies). readFrameInto always hands the
		// buffer back through f.payload, so every path below recycles it.
		f, err := readFrameInto(conn, wirecodec.GetBuf())
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The oversized payload was skipped and framing is intact:
				// answer with a framed error and keep the connection (and
				// every pipelined call on it) alive.
				t.stats.oversizedDrops.Add(1)
				writeReply(f.seq, typeReplyErr, []byte(err.Error()))
				wirecodec.PutBuf(f.payload)
				continue
			}
			// EOF, deadline, or framing corruption: close.
			wirecodec.PutBuf(f.payload)
			return
		}
		t.stats.countIn(frameHeaderSize + len(f.payload))
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		select {
		case sem <- struct{}{}:
		default:
			// Every dispatch slot is taken: wait a bounded time, then shed.
			// The peer gets a distinct framed reply so it knows the handler
			// never ran and a backed-off resend is safe.
			//clashvet:ignore clockcheck real-socket overload shedding waits in wall time; TCP never runs under the simulator
			shedTimer := time.NewTimer(t.cfg.ShedWait)
			select {
			case sem <- struct{}{}:
				shedTimer.Stop()
			case <-shedTimer.C:
				t.stats.shed.Add(1)
				writeReply(f.seq, typeReplyShed, []byte("server overloaded: request shed"))
				wirecodec.PutBuf(f.payload)
				continue
			}
		}
		hwg.Add(1)
		go func(f frame) {
			defer hwg.Done()
			defer func() { <-sem }()
			reply, herr := dispatch(h, typeName(f.typ), f.payload)
			if herr != nil {
				writeReply(f.seq, typeReplyErr, []byte(herr.Error()))
			} else {
				writeReply(f.seq, typeReplyOK, reply)
				// The handler transferred reply ownership; the frame encoder
				// copied it, so it can feed the next reply.
				wirecodec.PutBuf(reply)
			}
			wirecodec.PutBuf(f.payload)
		}(f)
	}
}

// callResult is what the demux reader delivers to a waiting Call.
type callResult struct {
	typ     byte
	payload []byte
	err     error
}

// muxConn is one multiplexed outbound connection: a writer loop draining
// request frames, a reader loop demultiplexing replies into the in-flight
// map by sequence ID.
type muxConn struct {
	t    *TCPTransport
	addr string
	conn net.Conn

	writeCh  chan []byte // encoded request frames (pooled buffers)
	closeCh  chan struct{}
	failOnce sync.Once

	// lastUsed is the UnixNano of the last call registration or reply frame,
	// read by the idle reaper to distinguish a genuinely idle connection
	// from a read deadline armed before a late call arrived.
	lastUsed atomic.Int64

	mu       sync.Mutex
	inflight map[uint64]chan callResult
	nextSeq  uint64
	closed   bool
}

// touch records activity for the idle reaper.
//
//clashvet:ignore clockcheck idle reaping of real sockets is wall-clock by nature; TCP never runs under the simulator
func (m *muxConn) touch() { m.lastUsed.Store(time.Now().UnixNano()) }

func newMuxConn(t *TCPTransport, addr string, conn net.Conn) *muxConn {
	m := &muxConn{
		t:        t,
		addr:     addr,
		conn:     conn,
		writeCh:  make(chan []byte, frameQueueDepth),
		closeCh:  make(chan struct{}),
		inflight: make(map[uint64]chan callResult),
	}
	m.touch()
	return m
}

func (m *muxConn) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// idle reports whether no call is awaiting a reply.
func (m *muxConn) idle() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.inflight) == 0
}

// fail closes the connection and fails every in-flight call. It is safe to
// call multiple times and from any goroutine (reader, writer, Close).
func (m *muxConn) fail(err error) {
	m.failOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		waiting := m.inflight
		m.inflight = make(map[uint64]chan callResult)
		m.mu.Unlock()
		close(m.closeCh)
		m.conn.Close()
		for _, ch := range waiting {
			ch <- callResult{err: err}
		}
	})
}

// writeLoop serialises request frames onto the socket, coalescing queued
// frames into single writev calls.
func (m *muxConn) writeLoop() {
	defer m.t.wg.Done()
	ws := newWriteScratch()
	for {
		select {
		case buf := <-m.writeCh:
			if !ws.drainWrite(m.conn, &m.t.stats, buf, m.writeCh, m.t.cfg.CallTimeout) {
				m.fail(fmt.Errorf("%s: write failed", m.addr))
				return
			}
		case <-m.closeCh:
			// Frames still queued belong to calls fail() already errored;
			// recycle their buffers.
			for {
				select {
				case buf := <-m.writeCh:
					wirecodec.PutBuf(buf)
				default:
					return
				}
			}
		}
	}
}

// readLoop demultiplexes reply frames to the in-flight calls and reaps the
// connection after tcpMuxIdle without traffic.
func (m *muxConn) readLoop() {
	defer m.t.wg.Done()
	for {
		//clashvet:ignore clockcheck kernel socket deadlines need the wall clock; TCP never runs under the simulator
		_ = m.conn.SetReadDeadline(time.Now().Add(tcpMuxIdle))
		f, err := readFrame(m.conn)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// Only the oversized reply's call fails; the connection and
				// the other in-flight calls stay healthy.
				m.t.stats.oversizedDrops.Add(1)
				m.deliver(f.seq, callResult{err: err})
				continue
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				//clashvet:ignore clockcheck idle-window arithmetic against a socket deadline is wall-clock by nature
				if since := time.Since(time.Unix(0, m.lastUsed.Load())); since < tcpMuxIdle {
					// The deadline was armed before recent activity (a call
					// registered late in the window); re-arm and keep going.
					continue
				}
				if m.idle() {
					// Clean idle self-reap: nothing is in flight (calls time
					// out and deregister long before tcpMuxIdle), so closing
					// now is invisible; failing with errMuxClosed lets a
					// Call racing this close retry on a fresh dial.
					m.fail(errMuxClosed)
					return
				}
			}
			m.fail(fmt.Errorf("read %s: %w", m.addr, err))
			return
		}
		if f.typ != typeReplyOK && f.typ != typeReplyErr && f.typ != typeReplyShed {
			m.fail(fmt.Errorf("%w: reply type %#x", ErrBadFrame, f.typ))
			return
		}
		m.touch()
		m.t.stats.countIn(frameHeaderSize + len(f.payload))
		m.deliver(f.seq, callResult{typ: f.typ, payload: f.payload})
	}
}

// deliver hands a result to the call waiting on seq. Replies for unknown
// sequence IDs (a call that timed out meanwhile) are dropped.
func (m *muxConn) deliver(seq uint64, res callResult) {
	m.mu.Lock()
	ch, ok := m.inflight[seq]
	delete(m.inflight, seq)
	m.mu.Unlock()
	if ok {
		ch <- res
	}
}

// call performs one pipelined exchange on the shared connection, waiting at
// most timeout for the reply.
func (m *muxConn) call(typ byte, payload []byte, timeout time.Duration) ([]byte, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errMuxClosed
	}
	m.nextSeq++
	seq := m.nextSeq
	ch := make(chan callResult, 1)
	m.inflight[seq] = ch
	m.mu.Unlock()
	m.touch()

	buf := wirecodec.GetBuf()
	buf, err := appendFrame(buf, seq, typ, payload)
	if err != nil {
		wirecodec.PutBuf(buf)
		m.abandon(seq)
		return nil, err
	}
	// Hand the frame to the writer loop: a successful send means the writer
	// owns the frame (it reaches the socket or the whole connection fails,
	// erroring this call through its in-flight channel), while losing to
	// closeCh means the request never left this goroutine and is safe to
	// retry elsewhere.
	select {
	//clashvet:ignore poolcheck deliberate ownership handoff: the writer loop recycles the frame after writev (or the conn dies and errors the call)
	case m.writeCh <- buf:
	case <-m.closeCh:
		wirecodec.PutBuf(buf)
		m.abandon(seq)
		return nil, errMuxClosed
	}

	//clashvet:ignore clockcheck real-RPC timeout on a kernel socket; TCP never runs under the simulator
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, res.err
		}
		switch res.typ {
		case typeReplyErr:
			return nil, &RemoteError{Msg: string(res.payload)}
		case typeReplyShed:
			return nil, fmt.Errorf("%w: %s: %s", ErrShed, m.addr, res.payload)
		}
		return res.payload, nil
	case <-timer.C:
		m.abandon(seq)
		m.t.stats.timeouts.Add(1)
		return nil, fmt.Errorf("%w: call %s after %s", ErrDeadline, m.addr, timeout)
	}
}

// abandon forgets an in-flight registration (failed enqueue or timeout).
func (m *muxConn) abandon(seq uint64) {
	m.mu.Lock()
	delete(m.inflight, seq)
	m.mu.Unlock()
}

// getMux returns the live shared connection to addr, dialing one when none
// exists. Dials to the same address are serialised by a per-address lock so
// a burst of first calls shares one connection instead of racing N dials.
// fresh reports that this call created the connection (a Call that fails on
// a fresh connection must not redial again).
func (t *TCPTransport) getMux(addr string) (mc *muxConn, fresh bool, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %s", ErrClosed, t.addr)
	}
	if mc := t.muxes[addr]; mc != nil && !mc.isClosed() {
		t.mu.Unlock()
		return mc, false, nil
	}
	dl := t.dialing[addr]
	if dl == nil {
		dl = &sync.Mutex{}
		t.dialing[addr] = dl
	}
	t.mu.Unlock()

	dl.Lock()
	defer dl.Unlock()
	// Someone else may have dialed while we waited for the lock.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %s", ErrClosed, t.addr)
	}
	if mc := t.muxes[addr]; mc != nil && !mc.isClosed() {
		t.mu.Unlock()
		return mc, false, nil
	}
	t.mu.Unlock()

	conn, derr := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if derr != nil {
		return nil, false, fmt.Errorf("%w: dial %s: %v", ErrUnreachable, addr, derr)
	}
	mc = newMuxConn(t, addr, conn)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, false, fmt.Errorf("%w: %s", ErrClosed, t.addr)
	}
	if t.dialed[addr] {
		t.stats.reconnects.Add(1)
	}
	t.dialed[addr] = true
	t.muxes[addr] = mc
	t.wg.Add(2)
	t.mu.Unlock()
	go mc.writeLoop()
	go mc.readLoop()
	return mc, true, nil
}

// Call implements Transport.
func (t *TCPTransport) Call(addr, msgType string, payload []byte) ([]byte, error) {
	return t.CallOpts(addr, msgType, payload, CallOpts{})
}

// CallOpts implements Transport. A zero opts.Timeout means the transport's
// configured CallTimeout.
func (t *TCPTransport) CallOpts(addr, msgType string, payload []byte, opts CallOpts) ([]byte, error) {
	typ, err := typeByte(msgType)
	if err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = t.cfg.CallTimeout
	}
	t.stats.inFlight.Add(1)
	defer t.stats.inFlight.Add(-1)
	//clashvet:ignore clockcheck RTT of a real socket call is wall-clock by definition
	start := time.Now()
	mc, fresh, err := t.getMux(addr)
	if err != nil {
		return nil, err
	}
	reply, err := mc.call(typ, payload, timeout)
	if errors.Is(err, errMuxClosed) && !fresh {
		// The shared connection died before our frame was written (e.g. the
		// peer's idle reaper closed it); the request never made it out, so
		// one retry on a fresh connection is safe even for non-idempotent
		// messages.
		mc, _, derr := t.getMux(addr)
		if derr != nil {
			return nil, derr
		}
		reply, err = mc.call(typ, payload, timeout)
	}
	if err != nil {
		switch {
		case IsRemote(err),
			errors.Is(err, ErrFrameTooLarge),
			errors.Is(err, ErrDeadline),
			errors.Is(err, ErrShed):
			return nil, err
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	if opts.RTT != nil {
		//clashvet:ignore clockcheck RTT of a real socket call is wall-clock by definition
		*opts.RTT = time.Since(start)
	}
	return reply, nil
}
