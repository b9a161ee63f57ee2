package main

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/core"
	"clash/internal/overlay"
)

// spanKind says which boundary a span was timed at.
type spanKind uint8

const (
	// kindPublish is one Client.Publish or Client.PublishBatch call.
	kindPublish spanKind = iota
	// kindRegister is one Client.Register call.
	kindRegister
	// kindCall is one outbound Transport.Call/CallOpts.
	kindCall
	// kindHandle is one run of the Handler installed through SetHandler.
	kindHandle
)

var kindNames = [...]string{"publish", "register", "call", "handle"}

// Span sides: the client's endpoint is side 0, node i is side i+1.
const sideClient = 0

// span is one timed interval. Spans of one request share req: a call and the
// handle it caused hash the same frame payload. parent links a call to the
// publish or register span of the caller that issued it.
type span struct {
	id, parent, req uint64
	start, end      int64 // ns since the recorder's origin
	bytes           uint32
	kind            spanKind
	side            uint8
	typ             uint8 // index into msgTypes
}

func (s span) dur() int64 { return s.end - s.start }

// msgTypes lists the overlay's wire message types; a span stores its index.
var msgTypes = overlay.MessageTypes()

var msgTypeIndex = func() map[string]uint8 {
	m := make(map[string]uint8, len(msgTypes))
	for i, t := range msgTypes {
		m[t] = uint8(i)
	}
	return m
}()

// shortType drops the protocol family ("clash.", "chord.") from a type name.
func shortType(t string) string {
	for i := 0; i < len(t); i++ {
		if t[i] == '.' {
			return t[i+1:]
		}
	}
	return t
}

// Caller slots: closed-loop caller i marks its open publish span in slot i;
// registrations use registerSlot.
const (
	maxCallers   = 64
	registerSlot = maxCallers
)

// captureLimit bounds how many frames of each captured type a traced run
// keeps for the layer replay.
const captureLimit = 20000

// recorder keeps the spans of a traced run in memory. Recording is switched
// on only around the traced phase (and the set-up it measures), so the same
// wrapped transports cost one atomic load per call while it is off.
type recorder struct {
	origin time.Time
	seed   maphash.Seed
	on     atomic.Bool
	ids    atomic.Uint64
	open   [maxCallers + 1]atomic.Uint64

	inflight, inflightMax atomic.Int64

	mu    sync.Mutex
	spans []span

	capMu    sync.Mutex
	captured map[string][][]byte
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), seed: maphash.MakeSeed(), captured: make(map[string][][]byte)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// begin opens a publish or register span for a caller slot; the calls the
// caller makes until end are parented under it.
func (r *recorder) begin(slot int) (id uint64, start int64) {
	if !r.on.Load() {
		return 0, 0
	}
	id = r.ids.Add(1)
	r.open[slot].Store(id)
	return id, r.now()
}

func (r *recorder) end(slot int, kind spanKind, id uint64, start int64) {
	if id == 0 {
		return
	}
	r.open[slot].Store(0)
	r.add(span{id: id, start: start, end: r.now(), kind: kind})
}

// snapshot returns the spans and captured frames recorded so far. Calls
// still finishing may append after it returns; the returned slices do not
// see them.
func (r *recorder) snapshot() ([]span, map[string][][]byte) {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	r.capMu.Lock()
	defer r.capMu.Unlock()
	captured := make(map[string][][]byte, len(r.captured))
	for k, v := range r.captured {
		captured[k] = v
	}
	return spans, captured
}

// capture keeps a copy of a frame payload for the layer replay.
func (r *recorder) capture(key string, payload []byte) {
	r.capMu.Lock()
	if len(r.captured[key]) < captureLimit {
		r.captured[key] = append(r.captured[key], append([]byte(nil), payload...))
	}
	r.capMu.Unlock()
}

// parentOf finds the caller slot whose publish or register issued a request
// by decoding the public ACCEPT_OBJECT / ACCEPT_BATCH body: registrations
// carry a query, data packets end with the benchmark's sequence number, which
// names the caller. data reports a data-packet request. Other message types
// have no parent.
func (r *recorder) parentOf(msgType string, payload []byte) (parent uint64, data bool) {
	var obj core.AcceptObjectMsg
	switch msgType {
	case overlay.TypeAcceptObject:
		if obj.UnmarshalWire(payload) != nil {
			return 0, false
		}
	case overlay.TypeAcceptBatch:
		var b core.AcceptBatchMsg
		if b.UnmarshalWire(payload) != nil || len(b.Objects) == 0 {
			return 0, false
		}
		obj = b.Objects[0]
	default:
		return 0, false
	}
	if obj.Kind == core.ObjectQuery {
		return r.open[registerSlot].Load(), false
	}
	seq, ok := seqFromData(obj.Payload)
	if !ok {
		return 0, false
	}
	return r.open[seqCaller(seq)].Load(), true
}

// seqFromData extracts the sequence number from an encoded data packet: the
// benchmark's 16-byte payload is the last field of the encoding.
func seqFromData(data []byte) (uint64, bool) {
	if len(data) < payloadLen {
		return 0, false
	}
	seq := binary.LittleEndian.Uint64(data[len(data)-payloadLen:])
	return seq, seq>>56 == seqMagic
}

// tracedTransport decorates an overlay.Transport with span recording. It
// times every Call/CallOpts by message type and the Handler its owner
// installs, and forwards RetryRecorder so the resilient caller's retries
// still land in the wrapped transport's stats.
type tracedTransport struct {
	inner overlay.Transport
	rec   *recorder
	side  uint8
}

var (
	_ overlay.Transport     = (*tracedTransport)(nil)
	_ overlay.RetryRecorder = (*tracedTransport)(nil)
)

func (r *recorder) wrap(tr overlay.Transport, side int) overlay.Transport {
	return &tracedTransport{inner: tr, rec: r, side: uint8(side)}
}

func (t *tracedTransport) Addr() string                  { return t.inner.Addr() }
func (t *tracedTransport) Stats() overlay.TransportStats { return t.inner.Stats() }
func (t *tracedTransport) Close() error                  { return t.inner.Close() }

func (t *tracedTransport) RecordRetry() {
	if rr, ok := t.inner.(overlay.RetryRecorder); ok {
		rr.RecordRetry()
	}
}

func (t *tracedTransport) SetHandler(h overlay.Handler) {
	if h == nil {
		t.inner.SetHandler(nil)
		return
	}
	t.inner.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		if !t.rec.on.Load() {
			return h(msgType, payload)
		}
		req := maphash.Bytes(t.rec.seed, payload)
		start := t.rec.now()
		reply, err := h(msgType, payload)
		t.rec.add(span{
			id: t.rec.ids.Add(1), req: req, start: start, end: t.rec.now(),
			bytes: uint32(len(payload)), kind: kindHandle, side: t.side, typ: msgTypeIndex[msgType],
		})
		return reply, err
	})
}

func (t *tracedTransport) Call(addr, msgType string, payload []byte) ([]byte, error) {
	if !t.rec.on.Load() {
		return t.inner.Call(addr, msgType, payload)
	}
	return t.timed(msgType, payload, func() ([]byte, error) { return t.inner.Call(addr, msgType, payload) })
}

func (t *tracedTransport) CallOpts(addr, msgType string, payload []byte, opts overlay.CallOpts) ([]byte, error) {
	if !t.rec.on.Load() {
		return t.inner.CallOpts(addr, msgType, payload, opts)
	}
	return t.timed(msgType, payload, func() ([]byte, error) { return t.inner.CallOpts(addr, msgType, payload, opts) })
}

func (t *tracedTransport) timed(msgType string, payload []byte, call func() ([]byte, error)) ([]byte, error) {
	r := t.rec
	parent, data := r.parentOf(msgType, payload)
	req := maphash.Bytes(r.seed, payload)
	captureKey := ""
	if t.side == sideClient && data {
		captureKey = msgType
		r.capture(captureKey, payload)
	}
	n := r.inflight.Add(1)
	for m := r.inflightMax.Load(); n > m && !r.inflightMax.CompareAndSwap(m, n); m = r.inflightMax.Load() {
	}
	start := r.now()
	reply, err := call()
	end := r.now()
	r.inflight.Add(-1)
	if captureKey != "" && err == nil {
		r.capture(captureKey+".reply", reply)
	}
	r.add(span{
		id: r.ids.Add(1), parent: parent, req: req, start: start, end: end,
		bytes: uint32(len(payload)), kind: kindCall, side: t.side, typ: msgTypeIndex[msgType],
	})
	return reply, err
}

// writeSpans writes every span as one gzip-compressed CSV row.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,req,kind,side,type,start_ns,end_ns,bytes")
	for _, s := range spans {
		typ := ""
		if s.kind == kindCall || s.kind == kindHandle {
			typ = msgTypes[s.typ]
		}
		fmt.Fprintf(w, "%d,%d,%x,%s,%d,%s,%d,%d,%d\n", s.id, s.parent, s.req, kindNames[s.kind], s.side, typ, s.start, s.end, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
