package overlay

import (
	"testing"

	"clash/internal/core"
	"clash/internal/wirecodec"
)

// Benchmark fixtures: a representative ACCEPT_OBJECT (the hot-path message),
// its reply, and a 64-object batch.
func benchAcceptObject() core.AcceptObjectMsg {
	return core.AcceptObjectMsg{
		KeyValue: 0xABCDE,
		KeyBits:  24,
		Depth:    7,
		Kind:     core.ObjectData,
		Payload:  []byte(`{"speed":88.5,"heading":271}`),
	}
}

func benchReply() core.AcceptObjectReplyMsg {
	return core.AcceptObjectReplyMsg{
		Status:       core.StatusOK,
		GroupValue:   0b1010101,
		GroupBits:    7,
		CorrectDepth: 7,
		Matches:      []string{"q-17", "q-23"},
	}
}

func benchBatch(n int) core.AcceptBatchMsg {
	m := core.AcceptBatchMsg{Objects: make([]core.AcceptObjectMsg, n)}
	for i := range m.Objects {
		o := benchAcceptObject()
		o.KeyValue = uint64(i) << 4
		m.Objects[i] = o
	}
	return m
}

// BenchmarkWireCodecMarshal measures the binary encode path (steady-state:
// pooled buffer, zero allocations).
func BenchmarkWireCodecMarshal(b *testing.B) {
	msg := benchAcceptObject()
	buf := wirecodec.GetBuf()
	defer wirecodec.PutBuf(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = msg.MarshalWire(buf[:0])
	}
	_ = buf
}

func BenchmarkWireCodecUnmarshal(b *testing.B) {
	msg := benchAcceptObject()
	data := msg.MarshalWire(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got core.AcceptObjectMsg
		if err := got.UnmarshalWire(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireCodecReplyMarshal(b *testing.B) {
	msg := benchReply()
	buf := wirecodec.GetBuf()
	defer wirecodec.PutBuf(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = msg.MarshalWire(buf[:0])
	}
	_ = buf
}

func BenchmarkWireCodecBatchMarshal64(b *testing.B) {
	msg := benchBatch(64)
	buf := wirecodec.GetBuf()
	defer wirecodec.PutBuf(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = msg.MarshalWire(buf[:0])
	}
	_ = buf
}

// BenchmarkWireFrameEncode measures framing alone (header + payload copy into
// a pooled buffer).
func BenchmarkWireFrameEncode(b *testing.B) {
	obj := benchAcceptObject()
	payload := obj.MarshalWire(nil)
	buf := wirecodec.GetBuf()
	defer wirecodec.PutBuf(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = appendFrame(buf[:0], uint64(i), typeAcceptObject, payload)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = buf
}

// TestWireCodecEncodeAllocFree pins the zero-allocation claim the benchmarks
// report, so a regression fails tests and not just the snapshot.
func TestWireCodecEncodeAllocFree(t *testing.T) {
	msg := benchAcceptObject()
	rep := benchReply()
	buf := wirecodec.GetBuf()
	defer wirecodec.PutBuf(buf)
	allocs := testing.AllocsPerRun(200, func() {
		buf = msg.MarshalWire(buf[:0])
		buf = rep.MarshalWire(buf)
	})
	if allocs != 0 {
		t.Errorf("steady-state encode allocations = %v, want 0", allocs)
	}
}
