package hub

import (
	"sync"

	"clash/internal/metrics"
	"clash/internal/overlay"
)

// spansCapacity bounds the hop-span ring served by /traces/spans (one
// sampled publish yields a handful of spans across its path).
const spansCapacity = 2048

// Traces stores the hop spans of sampled publishes: a bounded ring of the
// most recent spans plus per-stage latency histograms derived from them
// (Span.Stage). It implements overlay.Observer (events are ignored) so it can
// also be installed standalone — clashload attaches one directly to its
// in-process nodes to report a per-stage latency summary without running a
// hub.
type Traces struct {
	// hist is the Prometheus view of the per-stage latencies (seconds);
	// absent when constructed without a registry.
	hist  metrics.HistogramVec
	bound bool

	mu     sync.Mutex
	stages map[string]*metrics.LatencyHist
	ring   []overlay.Span
	next   int
	full   bool
	count  uint64
}

// NewTraces creates an empty trace store. With a non-nil registry, the
// stage latencies also feed the clash_trace_stage_seconds histogram family.
func NewTraces(reg *metrics.Registry) *Traces {
	t := &Traces{
		stages: make(map[string]*metrics.LatencyHist),
		ring:   make([]overlay.Span, spansCapacity),
	}
	if reg != nil {
		t.hist = reg.HistogramVec("clash_trace_stage_seconds",
			"Per-stage latency of sampled publish requests.",
			metrics.ExpBuckets(1e-6, 4, 11), "stage")
		t.bound = true
	}
	return t
}

// OnEvent implements overlay.Observer; Traces ignores protocol events.
func (t *Traces) OnEvent(overlay.Event) {}

// OnSpan stores one hop span of a sampled publish's cross-node path and,
// when the span maps to a stage, records its latency: the handler time, or
// the network round trip for a subscriber push.
func (t *Traces) OnSpan(sp overlay.Span) {
	stage := sp.Stage()
	micros := sp.HandlerMicros
	if sp.Kind == overlay.HopDeliver {
		micros = sp.NetworkMicros
	}
	t.mu.Lock()
	t.ring[t.next] = sp
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.count++
	if stage != "" {
		h := t.stages[stage]
		if h == nil {
			h = metrics.NewLatencyHist()
			t.stages[stage] = h
		}
		h.Record(micros)
	}
	t.mu.Unlock()
	if stage != "" && t.bound {
		t.hist.With(stage).Observe(float64(micros) / 1e6)
	}
}

// SpanSample is the /traces/spans document: this node's retained hop spans,
// optionally filtered to one trace.
type SpanSample struct {
	// Count is the total number of spans observed (not just retained).
	Count uint64 `json:"count"`
	// TraceID echoes the filter (0: unfiltered).
	TraceID uint64         `json:"traceId,omitempty"`
	Spans   []overlay.Span `json:"spans"`
}

// Spans snapshots the span ring. With a non-zero traceID only that trace's
// spans return, in recording order (the order a tree assembler wants);
// unfiltered, up to limit spans return newest first (<= 0: all retained).
func (t *Traces) Spans(traceID uint64, limit int) SpanSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	s := SpanSample{Count: t.count, TraceID: traceID}
	if traceID != 0 {
		// Oldest first: start at the oldest retained write.
		for i := 0; i < n; i++ {
			idx := i
			if t.full {
				idx = (t.next + i) % len(t.ring)
			}
			if t.ring[idx].TraceID == traceID {
				s.Spans = append(s.Spans, t.ring[idx])
			}
		}
		return s
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	s.Spans = make([]overlay.Span, 0, limit)
	for i := 0; i < limit; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		s.Spans = append(s.Spans, t.ring[idx])
	}
	return s
}

// SpanCount returns the total number of spans observed.
func (t *Traces) SpanCount() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// StageSummaries returns the per-stage latency summaries (microseconds).
func (t *Traces) StageSummaries() map[string]metrics.Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]metrics.Summary, len(t.stages))
	for stage, h := range t.stages {
		out[stage] = h.Summary()
	}
	return out
}
