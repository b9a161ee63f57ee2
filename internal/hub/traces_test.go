package hub

import (
	"bytes"
	"strings"
	"testing"

	"clash/internal/metrics"
	"clash/internal/overlay"
)

// TestTracesStagesFromSpans feeds a Traces store the spans of one sampled
// publish and checks the per-stage histograms it derives: each stage counts
// its spans, a deliver span contributes its network round trip and every
// other stage its handler time, and replica pushes feed no stage.
func TestTracesStagesFromSpans(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewTraces(reg)
	for _, sp := range []overlay.Span{
		{Kind: overlay.HopIngress, Detail: "dmin=3", HandlerMicros: 4},
		{Kind: overlay.HopResolve, Detail: "dmin=5", HandlerMicros: 6},
		{Kind: overlay.HopRouteForward, Detail: "group=0101*", HandlerMicros: 10},
		{Kind: overlay.HopIngress, Detail: "group=11*", HandlerMicros: 10},
		{Kind: overlay.HopCQMatch, Detail: "matches=1", HandlerMicros: 20},
		{Kind: overlay.HopDeliver, HandlerMicros: 1, NetworkMicros: 300},
		{Kind: overlay.HopReplicaPush, HandlerMicros: 50},
	} {
		tr.OnSpan(sp)
	}

	if got := tr.SpanCount(); got != 7 {
		t.Errorf("SpanCount = %d, want 7", got)
	}
	sums := tr.StageSummaries()
	want := map[string]struct {
		count int
		max   float64
	}{
		"route":   {2, 10},
		"resolve": {2, 6},
		"match":   {1, 20},
		"deliver": {1, 300},
	}
	if len(sums) != len(want) {
		t.Errorf("stages = %v, want %d stages", sums, len(want))
	}
	for stage, w := range want {
		s := sums[stage]
		if s.Count != w.count || s.Max != w.max {
			t.Errorf("stage %s: count=%d max=%g, want count=%d max=%g", stage, s.Count, s.Max, w.count, w.max)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, line := range []string{
		`clash_trace_stage_seconds_count{stage="route"} 2`,
		`clash_trace_stage_seconds_count{stage="resolve"} 2`,
		`clash_trace_stage_seconds_count{stage="match"} 1`,
		`clash_trace_stage_seconds_count{stage="deliver"} 1`,
		// The deliver stage observes the 300µs round trip, not the handler.
		`clash_trace_stage_seconds_bucket{stage="deliver",le="0.000256"} 0`,
		`clash_trace_stage_seconds_bucket{stage="deliver",le="0.001024"} 1`,
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("/metrics missing %q in:\n%s", line, body)
		}
	}
	if strings.Contains(body, `stage=""`) {
		t.Error("a span without a stage reached the histogram")
	}
	for _, lintErr := range metrics.LintPrometheus(strings.NewReader(body)) {
		t.Errorf("promlint: %v", lintErr)
	}
}
