package overlay

import "testing"

// TestSpanStage pins the span-to-stage mapping behind the per-stage latency
// histograms: landed probes are route, every INCORRECT_DEPTH probe is
// resolve (an ingress one included), the engine match is match, a subscriber
// push is deliver, and replica pushes feed no stage.
func TestSpanStage(t *testing.T) {
	for _, tc := range []struct {
		name string
		span Span
		want string
	}{
		{"landed ingress", Span{Kind: HopIngress, Detail: "group=01*"}, "route"},
		{"redirected ingress", Span{Kind: HopIngress, Detail: "dmin=4"}, "resolve"},
		{"route-forward", Span{Kind: HopRouteForward, Detail: "group=0110*"}, "route"},
		{"resolve", Span{Kind: HopResolve, Detail: "dmin=6"}, "resolve"},
		{"cq-match", Span{Kind: HopCQMatch, Detail: "matches=2"}, "match"},
		{"subscriber-deliver", Span{Kind: HopDeliver, Detail: "query=q-1"}, "deliver"},
		{"replica-push", Span{Kind: HopReplicaPush}, ""},
	} {
		if got := tc.span.Stage(); got != tc.want {
			t.Errorf("%s: Stage() = %q, want %q", tc.name, got, tc.want)
		}
	}
}
