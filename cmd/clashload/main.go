// Command clashload drives synthetic workload traffic (internal/workload
// A/B/C) against a CLASH overlay from many concurrent connections and reports
// throughput and latency percentiles.
//
// Against a running overlay (see cmd/clashd):
//
//	clashload -connect 127.0.0.1:7001 -conns 8 -packets 100000 -workload B
//
// Self-contained smoke mode — boot an N-node overlay on the in-memory
// transport inside this process and drive it (used by CI and for the
// checked-in BENCH_overlay.json snapshot):
//
//	clashload -inproc 3 -packets 10000 -workload B -out BENCH_overlay.json
//
// -seed sets the root PRNG seed threaded through every workload generator
// clone and the in-process nodes' maintenance jitter, so two inproc runs with
// the same seed behave identically. -latency/-loss put a network link model
// (internal/sim/link) under the in-memory fabric, so inproc smoke runs stop
// being a zero-RTT fantasy.
//
// With -batch N every worker ships its packets in N-object ACCEPT_BATCH
// frames through Client.PublishBatch instead of one frame per packet.
//
// -trace-compare measures the observability tax: after the main drive it
// repeats the same packet count once with tracing off and once with every
// publish carrying a trace ID (worst-case sampling), and records both
// throughputs in the snapshot's trace_overhead section.
//
// Call latency is recorded in an HDR-style bucketed histogram
// (metrics.LatencyHist — no per-call allocation), so the reported p50/p95/p99
// stay exact-shaped at millions of packets. Every connection draws keys from
// its own workload.KeyGenerator clone, so the sources are independent
// streams rather than one shared PRNG.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/cq"
	"clash/internal/hub"
	"clash/internal/load"
	"clash/internal/metrics"
	"clash/internal/overlay"
	"clash/internal/sim/link"
	"clash/internal/workload"
)

type benchConfig struct {
	Mode     string `json:"mode"`
	Nodes    int    `json:"nodes,omitempty"`
	Seeds    string `json:"seeds,omitempty"`
	Conns    int    `json:"conns"`
	Packets  int    `json:"packets"`
	Batch    int    `json:"batch,omitempty"`
	Queries  int    `json:"queries"`
	Workload string `json:"workload"`
	KeyBits  int    `json:"key_bits"`
	MaxProcs int    `json:"go_max_procs"`
	NumCPU   int    `json:"num_cpu"`
}

// scalingPoint is one GOMAXPROCS setting's end-to-end drive measurement
// (client publish through transport, routing and CQ match, back).
type scalingPoint struct {
	Procs         int     `json:"procs"`
	ThroughputPPS float64 `json:"throughput_pps"`
	P99US         float64 `json:"p99_us"`
	SpeedupVs1    float64 `json:"speedup_vs_first,omitempty"`
}

type nodeSnapshot struct {
	Addr         string   `json:"addr"`
	ActiveGroups []string `json:"active_groups"`
	Splits       int      `json:"splits"`
	Merges       int      `json:"merges"`
	Accepted     int      `json:"groups_accepted"`
	Released     int      `json:"groups_released"`
}

type benchResults struct {
	PacketsOK       int                    `json:"packets_ok"`
	Errors          int                    `json:"errors"`
	ElapsedSeconds  float64                `json:"elapsed_seconds"`
	ThroughputPPS   float64                `json:"throughput_pps"`
	LatencyUS       metrics.Summary        `json:"latency_us"`
	ProbesPerPacket float64                `json:"probes_per_packet"`
	MatchesInline   int64                  `json:"matches_inline"`
	MatchesPushed   int64                  `json:"matches_pushed"`
	Transport       overlay.TransportStats `json:"transport"`
	Nodes           []nodeSnapshot         `json:"overlay,omitempty"`
}

// traceOverhead compares the same drive at three sampling rates: tracing off
// (the baseline the hot path must not regress — untraced requests skip every
// span branch), the production sampling rate (one publish in SampledEvery
// carries a trace ID), and every publish sampled (worst case: each hop on the
// path records a span, and its stage histogram sample, for each packet).
// Each mode keeps its best throughput over Rounds alternating rounds, which
// filters scheduler and GC noise that would otherwise dwarf the effect on
// sub-second drives.
type traceOverhead struct {
	Rounds        int     `json:"rounds"`
	UntracedPPS   float64 `json:"untraced_pps"`
	UntracedP99US float64 `json:"untraced_p99_us"`
	// Sampled is the realistic operating point (clashsim's split-merge
	// scenario samples at the same rate).
	SampledEvery       int     `json:"sampled_every"`
	SampledPPS         float64 `json:"sampled_pps"`
	SampledOverheadPct float64 `json:"sampled_overhead_pct"`
	// Traced stamps every publish. OverheadPct is
	// (untraced - traced) / untraced throughput in percent; negative values
	// mean the traced run happened to measure faster (noise).
	TracedPPS   float64 `json:"traced_pps"`
	TracedP99US float64 `json:"traced_p99_us"`
	OverheadPct float64 `json:"overhead_pct"`
}

type benchOut struct {
	Config        benchConfig    `json:"config"`
	GoVersion     string         `json:"go_version"`
	Results       benchResults   `json:"results"`
	Scaling       []scalingPoint `json:"scaling,omitempty"`
	TraceOverhead *traceOverhead `json:"trace_overhead,omitempty"`
}

func main() {
	var (
		seedAddrs = flag.String("connect", "", "comma-separated overlay node addresses to connect to")
		inproc    = flag.Int("inproc", 0, "boot an N-node in-process overlay instead of connecting out")
		conns     = flag.Int("conns", 8, "concurrent connections (each with its own key-generator clone)")
		packets   = flag.Int("packets", 10000, "total data packets to publish")
		batch     = flag.Int("batch", 0, "publish in N-packet ACCEPT_BATCH frames (0 = one frame per packet)")
		queries   = flag.Int("queries", 16, "continuous queries to register before driving traffic")
		kindFlag  = flag.String("workload", "B", "workload kind: A, B or C")
		keyBits   = flag.Int("keybits", workload.DefaultKeyBits, "identifier key length N")
		capacity  = flag.Float64("capacity", 5000, "per-node capacity (inproc mode)")
		streamLen = flag.Float64("stream-len", 0, "mean virtual-stream length Ld in packets (0 = the paper's 1000)")
		latency   = flag.Duration("latency", 0, "mean one-way link latency injected under -inproc (0 disables)")
		loss      = flag.Float64("loss", 0, "per-message loss probability injected under -inproc")
		replicas  = flag.Int("replicas", 0, "key-group replication factor under -inproc (0 = default 2, negative disables)")
		out       = flag.String("out", "", "write a JSON benchmark snapshot to this file")
		procs     = flag.String("procs", "", "comma-separated GOMAXPROCS values: drive the workload once per value and record the scaling curve (last value's run fills the detailed results)")
		metricsAd = flag.String("metrics-addr", "", "serve the driver's Prometheus metrics at this HTTP address during the run")
		traceEv   = flag.Int("trace-every", 0, "sample every Nth published packet with a request trace (0 disables)")
		traceCmp  = flag.Bool("trace-compare", false, "after the main drive, measure trace-sampling overhead: repeat the drive once untraced and once with every publish traced, and record both (trace_overhead in the -out snapshot)")
		dialTO    = flag.Duration("dial-timeout", 0, "TCP connect timeout for outbound connections (0 = default 3s; TCP mode only)")
		callTO    = flag.Duration("call-timeout", 0, "per-call reply deadline (0 = default 10s; TCP mode only)")
		idleTO    = flag.Duration("idle-timeout", 0, "idle time before pooled connections close (0 = default 5m; TCP mode only)")
	)
	var randSeed int64
	flag.Int64Var(&randSeed, "seed", 1, "root PRNG seed: workload generator clones + inproc maintenance jitter")
	flag.Int64Var(&randSeed, "rand-seed", 1, "deprecated alias for -seed")
	flag.Parse()
	tcpCfg := overlay.TCPConfig{DialTimeout: *dialTO, CallTimeout: *callTO, IdleTimeout: *idleTO}
	if err := run(*seedAddrs, *inproc, *conns, *packets, *batch, *queries, *kindFlag, *keyBits, *capacity, *streamLen, *latency, *loss, *replicas, randSeed, *out, *metricsAd, *traceEv, *traceCmp, *procs, tcpCfg); err != nil {
		fmt.Fprintln(os.Stderr, "clashload:", err)
		os.Exit(1)
	}
}

func parseKind(s string) (workload.Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "A":
		return workload.WorkloadA, nil
	case "B":
		return workload.WorkloadB, nil
	case "C":
		return workload.WorkloadC, nil
	default:
		return 0, fmt.Errorf("unknown workload %q (want A, B or C)", s)
	}
}

// parseProcs parses the -procs list ("1,2,4"); empty means "run once at the
// current GOMAXPROCS".
func parseProcs(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var procs []int
	for _, part := range strings.Split(spec, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad -procs entry %q", part)
		}
		procs = append(procs, p)
	}
	return procs, nil
}

func run(seedAddrs string, inproc, conns, packets, batch, queries int, kindFlag string, keyBits int, capacity, streamLen float64, latency time.Duration, loss float64, replicas int, randSeed int64, out, metricsAddr string, traceEvery int, traceCompare bool, procsSpec string, tcpCfg overlay.TCPConfig) error {
	kind, err := parseKind(kindFlag)
	if err != nil {
		return err
	}
	procList, err := parseProcs(procsSpec)
	if err != nil {
		return err
	}
	spec := workload.SpecFor(kind)
	spec.KeyBits = keyBits
	if spec.BaseBits >= keyBits {
		spec.BaseBits = keyBits / 2
	}
	if streamLen > 0 {
		spec.MeanStreamLen = streamLen
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if conns < 1 {
		conns = 1
	}
	if (latency > 0 || loss > 0) && inproc <= 0 {
		return fmt.Errorf("-latency/-loss model the in-memory fabric and need -inproc N")
	}

	if batch < 0 {
		batch = 0
	}
	cfg := benchConfig{
		Conns:    conns,
		Packets:  packets,
		Batch:    batch,
		Queries:  queries,
		Workload: kind.String(),
		KeyBits:  keyBits,
		MaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:   runtime.NumCPU(),
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		clientTr overlay.Transport
		seeds    []string
		nodes    []*overlay.Node
	)
	space := chord.DefaultSpace()
	if inproc > 0 {
		cfg.Mode = "inproc"
		cfg.Nodes = inproc
		netw := overlay.NewMemNetwork(overlay.WallClock(), rand.New(rand.NewSource(randSeed)))
		nodes, err = bootInproc(ctx, netw, inproc, keyBits, space, capacity, randSeed, replicas)
		if err != nil {
			return err
		}
		// Engage the link model after boot (the measurement run starts from
		// a converged overlay; the simulator does the same).
		if latency > 0 || loss > 0 {
			if err := netw.SetLink(link.WAN(latency, loss)); err != nil {
				return err
			}
		}
		for _, n := range nodes {
			seeds = append(seeds, n.Addr())
		}
		clientTr = netw.Endpoint("clashload-client")
	} else {
		cfg.Mode = "tcp"
		cfg.Seeds = seedAddrs
		seeds = strings.Split(seedAddrs, ",")
		for i := range seeds {
			seeds[i] = strings.TrimSpace(seeds[i])
		}
		if len(seeds) == 0 || seeds[0] == "" {
			return fmt.Errorf("need -connect addresses or -inproc N")
		}
		clientTr, err = overlay.ListenTCPConfig("127.0.0.1:0", tcpCfg)
		if err != nil {
			return err
		}
	}

	client, err := overlay.NewClient(clientTr, keyBits, space, seeds...)
	if err != nil {
		return err
	}
	defer client.Close()

	// Observability: -metrics-addr serves the driver's own registry (client
	// transport counters plus, under -trace-every, the per-stage trace
	// histograms); -trace-every stamps every Nth publish with a trace id. In
	// inproc mode the trace store doubles as the nodes' observer, so the
	// server-side stage timings land in this process; in TCP mode they land
	// on the serving nodes' hubs instead.
	var reg *metrics.Registry
	if metricsAddr != "" {
		reg = metrics.NewRegistry()
		frames := reg.CounterVec("clashload_transport_frames_total", "Client wire frames by direction.", "dir")
		bytes := reg.CounterVec("clashload_transport_bytes_total", "Client wire bytes by direction.", "dir")
		inFlight := reg.Gauge("clashload_transport_in_flight", "Client calls awaiting a reply.")
		reg.OnCollect(func() {
			ts := clientTr.Stats()
			frames.With("in").Set(ts.FramesIn)
			frames.With("out").Set(ts.FramesOut)
			bytes.With("in").Set(ts.BytesIn)
			bytes.With("out").Set(ts.BytesOut)
			inFlight.Set(float64(ts.InFlight))
		})
		msrv := &http.Server{Addr: metricsAddr, Handler: reg, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "clashload: metrics server:", err)
			}
		}()
		defer msrv.Close()
		fmt.Printf("clashload: metrics at http://%s/metrics\n", metricsAddr)
	}
	var traces *hub.Traces
	if traceEvery > 0 {
		client.SetTraceEvery(traceEvery)
		traces = hub.NewTraces(reg)
		for _, n := range nodes {
			n.SetObserver(traces)
		}
	}

	// Count pushed match notifications in the background.
	var pushed int64
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-client.Matches():
				atomic.AddInt64(&pushed, 1)
			}
		}
	}()

	// Register continuous queries over skew-weighted base regions.
	qgen, err := workload.NewKeyGenerator(spec, rand.New(rand.NewSource(randSeed)))
	if err != nil {
		return err
	}
	registered := 0
	for i := 0; i < queries; i++ {
		region := bitkey.NewGroup(bitkey.Key{Value: uint64(qgen.NextBase()), Bits: spec.BaseBits})
		q := cq.Query{
			ID:         fmt.Sprintf("q-%d", i),
			Region:     region,
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
		}
		if _, err := client.Register(q); err == nil {
			registered++
		}
	}

	// Drive the packets from conns independent workers, each with its own
	// generator clone (per-source PRNG streams) and its own latency
	// histogram (merged at the end; Record never allocates).
	type workerResult struct {
		hist    *metrics.LatencyHist
		ok      int
		errs    int
		probes  int
		matches int64
	}
	drive := func() (workerResult, *metrics.LatencyHist, time.Duration) {
		results := make([]workerResult, conns)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < conns; w++ {
			per := packets / conns
			if w < packets%conns {
				per++
			}
			wg.Add(1)
			go func(w, per int) {
				defer wg.Done()
				gen := qgen.Clone(randSeed + int64(w) + 1)
				attrRng := rand.New(rand.NewSource(randSeed + int64(w) + 1000))
				res := &results[w]
				res.hist = metrics.NewLatencyHist()
				var key bitkey.Key
				streamLeft := 0
				var pending []overlay.BatchItem
				flush := func() {
					if len(pending) == 0 {
						return
					}
					t0 := time.Now()
					prs, errs := client.PublishBatch(pending)
					// One histogram sample per batch frame: the latency a
					// batched producer observes per flush.
					res.hist.Record(time.Since(t0).Microseconds())
					for i := range pending {
						if errs[i] != nil {
							res.errs++
							continue
						}
						res.ok++
						res.probes += prs[i].Probes
						res.matches += int64(len(prs[i].Matches))
					}
					pending = pending[:0]
				}
				for i := 0; i < per; i++ {
					if streamLeft == 0 {
						key = gen.Next()
						streamLeft = gen.NextStreamLength()
					}
					streamLeft--
					attrs := map[string]float64{"speed": attrRng.Float64() * 100}
					if batch > 0 {
						pending = append(pending, overlay.BatchItem{Key: key, Attrs: attrs})
						if len(pending) >= batch {
							flush()
						}
						continue
					}
					t0 := time.Now()
					pr, err := client.Publish(key, attrs, nil)
					if err != nil {
						res.errs++
						continue
					}
					res.hist.Record(time.Since(t0).Microseconds())
					res.ok++
					res.probes += pr.Probes
					res.matches += int64(len(pr.Matches))
				}
				flush()
			}(w, per)
		}
		wg.Wait()
		elapsed := time.Since(start)
		// Let async match pushes still in flight drain before reading the
		// counter.
		time.Sleep(200 * time.Millisecond)

		hist := metrics.NewLatencyHist()
		agg := workerResult{}
		for i := range results {
			r := &results[i]
			hist.Merge(r.hist)
			agg.ok += r.ok
			agg.errs += r.errs
			agg.probes += r.probes
			agg.matches += r.matches
		}
		return agg, hist, elapsed
	}

	// With -procs, the whole drive phase repeats once per GOMAXPROCS value
	// (same converged overlay, same per-worker generator seeds) and each run
	// contributes one scaling point; the last run fills the detailed results.
	var (
		scaling []scalingPoint
		agg     workerResult
		hist    *metrics.LatencyHist
		elapsed time.Duration
	)
	if len(procList) == 0 {
		agg, hist, elapsed = drive()
	} else {
		prev := runtime.GOMAXPROCS(0)
		for _, p := range procList {
			runtime.GOMAXPROCS(p)
			cfg.MaxProcs = p
			agg, hist, elapsed = drive()
			pt := scalingPoint{Procs: p, P99US: hist.Summary().P99}
			if elapsed > 0 {
				pt.ThroughputPPS = float64(agg.ok) / elapsed.Seconds()
			}
			if len(scaling) > 0 && scaling[0].ThroughputPPS > 0 {
				pt.SpeedupVs1 = pt.ThroughputPPS / scaling[0].ThroughputPPS
			}
			scaling = append(scaling, pt)
			fmt.Printf("clashload: procs=%d throughput=%.0f pkt/s p99=%.0fµs\n", p, pt.ThroughputPPS, pt.P99US)
		}
		runtime.GOMAXPROCS(prev)
	}

	res := benchResults{
		PacketsOK:      agg.ok,
		Errors:         agg.errs,
		ElapsedSeconds: elapsed.Seconds(),
		LatencyUS:      hist.Summary(),
		MatchesInline:  agg.matches,
		MatchesPushed:  atomic.LoadInt64(&pushed),
		Transport:      clientTr.Stats(),
	}
	if elapsed > 0 {
		res.ThroughputPPS = float64(agg.ok) / elapsed.Seconds()
	}
	if agg.ok > 0 {
		res.ProbesPerPacket = float64(agg.probes) / float64(agg.ok)
	}
	for _, n := range nodes {
		st := n.Status()
		res.Nodes = append(res.Nodes, nodeSnapshot{
			Addr:         st.Addr,
			ActiveGroups: st.ActiveGroups,
			Splits:       st.Counters.Splits,
			Merges:       st.Counters.Merges,
			Accepted:     st.Counters.GroupsAccepted,
			Released:     st.Counters.GroupsReleased,
		})
	}

	batchNote := ""
	if batch > 0 {
		batchNote = fmt.Sprintf(", batch %d", batch)
	}
	fmt.Printf("clashload: workload %s, %d conns, %d packets%s (%d queries registered)\n",
		kind, conns, packets, batchNote, registered)
	fmt.Printf("  ok=%d errors=%d elapsed=%.2fs throughput=%.0f pkt/s\n",
		res.PacketsOK, res.Errors, res.ElapsedSeconds, res.ThroughputPPS)
	fmt.Printf("  latency µs: p50=%.0f p95=%.0f p99=%.0f max=%.0f (mean %.0f)\n",
		res.LatencyUS.P50, res.LatencyUS.P95, res.LatencyUS.P99, res.LatencyUS.Max, res.LatencyUS.Mean)
	fmt.Printf("  probes/packet=%.3f matches inline=%d pushed=%d (dropped %d)\n",
		res.ProbesPerPacket, res.MatchesInline, res.MatchesPushed, client.Drops())
	ts := res.Transport
	fmt.Printf("  transport: frames in=%d out=%d bytes in=%d out=%d in-flight=%d reconnects=%d oversized=%d\n",
		ts.FramesIn, ts.FramesOut, ts.BytesIn, ts.BytesOut, ts.InFlight, ts.Reconnects, ts.OversizedDrops)
	fmt.Printf("  resilience: timeouts=%d retries=%d shed=%d\n", ts.Timeouts, ts.Retries, ts.Shed)
	if traces != nil {
		if stages := traces.StageSummaries(); len(stages) > 0 {
			var parts []string
			for _, st := range []string{"route", "resolve", "match", "deliver"} {
				if s, ok := stages[st]; ok {
					parts = append(parts, fmt.Sprintf("%s p50=%.0f p99=%.0f n=%d", st, s.P50, s.P99, s.Count))
				}
			}
			fmt.Printf("  trace stages µs: %s (%d spans)\n", strings.Join(parts, " | "), traces.SpanCount())
		} else if inproc <= 0 {
			fmt.Printf("  trace stages: derived from hop spans on the serving nodes' hubs (/metrics clash_trace_stage_seconds, /traces/spans)\n")
		}
	}
	for _, n := range res.Nodes {
		fmt.Printf("  node %s: groups=%d splits=%d merges=%d accepted=%d released=%d\n",
			n.Addr, len(n.ActiveGroups), n.Splits, n.Merges, n.Accepted, n.Released)
	}

	// -trace-compare: repeat the exact drive (same warmed overlay, same
	// per-worker generator seeds) at three sampling rates, alternating the
	// modes across rounds so slow phases of the box hit all of them alike;
	// each mode keeps its best round. The main drive above doubles as warmup.
	var tcmp *traceOverhead
	if traceCompare {
		if traces == nil {
			traces = hub.NewTraces(reg)
			for _, n := range nodes {
				n.SetObserver(traces)
			}
		}
		const cmpRounds = 3
		const sampledEvery = 16
		type modeBest struct {
			pps float64
			p99 float64
		}
		bests := map[int]modeBest{}
		for r := 0; r < cmpRounds; r++ {
			for _, every := range []int{0, sampledEvery, 1} {
				client.SetTraceEvery(every)
				a, h, el := drive()
				if a.ok == 0 || el <= 0 {
					client.SetTraceEvery(traceEvery)
					return fmt.Errorf("trace-compare drive (every=%d, round %d) delivered nothing (%d errors)", every, r, a.errs)
				}
				if pps := float64(a.ok) / el.Seconds(); pps > bests[every].pps {
					bests[every] = modeBest{pps: pps, p99: h.Summary().P99}
				}
			}
		}
		client.SetTraceEvery(traceEvery)
		tcmp = &traceOverhead{
			Rounds:        cmpRounds,
			UntracedPPS:   bests[0].pps,
			UntracedP99US: bests[0].p99,
			SampledEvery:  sampledEvery,
			SampledPPS:    bests[sampledEvery].pps,
			TracedPPS:     bests[1].pps,
			TracedP99US:   bests[1].p99,
		}
		tcmp.SampledOverheadPct = 100 * (tcmp.UntracedPPS - tcmp.SampledPPS) / tcmp.UntracedPPS
		tcmp.OverheadPct = 100 * (tcmp.UntracedPPS - tcmp.TracedPPS) / tcmp.UntracedPPS
		fmt.Printf("  trace overhead: untraced=%.0f pkt/s  every-%d=%.0f pkt/s (%+.1f%%)  every-publish=%.0f pkt/s (%+.1f%%; p99 %.0fµs → %.0fµs)\n",
			tcmp.UntracedPPS, sampledEvery, tcmp.SampledPPS, tcmp.SampledOverheadPct,
			tcmp.TracedPPS, tcmp.OverheadPct, tcmp.UntracedP99US, tcmp.TracedP99US)
	}

	cancel()
	for _, n := range nodes {
		_ = n.Close()
	}

	if out != "" {
		snapshot := benchOut{Config: cfg, GoVersion: runtime.Version(), Results: res, Scaling: scaling, TraceOverhead: tcmp}
		data, err := json.MarshalIndent(snapshot, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  snapshot written to %s\n", out)
	}
	// Fail loudly so CI smoke runs go red when the overlay stops serving.
	// With loss injected into the inproc fabric some failures are the point
	// of the exercise, but only in rough proportion to the injected loss —
	// a generous 20x-expectation bound keeps the gate meaningful against
	// unrelated regressions.
	if agg.ok == 0 {
		return fmt.Errorf("no packet was delivered (%d errors)", agg.errs)
	}
	allowedErrs := 0
	if inproc > 0 && loss > 0 {
		// Each publish crosses the link at least twice (request + reply).
		allowedErrs = int(20*loss*2*float64(packets)) + 10
	}
	if agg.errs > allowedErrs {
		return fmt.Errorf("%d of %d publishes failed (allowed %d at loss %g)",
			agg.errs, packets, allowedErrs, loss)
	}
	return nil
}

// bootInproc builds an N-node overlay on the in-memory fabric: node 0
// bootstraps the initial partition, the rest join, the ring is converged with
// explicit maintenance rounds, and every node's Run loop is started.
func bootInproc(ctx context.Context, netw *overlay.MemNetwork, n, keyBits int, space chord.Space, capacity float64, seed int64, replicas int) ([]*overlay.Node, error) {
	cfg := overlay.Config{
		KeyBits:           keyBits,
		Space:             space,
		Model:             load.DefaultModel(capacity),
		BootstrapDepth:    2,
		StabilizeInterval: 50 * time.Millisecond,
		LoadCheckInterval: 500 * time.Millisecond,
		Seed:              seed,
		ReplicationFactor: replicas,
	}
	nodes := make([]*overlay.Node, n)
	for i := range nodes {
		node, err := overlay.NewNode(netw.Endpoint(fmt.Sprintf("mem-node-%d", i)), cfg)
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	if err := nodes[0].BootstrapRoots(); err != nil {
		return nil, err
	}
	for _, node := range nodes[1:] {
		if err := node.Join(nodes[0].Addr()); err != nil {
			return nil, err
		}
	}
	// Converge the ring before traffic: enough Tick rounds for fingers and
	// successor lists, then two load checks to distribute the root groups.
	for r := 0; r < 3*space.Bits; r++ {
		for _, node := range nodes {
			node.Tick()
		}
	}
	for i := 0; i < 2; i++ {
		now := time.Now()
		for _, node := range nodes {
			node.LoadCheck(now)
		}
	}
	for _, node := range nodes {
		go node.Run(ctx)
	}
	return nodes, nil
}
