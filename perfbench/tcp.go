package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/cq"
	"clash/internal/load"
	"clash/internal/overlay"
	"clash/internal/workload"
)

// tcpWorkload describes one workload driven against a 2-node cluster over
// loopback TCP from closed-loop callers sharing one Client.
type tcpWorkload struct {
	// batch is the PublishBatch size; 0 publishes one packet per Publish.
	batch int
	// One continuous query is registered during set-up in each of the 2^depth
	// regions of depth depth, each with the predicate speed > thr.
	depth int
	thr   float64
	// warmCalls is how many calls each caller makes while warming up.
	warmCalls int
	// callers is how many closed-loop callers drive the cluster, at most
	// nproc.
	callers int
}

// The query regions of a workload tile the key space and share one
// threshold, so how often packets match does not depend on which streams a
// seed draws; they are deeper than the root groups, so each region lies
// inside one group.
var (
	// publishTCP: 8 queries, matching one publish in ten.
	publishTCP = tcpWorkload{depth: 3, thr: 90, warmCalls: 500, callers: 2}
	// fanoutBatchTCP: 256 queries, so 80% of objects match once and each
	// match is pushed to the client.
	fanoutBatchTCP = tcpWorkload{batch: 64, depth: 8, thr: 20, warmCalls: 20, callers: 2}
)

const (
	clusterNodes = 2
	keyBits      = workload.DefaultKeyBits
	// bootDepth is the initial partition: 4 root groups over 2 nodes.
	bootDepth = 2
	// noSplitCapacity puts every group far below the overload threshold, so
	// no split or merge happens inside a timed window.
	noSplitCapacity = 1e12
	// drainTimeout bounds the wait for pushed matches after a window.
	drainTimeout = 10 * time.Second
)

// Run phases, encoded in every packet's sequence number.
const (
	phaseWarm = 1 + iota
	phaseUntraced
	phaseTraced
	numPhases
)

// Packet payload: sequence number, then send time in ns since origin.
const (
	payloadLen = 16
	seqMagic   = 0xC1
)

// origin is the clock every payload send time is measured from.
var origin = time.Now()

func makeSeq(phase, caller int, n uint64) uint64 {
	return seqMagic<<56 | uint64(phase)<<52 | uint64(caller)<<44 | n
}

func seqPhase(seq uint64) int  { return int(seq>>52) & 0xf }
func seqCaller(seq uint64) int { return min(int(seq>>44)&0xff, maxCallers-1) }

// inputs is one caller's deterministic stream of packets for one phase:
// workload B keys with the paper's mean stream length Ld, uniform speeds.
type inputs struct {
	gen           *workload.KeyGenerator
	rng           *rand.Rand
	key           bitkey.Key
	left          int
	phase, caller int
	n             uint64
}

func newInputs(base *workload.KeyGenerator, seed int64, phase, caller int) *inputs {
	s := seed*1_000_003 + int64(phase)*7919 + int64(caller) + 1
	return &inputs{gen: base.Clone(s), rng: rand.New(rand.NewSource(s ^ 0x5eed)), phase: phase, caller: caller}
}

func (in *inputs) next() (key bitkey.Key, speed float64, seq uint64) {
	if in.left == 0 {
		in.key = in.gen.Next()
		in.left = in.gen.NextStreamLength()
	}
	in.left--
	seq = makeSeq(in.phase, in.caller, in.n)
	in.n++
	return in.key, in.rng.Float64() * 100, seq
}

func baseGenerator() *workload.KeyGenerator {
	gen, err := workload.NewKeyGenerator(workload.SpecFor(workload.WorkloadB), rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err) // the paper spec is valid by construction
	}
	return gen
}

// benchQuery is a registered continuous query as the reference matcher sees
// it: a region prefix of depth depth and a speed threshold.
type benchQuery struct {
	id     string
	region uint64
	depth  int
	thr    float64
}

func (w tcpWorkload) makeQueries() []benchQuery {
	qs := make([]benchQuery, 1<<w.depth)
	for i := range qs {
		qs[i] = benchQuery{id: fmt.Sprintf("q%03d", i), region: uint64(i), depth: w.depth, thr: w.thr}
	}
	return qs
}

func (q benchQuery) query() cq.Query {
	return cq.Query{
		ID:         q.id,
		Region:     bitkey.NewGroup(bitkey.Key{Value: q.region, Bits: q.depth}),
		Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: q.thr}},
	}
}

// matchHash folds one (packet, query) match into a 64-bit value; sums of it
// compare match sets in constant memory.
func matchHash(seq uint64, qid string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seq >> (8 * i)))
		h *= 1099511628211
	}
	for i := 0; i < len(qid); i++ {
		h ^= uint64(qid[i])
		h *= 1099511628211
	}
	return h
}

// reference recomputes which queries each packet of a phase must match,
// straight from the registered regions and predicates.
type reference struct {
	depth    int
	byRegion map[uint64][]benchQuery
}

// newReference indexes a workload's queries, which share one region depth.
func newReference(qs []benchQuery) *reference {
	r := &reference{depth: qs[0].depth, byRegion: make(map[uint64][]benchQuery)}
	for _, q := range qs {
		r.byRegion[q.region] = append(r.byRegion[q.region], q)
	}
	return r
}

// replay regenerates n packets of a caller's phase stream and returns the
// hash sum and count of their matches.
func (r *reference) replay(in *inputs, n int64) (sum uint64, count int64) {
	for i := int64(0); i < n; i++ {
		key, speed, seq := in.next()
		for _, q := range r.byRegion[key.Value>>(keyBits-r.depth)] {
			if speed > q.thr {
				sum += matchHash(seq, q.id)
				count++
			}
		}
	}
	return sum, count
}

// cluster is a booted 2-node overlay on loopback TCP with one client.
type cluster struct {
	nodes    []*overlay.Node
	nodeTrs  []overlay.Transport
	client   *overlay.Client
	clientTr overlay.Transport
	rcv      *receiver
	cancel   context.CancelFunc
	running  sync.WaitGroup
}

// nodePortBase is node i's listening port minus i. A node's address is its
// ring identity, so fixed ports place the root groups on the same nodes in
// every run; with random ports the split of the traffic between the two
// nodes, and so every timing, would change from run to run.
const nodePortBase = 47311

// listen opens a loopback endpoint: node i on its fixed port, the client
// (side 0) on any free port. A fixed port that is taken falls back to a
// free one.
func listen(rec *recorder, side int) (overlay.Transport, error) {
	addr := "127.0.0.1:0"
	if side != sideClient {
		addr = fmt.Sprintf("127.0.0.1:%d", nodePortBase+side-1)
	}
	tr, err := overlay.ListenTCP(addr)
	if err != nil && side != sideClient {
		fmt.Fprintf(os.Stderr, "perfbench: %v; listening on a free port instead\n", err)
		tr, err = overlay.ListenTCP("127.0.0.1:0")
	}
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return tr, nil
	}
	return rec.wrap(tr, side), nil
}

// bootCluster starts the nodes, converges the ring, distributes the root
// groups, starts each node's maintenance loop and connects a client.
func bootCluster(rec *recorder, seed int64) (*cluster, error) {
	space := chord.DefaultSpace()
	cfg := overlay.Config{
		KeyBits:        keyBits,
		Space:          space,
		Model:          load.DefaultModel(noSplitCapacity),
		BootstrapDepth: bootDepth,
		Seed:           seed,
	}
	c := &cluster{}
	for i := 0; i < clusterNodes; i++ {
		tr, err := listen(rec, i+1)
		if err != nil {
			c.close()
			return nil, err
		}
		n, err := overlay.NewNode(tr, cfg)
		if err != nil {
			tr.Close()
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.nodeTrs = append(c.nodeTrs, tr)
	}
	if err := c.nodes[0].BootstrapRoots(); err != nil {
		c.close()
		return nil, err
	}
	for _, n := range c.nodes[1:] {
		if err := n.Join(c.nodes[0].Addr()); err != nil {
			c.close()
			return nil, err
		}
	}
	for r := 0; r < 3*space.Bits; r++ {
		for _, n := range c.nodes {
			n.Tick()
		}
	}
	for i := 0; i < 2; i++ {
		now := time.Now()
		for _, n := range c.nodes {
			n.LoadCheck(now)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for _, n := range c.nodes {
		c.running.Add(1)
		go func(n *overlay.Node) {
			defer c.running.Done()
			n.Run(ctx)
		}(n)
	}
	tr, err := listen(rec, sideClient)
	if err != nil {
		c.close()
		return nil, err
	}
	seeds := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		seeds[i] = n.Addr()
	}
	client, err := overlay.NewClient(tr, keyBits, space, seeds...)
	if err != nil {
		tr.Close()
		c.close()
		return nil, err
	}
	c.client, c.clientTr = client, tr
	c.rcv = startReceiver(client.Matches())
	return c, nil
}

// quiesce stops the nodes' maintenance loops.
func (c *cluster) quiesce() {
	if c.cancel != nil {
		c.cancel()
		c.running.Wait()
		c.cancel = nil
	}
}

func (c *cluster) close() {
	c.quiesce()
	if c.rcv != nil {
		c.rcv.Stop()
	}
	if c.client != nil {
		c.client.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
}

// drainers goroutines receive from the client's match channel and only hand
// each match on, so the channel is read as fast as the runtime schedules
// them; while any of them is parked on the channel, a pushed match bypasses
// its buffer. recorders goroutines then time and count the matches.
const (
	drainers  = 128
	recorders = 8
)

// receiver drains the client's match channel, timing each match back to its
// publish through the send time in the packet payload.
type receiver struct {
	count [numPhases]atomic.Int64
	sum   [numPhases]atomic.Uint64
	bad   atomic.Int64
	win   phaseWindows
	// lat holds each recorder's match latencies per timed phase; a
	// recorder owns its row until Stop returns.
	lat  [recorders][numPhases]*sliced
	stop chan struct{}
	wg   sync.WaitGroup
}

func startReceiver(ch <-chan overlay.Match) *receiver {
	r := &receiver{stop: make(chan struct{})}
	fwd := make(chan overlay.Match, 8192)
	for i := 0; i < drainers; i++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for {
				select {
				case <-r.stop:
					return
				case m := <-ch:
					select {
					case fwd <- m:
					case <-r.stop:
						return
					}
				}
			}
		}()
	}
	for i := 0; i < recorders; i++ {
		r.wg.Add(1)
		go func(i int) {
			defer r.wg.Done()
			for {
				select {
				case <-r.stop:
					return
				case m := <-fwd:
					r.take(i, m)
				}
			}
		}(i)
	}
	return r
}

func (r *receiver) take(recorder int, m overlay.Match) {
	now := time.Now()
	if len(m.Payload) != payloadLen {
		r.bad.Add(1)
		return
	}
	seq := binary.LittleEndian.Uint64(m.Payload)
	phase := seqPhase(seq)
	if seq>>56 != seqMagic || phase >= numPhases {
		r.bad.Add(1)
		return
	}
	if w := r.win[phase].Load(); w != nil {
		s := r.lat[recorder][phase]
		if s == nil {
			s = newSliced(w)
			r.lat[recorder][phase] = s
		}
		s.hists[w.slice(now)].add(int64(now.Sub(origin)) - int64(binary.LittleEndian.Uint64(m.Payload[8:])))
	}
	r.sum[phase].Add(matchHash(seq, m.QueryID))
	r.count[phase].Add(1)
}

// Stop ends the receiver; latencies may be read once it returns.
func (r *receiver) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
}

// latencies returns a phase's match latencies; call after Stop.
func (r *receiver) latencies(phase int) []*sliced {
	var out []*sliced
	for i := range r.lat {
		if s := r.lat[i][phase]; s != nil {
			out = append(out, s)
		}
	}
	return out
}

// waitDelivered waits until want matches of a phase arrived.
func (r *receiver) waitDelivered(phase int, want int64) bool {
	deadline := time.Now().Add(drainTimeout)
	for r.count[phase].Load() < want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// caller is one closed-loop publisher: it sends its next call only after the
// previous one returned.
type caller struct {
	idx     int
	in      *inputs
	payload []byte
	attrs   []map[string]float64
	items   []overlay.BatchItem

	seqs                  []uint64
	win                   *window // nil while warming up
	lat                   *sliced // call latencies and acks per slice
	calls                 int64
	attempted, ok, failed int64
	probes, hits          int64
	inlineSum             uint64
	inlineCount           int64
	firstErr              error
}

func (w tcpWorkload) newCaller(base *workload.KeyGenerator, seed int64, phase, idx int) *caller {
	n := max(w.batch, 1)
	c := &caller{
		idx:     idx,
		in:      newInputs(base, seed, phase, idx),
		payload: make([]byte, n*payloadLen),
		attrs:   make([]map[string]float64, n),
		items:   make([]overlay.BatchItem, n),
		seqs:    make([]uint64, n),
	}
	for i := range c.attrs {
		c.attrs[i] = map[string]float64{}
	}
	return c
}

// step makes one call: a Publish of one packet or a PublishBatch.
func (w tcpWorkload) step(cl *cluster, c *caller, rec *recorder) {
	var spanID uint64
	var spanStart int64
	if rec != nil {
		spanID, spanStart = rec.begin(c.idx)
	}
	if w.batch == 0 {
		key, speed, seq := c.in.next()
		c.attrs[0]["speed"] = speed
		binary.LittleEndian.PutUint64(c.payload, seq)
		t0 := time.Now()
		binary.LittleEndian.PutUint64(c.payload[8:], uint64(t0.Sub(origin)))
		res, err := cl.client.Publish(key, c.attrs[0], c.payload)
		k := c.record(t0)
		c.account(k, seq, res, err)
	} else {
		for i := range c.items {
			key, speed, seq := c.in.next()
			c.attrs[i]["speed"] = speed
			p := c.payload[i*payloadLen : (i+1)*payloadLen]
			binary.LittleEndian.PutUint64(p, seq)
			c.items[i] = overlay.BatchItem{Key: key, Attrs: c.attrs[i], Payload: p}
			c.seqs[i] = seq
		}
		t0 := time.Now()
		sendNs := uint64(t0.Sub(origin))
		for i := range c.items {
			binary.LittleEndian.PutUint64(c.payload[i*payloadLen+8:], sendNs)
		}
		results, errs := cl.client.PublishBatch(c.items)
		k := c.record(t0)
		for i := range results {
			c.account(k, c.seqs[i], results[i], errs[i])
		}
	}
	if rec != nil {
		rec.end(c.idx, kindPublish, spanID, spanStart)
	}
}

// record times a call that started at t0 and returns its slice.
func (c *caller) record(t0 time.Time) int {
	c.calls++
	if c.win == nil {
		return 0
	}
	t1 := time.Now()
	k := c.win.slice(t1)
	c.lat.hists[k].add(int64(t1.Sub(t0)))
	return k
}

func (c *caller) account(slice int, seq uint64, res *overlay.PublishResult, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return
	}
	c.ok++
	if c.win != nil {
		c.lat.acked[slice]++
	}
	c.probes += int64(res.Probes)
	if res.Probes == 1 {
		c.hits++
	}
	for _, q := range res.Matches {
		c.inlineSum += matchHash(seq, q)
		c.inlineCount++
	}
}

// phaseRun is the outcome of driving one phase from every caller.
type phaseRun struct {
	phase   int
	callers []*caller
	win     *window
	cpu     []time.Duration // CPU time at each slice boundary
	proc    procDelta
	before  clusterStats
	after   clusterStats
}

func (p *phaseRun) inlineSum() uint64 {
	var sum uint64
	for _, c := range p.callers {
		sum += c.inlineSum
	}
	return sum
}

// lats returns each caller's sliced call latencies.
func (p *phaseRun) lats() []*sliced {
	out := make([]*sliced, len(p.callers))
	for i, c := range p.callers {
		out[i] = c.lat
	}
	return out
}

func (p *phaseRun) total(f func(*caller) int64) int64 {
	var n int64
	for _, c := range p.callers {
		n += f(c)
	}
	return n
}

// drive runs the callers until each has made calls calls, or for d when
// calls is 0.
func (w tcpWorkload) drive(cl *cluster, rec *recorder, seed int64, phase int, d time.Duration, calls int) *phaseRun {
	base := baseGenerator()
	p := &phaseRun{phase: phase}
	for i := 0; i < w.numCallers(); i++ {
		p.callers = append(p.callers, w.newCaller(base, seed, phase, i))
	}
	p.before = readCluster(cl)
	start := readProc()
	deadline := start.wall.Add(d)
	var marks *cpuMarks
	if calls == 0 {
		p.win = newWindow(start.wall, d)
		for _, c := range p.callers {
			c.win, c.lat = p.win, newSliced(p.win)
		}
		cl.rcv.win[phase].Store(p.win)
		marks = startCPUMarks(p.win)
	}
	var wg sync.WaitGroup
	for _, c := range p.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for i := 0; calls == 0 || i < calls; i++ {
				if calls == 0 && !time.Now().Before(deadline) {
					return
				}
				w.step(cl, c, rec)
			}
		}(c)
	}
	wg.Wait()
	end := readProc()
	if marks != nil {
		marks.Stop()
		p.cpu = marks.at
	}
	p.after = readCluster(cl)
	p.proc = start.to(end)
	return p
}

// clusterStats sums the cluster's own counters at one instant.
type clusterStats struct {
	tr                           overlay.TransportStats
	objectsOK, objectsCorrected  int
	objectsWrong, splits, merges int
	lockWaits, swaps             uint64
	clientDrops, nodeMatchDrops  int64
}

func readCluster(cl *cluster) clusterStats {
	var s clusterStats
	add := func(t overlay.TransportStats) {
		s.tr.FramesIn += t.FramesIn
		s.tr.FramesOut += t.FramesOut
		s.tr.BytesIn += t.BytesIn
		s.tr.BytesOut += t.BytesOut
		s.tr.Reconnects += t.Reconnects
		s.tr.Timeouts += t.Timeouts
		s.tr.Retries += t.Retries
		s.tr.Shed += t.Shed
		s.tr.OversizedDrops += t.OversizedDrops
	}
	add(cl.clientTr.Stats())
	for i, n := range cl.nodes {
		add(cl.nodeTrs[i].Stats())
		srv := n.Server()
		ct := srv.Counters()
		s.objectsOK += ct.ObjectsOK
		s.objectsCorrected += ct.ObjectsCorrect
		s.objectsWrong += ct.ObjectsWrong
		s.splits += ct.Splits
		s.merges += ct.Merges
		for _, sh := range srv.ShardStats() {
			s.lockWaits += sh.LockWaits
		}
		s.swaps += srv.SnapshotSwaps()
		s.nodeMatchDrops += n.MatchDrops()
	}
	s.clientDrops = cl.client.Drops()
	return s
}

// setup boots a cluster, registers the workload's queries and warms the
// route cache and every connection with warm-phase traffic whose matches are
// all delivered before it returns.
func (w tcpWorkload) setup(rec *recorder, seed int64, qs []benchQuery) (*cluster, error) {
	cl, err := bootCluster(rec, seed)
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		var id uint64
		var start int64
		if rec != nil {
			id, start = rec.begin(registerSlot)
		}
		_, err := cl.client.Register(q.query())
		if rec != nil {
			rec.end(registerSlot, kindRegister, id, start)
		}
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("register %s: %w", q.id, err)
		}
	}
	if rec != nil {
		rec.on.Store(false)
	}
	warm := w.drive(cl, nil, seed, phaseWarm, 0, w.warmCalls)
	if f := warm.total(func(c *caller) int64 { return c.failed }); f > 0 {
		cl.close()
		return nil, fmt.Errorf("%d warm-up publishes failed: %v", f, firstErr(warm))
	}
	if !cl.rcv.waitDelivered(phaseWarm, warm.total(func(c *caller) int64 { return c.inlineCount })) {
		cl.close()
		return nil, fmt.Errorf("warm-up matches were not all delivered")
	}
	return cl, nil
}

func (w tcpWorkload) numCallers() int { return min(runtime.NumCPU(), w.callers) }

// An untraced run sets up setups fresh clusters and drives the first rounds
// of them, each for a share of the window. setup_s is the median set-up time
// and the other figures are medians over the slices of every driven round,
// so one set-up or cluster that happens to run fast or slow does not decide
// the result.
const (
	setups = 31
	rounds = 3
)

// runTCP runs one TCP workload, untraced or traced.
func runTCP(cfg runConfig, w tcpWorkload) (*outcome, error) {
	if cfg.window < rounds*sliceEvery {
		return nil, fmt.Errorf("--seconds must be at least %v for a TCP workload: %d rounds of at least one %v slice", rounds*sliceEvery, rounds, sliceEvery)
	}
	if cfg.traced {
		return runTCPTraced(cfg, w)
	}
	out := &outcome{metrics: metricSet{}}
	m := out.metrics
	qs := w.makeQueries()
	var setupTimes []float64
	var st sliceStats
	var ok, cpu float64
	var wall time.Duration
	var first *phaseRun
	for r := 0; r < setups; r++ {
		seed := cfg.seed*setups + int64(r)
		t0 := time.Now()
		cl, err := w.setup(nil, seed, qs)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if r >= rounds {
			cl.close()
			continue
		}
		p := w.drive(cl, nil, seed, phaseUntraced, cfg.window/rounds, 0)
		verify(out, cl, qs, seed, p)
		st.add(computeSlices(p.win, p.lats(), cl.rcv.latencies(p.phase), p.cpu))
		ok += float64(p.total(func(c *caller) int64 { return c.ok }))
		cpu += float64(p.proc.cpu.Microseconds())
		wall += p.proc.wall
		if first == nil {
			first = p
			layerCounters(m, p, float64(p.total(func(c *caller) int64 { return c.ok })))
		}
		cl.close()
	}
	fmt.Printf("slices of %v: publish_per_s %.0f\n  publish_p50_us %.1f\n  publish_p99_us %.0f\n  match_p99_us %.0f\n",
		sliceEvery, st.perS, st.p50, st.p99, st.matchP99)
	m.set("setup_s", median(setupTimes), "s")
	m.set("publish_per_s", median(st.perS), "1/s")
	m.set("cpu_us_per_publish", median(st.cpuPerOp), "us")
	m.set("publish_p50_us", median(st.p50), "us")
	m.set("publish_p99_us", median(st.p99), "us")
	m.set("match_p50_us", median(st.matchP50), "us")
	m.set("match_p99_us", median(st.matchP99), "us")
	m.set("peak_mem_mb", peakRSSMB(), "MB")
	m.set("error_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	m.set("callers", float64(w.numCallers()), "count")
	m.set("window.slices", float64(len(st.perS)), "count")
	m.set("window.publish_per_s", ok/wall.Seconds(), "1/s")
	m.set("window.publish_p50_us", st.calls.quantile(0.50), "us")
	m.set("window.publish_p99_us", st.calls.quantile(0.99), "us")
	m.set("window.publish_samples", float64(st.calls.n), "count")
	m.set("window.match_p50_us", st.matches.quantile(0.50), "us")
	m.set("window.match_p99_us", st.matches.quantile(0.99), "us")
	m.set("window.match_samples", float64(st.matches.n), "count")
	m.set("window.cpu_us_per_publish", ratio(cpu, ok), "us")
	return out, nil
}

// runTCPTraced sets up one cluster with span-recording transports, drives an
// untraced half window and then a traced half window with spans, the CPU
// profile and the goroutine sampler on, and derives the per-layer metrics.
func runTCPTraced(cfg runConfig, w tcpWorkload) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	m := out.metrics
	qs := w.makeQueries()
	rec := newRecorder()
	rec.on.Store(true)
	cl, err := w.setup(rec, cfg.seed, qs)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	rec.on.Store(false)

	half := cfg.window / 2
	plain := w.drive(cl, rec, cfg.seed, phaseUntraced, half, 0)
	m.set("peak_mem_mb", peakRSSMB(), "MB") // before the spans take memory
	prof, err := startProfile(cfg.artifact("-cpu.pprof"))
	if err != nil {
		return nil, err
	}
	sampler := startGoroutineSampler(time.Millisecond)
	rec.inflightMax.Store(0)
	tracedFrom := rec.now()
	rec.on.Store(true)
	traced := w.drive(cl, rec, cfg.seed, phaseTraced, cfg.window-half, 0)
	rec.on.Store(false)
	m.set("runtime.goroutines_max", float64(sampler.Stop()), "count")
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	verify(out, cl, qs, cfg.seed, plain, traced)

	ok := float64(plain.total(func(c *caller) int64 { return c.ok }))
	st := computeSlices(plain.win, plain.lats(), cl.rcv.latencies(plain.phase), plain.cpu)
	p50 := median(st.p50)
	m.set("publish_per_s", median(st.perS), "1/s")
	m.set("publish_p50_us", p50, "us")
	m.set("publish_p99_us", median(st.p99), "us")
	m.set("match_p50_us", median(st.matchP50), "us")
	m.set("match_p99_us", median(st.matchP99), "us")
	m.set("error_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	layerCounters(m, plain, ok)

	tracedOK := float64(traced.total(func(c *caller) int64 { return c.ok }))
	m.set("trace.overhead_ratio", ratio(ok/plain.proc.wall.Seconds(), tracedOK/traced.proc.wall.Seconds()), "ratio")
	spans, captured := rec.snapshot()
	m.set("transport.inflight_max", float64(rec.inflightMax.Load()), "count")
	la := analyzeSpans(m, spans, tracedFrom, w.batch > 0, tracedOK, traced.total(func(c *caller) int64 { return c.calls }))
	r, err := replayLayers(m, cl, captured, w.batch > 0)
	if err != nil {
		return nil, err
	}
	budget(m, p50, la, r)
	if err := foldProfile(m, cfg.artifact("-cpu.pprof")); err != nil {
		return nil, err
	}
	if err := writeSpans(cfg.artifact("-spans.csv.gz"), spans); err != nil {
		return nil, err
	}
	return out, nil
}

// verify runs the correctness checks on a cluster after its windows: every
// publish acknowledged, every inline match delivered on Matches() exactly
// once and equal to the reference match, no split or merge inside a window,
// active groups tiling the key space and no query lost. It stops the
// receiver and quiesces the nodes.
func verify(out *outcome, cl *cluster, qs []benchQuery, seed int64, phases ...*phaseRun) {
	for _, p := range phases {
		attempted := p.total(func(c *caller) int64 { return c.attempted })
		failed := p.total(func(c *caller) int64 { return c.failed })
		inline := p.total(func(c *caller) int64 { return c.inlineCount })
		out.attempted += attempted
		out.failed += failed
		out.check(failed == 0, "phase %d: %d of %d publishes failed (first: %v)", p.phase, failed, attempted, firstErr(p))
		delivered := cl.rcv.waitDelivered(p.phase, inline)
		got := cl.rcv.count[p.phase].Load()
		if undelivered := inline - got; undelivered > 0 {
			out.failed += undelivered
		}
		if !delivered {
			now := readCluster(cl)
			out.check(false, "phase %d: %d inline matches, %d delivered on Matches() (client drops %d, node drops %d, timeouts %d, shed %d since boot)",
				p.phase, inline, got, now.clientDrops, now.nodeMatchDrops, now.tr.Timeouts, now.tr.Shed)
		}
		out.check(cl.rcv.sum[p.phase].Load() == p.inlineSum() && got == inline,
			"phase %d: matches delivered on Matches() differ from the inline matches (not exactly once)", p.phase)
		out.check(p.after.splits == p.before.splits && p.after.merges == p.before.merges,
			"phase %d: %d splits, %d merges inside the timed window", p.phase, p.after.splits-p.before.splits, p.after.merges-p.before.merges)
	}
	out.check(cl.rcv.bad.Load() == 0, "%d matches carried a payload the benchmark did not send", cl.rcv.bad.Load())
	cl.rcv.Stop()
	cl.quiesce()
	checkCluster(out, cl, qs)
	for _, n := range cl.nodes {
		fmt.Printf("node %s: groups %v, objects ok %d\n", n.Addr(), n.Server().ActiveGroups(), n.Server().Counters().ObjectsOK)
	}
	// The reference match, computed after the windows.
	ref := newReference(qs)
	base := baseGenerator()
	for _, p := range phases {
		var sum uint64
		var count int64
		for _, c := range p.callers {
			s, n := ref.replay(newInputs(base, seed, p.phase, c.idx), c.attempted)
			sum += s
			count += n
		}
		inline := p.total(func(c *caller) int64 { return c.inlineCount })
		out.check(sum == p.inlineSum() && count == inline,
			"phase %d: inline matches (%d) differ from the reference match (%d)", p.phase, inline, count)
		out.metrics.set(fmt.Sprintf("reference.matches_per_op.phase%d", p.phase), ratio(float64(count), float64(p.total(func(c *caller) int64 { return c.attempted }))), "count")
	}
}

func firstErr(p *phaseRun) error {
	for _, c := range p.callers {
		if c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

// layerCounters fills the per-layer metrics read from counters around the
// untraced window, in which ops objects were acknowledged.
func layerCounters(m metricSet, p *phaseRun, ops float64) {
	a, b := p.before, p.after
	calls := float64(p.total(func(c *caller) int64 { return c.calls }))
	m.set("client.probes_per_op", ratio(float64(p.total(func(c *caller) int64 { return c.probes })), ops), "count")
	m.set("client.cache_hit_ratio", ratio(float64(p.total(func(c *caller) int64 { return c.hits })), ops), "ratio")
	m.set("client.match_drops", float64(b.clientDrops-a.clientDrops), "count")
	m.set("client.objects_per_call", ratio(ops, calls), "count")
	framesOut := float64(b.tr.FramesOut - a.tr.FramesOut)
	framesIn := float64(b.tr.FramesIn - a.tr.FramesIn)
	m.set("transport.frames_per_op", ratio(framesOut, ops), "count")
	m.set("transport.bytes_per_op", ratio(float64(b.tr.BytesOut-a.tr.BytesOut), ops), "B")
	m.set("transport.read_syscalls_per_frame", ratio(float64(p.proc.syscr), framesIn), "count")
	m.set("transport.write_syscalls_per_frame", ratio(float64(p.proc.syscw), framesOut), "count")
	m.set("transport.retries", float64(b.tr.Retries-a.tr.Retries), "count")
	m.set("transport.timeouts", float64(b.tr.Timeouts-a.tr.Timeouts), "count")
	m.set("transport.shed", float64(b.tr.Shed-a.tr.Shed), "count")
	m.set("transport.reconnects", float64(b.tr.Reconnects-a.tr.Reconnects), "count")
	m.set("node.match_drops", float64(b.nodeMatchDrops-a.nodeMatchDrops), "count")
	outcomes := float64((b.objectsOK - a.objectsOK) + (b.objectsCorrected - a.objectsCorrected) + (b.objectsWrong - a.objectsWrong))
	m.set("core.ok_ratio", ratio(float64(b.objectsOK-a.objectsOK), outcomes), "ratio")
	m.set("core.lock_waits", float64(b.lockWaits-a.lockWaits), "count")
	m.set("core.snapshot_swaps", float64(b.swaps-a.swaps), "count")
	m.set("core.splits", float64(b.splits-a.splits), "count")
	m.set("core.merges", float64(b.merges-a.merges), "count")
	p.proc.runtimeMetrics(m, ops)
}

// checkCluster verifies the quiesced cluster's state: the nodes' active
// groups are prefix-free and tile the key space, and every registered query
// is stored exactly once.
func checkCluster(out *outcome, cl *cluster, qs []benchQuery) {
	var groups []bitkey.Group
	stored := map[string]int{}
	for _, n := range cl.nodes {
		groups = append(groups, n.Server().ActiveGroups()...)
		for _, q := range n.Engine().All() {
			stored[q.ID]++
		}
	}
	out.check(tiles(groups), "active groups %v are not prefix-free or do not tile the key space", groups)
	lost := 0
	for _, q := range qs {
		if stored[q.id] != 1 {
			lost++
		}
	}
	out.check(lost == 0 && len(stored) == len(qs), "%d of %d queries lost or duplicated (%d stored)", lost, len(qs), len(stored))
}

// tiles reports whether groups are pairwise prefix-free and cover every key.
func tiles(groups []bitkey.Group) bool {
	var covered uint64
	for i, g := range groups {
		if g.Depth() > keyBits {
			return false
		}
		covered += 1 << uint(keyBits-g.Depth())
		for _, h := range groups[i+1:] {
			if g.ContainsGroup(h) || h.ContainsGroup(g) {
				return false
			}
		}
	}
	return covered == 1<<keyBits
}
