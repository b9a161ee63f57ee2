// Command clashwire benchmarks the CLASH wire layer and writes the
// BENCH_wire.json snapshot:
//
//   - codec microbenchmarks: the hand-rolled binary MarshalWire/UnmarshalWire
//     against an encoding/json baseline, ns/op, allocs/op and encoded sizes;
//   - transport benchmark: sequential vs pipelined call throughput over a
//     single multiplexed TCP connection;
//   - end-to-end benchmark: publish throughput against a small live overlay
//     on loopback TCP, sequential vs concurrent vs batched clients.
//
// Regenerate the checked-in snapshot with:
//
//	go run ./cmd/clashwire -out BENCH_wire.json
//
// CI runs `clashwire -quick` as a smoke test.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/core"
	"clash/internal/load"
	"clash/internal/overlay"
	"clash/internal/wirecodec"
)

type codecResult struct {
	Message             string  `json:"message"`
	BinaryMarshalNsOp   float64 `json:"binary_marshal_ns_op"`
	BinaryMarshalAllocs int64   `json:"binary_marshal_allocs_op"`
	BinaryUnmarshalNsOp float64 `json:"binary_unmarshal_ns_op"`
	JSONMarshalNsOp     float64 `json:"json_marshal_ns_op"`
	JSONUnmarshalNsOp   float64 `json:"json_unmarshal_ns_op"`
	BinaryBytes         int     `json:"binary_bytes"`
	JSONBytes           int     `json:"json_bytes"`
	MarshalSpeedup      float64 `json:"marshal_speedup"`
	UnmarshalSpeedup    float64 `json:"unmarshal_speedup"`
}

type transportResult struct {
	Calls                 int     `json:"calls"`
	SequentialCallsPerSec float64 `json:"sequential_calls_per_sec"`
	PipelinedWorkers      int     `json:"pipelined_workers"`
	PipelinedCallsPerSec  float64 `json:"pipelined_calls_per_sec"`
	PipelineSpeedup       float64 `json:"pipeline_speedup"`
	ServerConnections     int     `json:"server_connections"`
}

type e2eResult struct {
	Nodes                int     `json:"nodes"`
	Packets              int     `json:"packets"`
	SequentialPPS        float64 `json:"sequential_pps"`
	ConcurrentWorkers    int     `json:"concurrent_workers"`
	ConcurrentPPS        float64 `json:"concurrent_pps"`
	BatchSize            int     `json:"batch_size"`
	BatchedPPS           float64 `json:"batched_pps"`
	ConcurrencySpeedup   float64 `json:"concurrency_speedup"`
	BatchSpeedup         float64 `json:"batch_speedup"`
	ClientConnections    int     `json:"client_connections_per_node"`
	BaselineOverlayNote  string  `json:"baseline_note"`
	BaselineOverlayPPS   float64 `json:"baseline_overlay_pps,omitempty"`
	BaselineOverlayCodec string  `json:"baseline_overlay_codec,omitempty"`
}

type benchOut struct {
	GoVersion string `json:"go_version"`
	// NumCPU contextualises the pipelining numbers: on a single core the
	// pipelined gain is syscall/RTT overlap only; with real cores and real
	// network latency the concurrency win grows with both.
	NumCPU    int             `json:"num_cpu"`
	MaxProcs  int             `json:"go_max_procs"`
	Quick     bool            `json:"quick,omitempty"`
	Codec     []codecResult   `json:"codec"`
	Transport transportResult `json:"transport_tcp"`
	EndToEnd  e2eResult       `json:"end_to_end_tcp"`
}

func main() {
	var (
		out   = flag.String("out", "", "write the JSON benchmark snapshot to this file")
		quick = flag.Bool("quick", false, "smoke mode: tiny iteration counts (CI)")
	)
	flag.Parse()
	if err := run(*out, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "clashwire:", err)
		os.Exit(1)
	}
}

func run(out string, quick bool) error {
	res := benchOut{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0), Quick: quick}
	res.Codec = codecBenches()
	for _, c := range res.Codec {
		fmt.Printf("codec %-22s binary %7.1f ns/op (%d allocs, %3dB)  json %8.1f ns/op (%3dB)  speedup %5.1fx marshal / %5.1fx unmarshal\n",
			c.Message, c.BinaryMarshalNsOp, c.BinaryMarshalAllocs, c.BinaryBytes,
			c.JSONMarshalNsOp, c.JSONBytes, c.MarshalSpeedup, c.UnmarshalSpeedup)
	}

	tr, err := transportBench(quick)
	if err != nil {
		return err
	}
	res.Transport = tr
	fmt.Printf("transport: %d calls — sequential %.0f calls/s, pipelined(%d) %.0f calls/s (%.1fx) over %d connection(s)\n",
		tr.Calls, tr.SequentialCallsPerSec, tr.PipelinedWorkers, tr.PipelinedCallsPerSec,
		tr.PipelineSpeedup, tr.ServerConnections)

	e2e, err := endToEndBench(quick)
	if err != nil {
		return err
	}
	res.EndToEnd = e2e
	fmt.Printf("end-to-end: %d nodes, %d packets — sequential %.0f pkt/s, concurrent(%d) %.0f pkt/s (%.1fx), batched(%d) %.0f pkt/s (%.1fx)\n",
		e2e.Nodes, e2e.Packets, e2e.SequentialPPS, e2e.ConcurrentWorkers, e2e.ConcurrentPPS,
		e2e.ConcurrencySpeedup, e2e.BatchSize, e2e.BatchedPPS, e2e.BatchSpeedup)

	if out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("snapshot written to %s\n", out)
	}
	return nil
}

// codecBenches measures the binary codec against the JSON baseline on the
// two hot protocol messages and the 64-object batch.
func codecBenches() []codecResult {
	obj := core.AcceptObjectMsg{
		KeyValue: 0xABCDE, KeyBits: 24, Depth: 7, Kind: core.ObjectData,
		Payload: []byte(`{"speed":88.5,"heading":271}`),
	}
	reply := core.AcceptObjectReplyMsg{
		Status: core.StatusOK, GroupValue: 0b1010101, GroupBits: 7,
		CorrectDepth: 7, Matches: []string{"q-17", "q-23"},
	}
	batch := core.AcceptBatchMsg{Objects: make([]core.AcceptObjectMsg, 64)}
	for i := range batch.Objects {
		o := obj
		o.KeyValue = uint64(i) << 4
		batch.Objects[i] = o
	}

	return []codecResult{
		benchPair("accept_object", &obj, func() any { return &core.AcceptObjectMsg{} }),
		benchPair("accept_object_reply", &reply, func() any { return &core.AcceptObjectReplyMsg{} }),
		benchPair("accept_batch_64", &batch, func() any { return &core.AcceptBatchMsg{} }),
	}
}

// wireCodec is the MarshalWire/UnmarshalWire surface the core messages share.
type wireCodec interface {
	MarshalWire(b []byte) []byte
	UnmarshalWire(data []byte) error
}

func benchPair(name string, msg wireCodec, fresh func() any) codecResult {
	bin := msg.MarshalWire(nil)
	js, err := json.Marshal(msg)
	if err != nil {
		panic(err)
	}

	binMarshal := testing.Benchmark(func(b *testing.B) {
		buf := wirecodec.GetBuf()
		defer wirecodec.PutBuf(buf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = msg.MarshalWire(buf[:0])
		}
	})
	binUnmarshal := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fresh().(wireCodec).UnmarshalWire(bin); err != nil {
				b.Fatal(err)
			}
		}
	})
	jsonMarshal := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	jsonUnmarshal := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(js, fresh()); err != nil {
				b.Fatal(err)
			}
		}
	})

	c := codecResult{
		Message:             name,
		BinaryMarshalNsOp:   nsOp(binMarshal),
		BinaryMarshalAllocs: binMarshal.AllocsPerOp(),
		BinaryUnmarshalNsOp: nsOp(binUnmarshal),
		JSONMarshalNsOp:     nsOp(jsonMarshal),
		JSONUnmarshalNsOp:   nsOp(jsonUnmarshal),
		BinaryBytes:         len(bin),
		JSONBytes:           len(js),
	}
	if c.BinaryMarshalNsOp > 0 {
		c.MarshalSpeedup = c.JSONMarshalNsOp / c.BinaryMarshalNsOp
	}
	if c.BinaryUnmarshalNsOp > 0 {
		c.UnmarshalSpeedup = c.JSONUnmarshalNsOp / c.BinaryUnmarshalNsOp
	}
	return c
}

func nsOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// transportBench measures raw call throughput over one multiplexed TCP
// connection: one caller issuing lockstep exchanges vs 32 callers pipelining.
func transportBench(quick bool) (transportResult, error) {
	calls := 20000
	if quick {
		calls = 1000
	}
	srv, err := overlay.ListenTCP("127.0.0.1:0")
	if err != nil {
		return transportResult{}, err
	}
	defer srv.Close()
	srv.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		// The reply must not alias the pooled request payload (Handler's
		// ownership contract): echo a copy.
		return append([]byte(nil), payload...), nil
	})
	cli, err := overlay.ListenTCP("127.0.0.1:0")
	if err != nil {
		return transportResult{}, err
	}
	defer cli.Close()

	payload := []byte("ping-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	doCalls := func(workers int) (float64, error) {
		errCh := make(chan error, workers)
		start := time.Now()
		for w := 0; w < workers; w++ {
			per := calls / workers
			go func() {
				for i := 0; i < per; i++ {
					if _, err := cli.Call(srv.Addr(), overlay.TypePing, payload); err != nil {
						errCh <- err
						return
					}
				}
				errCh <- nil
			}()
		}
		for w := 0; w < workers; w++ {
			if err := <-errCh; err != nil {
				return 0, err
			}
		}
		total := calls / workers * workers
		return float64(total) / time.Since(start).Seconds(), nil
	}

	seq, err := doCalls(1)
	if err != nil {
		return transportResult{}, err
	}
	const workers = 32
	pip, err := doCalls(workers)
	if err != nil {
		return transportResult{}, err
	}
	res := transportResult{
		Calls:                 calls,
		SequentialCallsPerSec: seq,
		PipelinedWorkers:      workers,
		PipelinedCallsPerSec:  pip,
		ServerConnections:     1,
	}
	if seq > 0 {
		res.PipelineSpeedup = pip / seq
	}
	return res, nil
}

// endToEndBench boots a small overlay on loopback TCP and measures publish
// throughput for a sequential client, a concurrent client (pipelining over
// the shared connections) and a batching client.
func endToEndBench(quick bool) (e2eResult, error) {
	const nodesN = 3
	packets := 30000
	if quick {
		packets = 2000
	}
	keyBits := 24
	space := chord.DefaultSpace()
	cfg := overlay.Config{
		KeyBits:           keyBits,
		Space:             space,
		Model:             load.DefaultModel(1e9), // never split during the bench
		BootstrapDepth:    2,
		StabilizeInterval: 50 * time.Millisecond,
		LoadCheckInterval: 500 * time.Millisecond,
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nodes := make([]*overlay.Node, nodesN)
	for i := range nodes {
		tr, err := overlay.ListenTCP("127.0.0.1:0")
		if err != nil {
			return e2eResult{}, err
		}
		node, err := overlay.NewNode(tr, cfg)
		if err != nil {
			return e2eResult{}, err
		}
		nodes[i] = node
		defer node.Close()
	}
	if err := nodes[0].BootstrapRoots(); err != nil {
		return e2eResult{}, err
	}
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr()); err != nil {
			return e2eResult{}, err
		}
	}
	for r := 0; r < 3*space.Bits; r++ {
		for _, n := range nodes {
			n.Tick()
		}
	}
	for i := 0; i < 2; i++ {
		now := time.Now()
		for _, n := range nodes {
			n.LoadCheck(now)
		}
	}
	for _, n := range nodes {
		go n.Run(ctx)
	}
	seeds := make([]string, nodesN)
	for i, n := range nodes {
		seeds[i] = n.Addr()
	}

	clientTr, err := overlay.ListenTCP("127.0.0.1:0")
	if err != nil {
		return e2eResult{}, err
	}
	client, err := overlay.NewClient(clientTr, keyBits, space, seeds...)
	if err != nil {
		return e2eResult{}, err
	}
	defer client.Close()
	// Drain pushed matches (none expected — no queries registered).
	go func() {
		for range client.Matches() {
		}
	}()

	key := func(i int) bitkey.Key {
		return bitkey.Key{Value: uint64(i*2654435761) & (1<<uint(keyBits) - 1), Bits: keyBits}
	}
	// Warm the route cache across the 4 root groups.
	for i := 0; i < 64; i++ {
		if _, err := client.Publish(key(i), nil, nil); err != nil {
			return e2eResult{}, fmt.Errorf("warmup publish %d: %w", i, err)
		}
	}

	publishRange := func(workers int) (float64, error) {
		errCh := make(chan error, workers)
		start := time.Now()
		per := packets / workers
		for w := 0; w < workers; w++ {
			go func(w int) {
				for i := 0; i < per; i++ {
					if _, err := client.Publish(key(w*per+i), nil, nil); err != nil {
						errCh <- err
						return
					}
				}
				errCh <- nil
			}(w)
		}
		for w := 0; w < workers; w++ {
			if err := <-errCh; err != nil {
				return 0, err
			}
		}
		return float64(per*workers) / time.Since(start).Seconds(), nil
	}

	seq, err := publishRange(1)
	if err != nil {
		return e2eResult{}, err
	}
	const workers = 32
	conc, err := publishRange(workers)
	if err != nil {
		return e2eResult{}, err
	}

	const batchSize = 64
	batchPPS := 0.0
	{
		start := time.Now()
		sent := 0
		for sent < packets {
			n := batchSize
			if packets-sent < n {
				n = packets - sent
			}
			items := make([]overlay.BatchItem, n)
			for i := range items {
				items[i] = overlay.BatchItem{Key: key(sent + i)}
			}
			_, errs := client.PublishBatch(items)
			for _, e := range errs {
				if e != nil {
					return e2eResult{}, e
				}
			}
			sent += n
		}
		batchPPS = float64(sent) / time.Since(start).Seconds()
	}

	res := e2eResult{
		Nodes:               nodesN,
		Packets:             packets,
		SequentialPPS:       seq,
		ConcurrentWorkers:   workers,
		ConcurrentPPS:       conc,
		BatchSize:           batchSize,
		BatchedPPS:          batchPPS,
		ClientConnections:   1,
		BaselineOverlayNote: "PR 2 JSON/sequential overlay: see BENCH_overlay.json (in-memory transport)",
	}
	if seq > 0 {
		res.ConcurrencySpeedup = conc / seq
		res.BatchSpeedup = batchPPS / seq
	}
	return res, nil
}
