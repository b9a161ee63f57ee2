// Command clashd runs one live CLASH overlay node: a chord DHT member with
// the CLASH redirection layer, the continuous-query engine and the load-aware
// split/consolidation loop on top, speaking the framed wire protocol over
// TCP.
//
// Start a fresh overlay (the first node installs the initial key-space
// partition):
//
//	clashd -addr 127.0.0.1:7001 -status 127.0.0.1:8001
//
// Join an existing overlay:
//
//	clashd -addr 127.0.0.1:7002 -status 127.0.0.2:8002 -join 127.0.0.1:7001
//
// The -status address serves the node's control plane (internal/hub):
// GET /status (JSON snapshot), GET /metrics (Prometheus; the per-stage
// trace latencies in clash_trace_stage_seconds are derived from hop spans),
// GET /topology (ring walk), GET /traces/spans (hop spans of sampled
// publishes, scraped by clashtop), GET /events (server-sent event stream),
// and the POST /admin/{drain,undrain,rebalance} and
// POST /admin/{split,merge}/{group} verbs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clash/internal/chord"
	"clash/internal/hub"
	"clash/internal/load"
	"clash/internal/overlay"
)

func main() {
	var (
		addr           = flag.String("addr", "127.0.0.1:7001", "transport listen address (doubles as the node identity)")
		join           = flag.String("join", "", "address of an existing overlay node to join; empty bootstraps a new overlay")
		statusAddr     = flag.String("status", "", "HTTP status listen address (empty disables the endpoint)")
		keyBits        = flag.Int("keybits", 24, "identifier key length N")
		spaceBits      = flag.Int("space-bits", chord.DefaultSpaceBits, "chord identifier space size M")
		capacity       = flag.Float64("capacity", 5000, "server capacity in weighted packets/second")
		bootstrapDepth = flag.Int("bootstrap-depth", 2, "depth of the initial key-space partition (bootstrap node only)")
		stabilize      = flag.Duration("stabilize", 250*time.Millisecond, "chord stabilization interval")
		loadCheck      = flag.Duration("load-check", 2*time.Second, "load measurement window and check interval")
		seed           = flag.Int64("seed", 0, "root seed for the maintenance-loop jitter (reproducible runs)")
		replicas       = flag.Int("replicas", 0, "key-group replication factor: replicas pushed to that many successors (0 = default 2, negative disables)")
		dialTimeout    = flag.Duration("dial-timeout", 0, "TCP connect timeout for outbound peer connections (0 = default 3s)")
		callTimeout    = flag.Duration("call-timeout", 0, "default per-call reply deadline when the caller sets none (0 = default 10s)")
		idleTimeout    = flag.Duration("idle-timeout", 0, "idle time after which pooled peer connections are closed (0 = default 5m)")
	)
	flag.Parse()
	tcpCfg := overlay.TCPConfig{DialTimeout: *dialTimeout, CallTimeout: *callTimeout, IdleTimeout: *idleTimeout}
	if err := run(*addr, *join, *statusAddr, *keyBits, *spaceBits, *capacity, *bootstrapDepth, *stabilize, *loadCheck, *seed, *replicas, tcpCfg); err != nil {
		fmt.Fprintln(os.Stderr, "clashd:", err)
		os.Exit(1)
	}
}

func run(addr, join, statusAddr string, keyBits, spaceBits int, capacity float64, bootstrapDepth int, stabilize, loadCheck time.Duration, seed int64, replicas int, tcpCfg overlay.TCPConfig) error {
	space, err := chord.NewSpace(spaceBits)
	if err != nil {
		return err
	}
	tr, err := overlay.ListenTCPConfig(addr, tcpCfg)
	if err != nil {
		return err
	}
	node, err := overlay.NewNode(tr, overlay.Config{
		KeyBits:           keyBits,
		Space:             space,
		Model:             load.DefaultModel(capacity),
		BootstrapDepth:    bootstrapDepth,
		StabilizeInterval: stabilize,
		LoadCheckInterval: loadCheck,
		Seed:              seed,
		ReplicationFactor: replicas,
	})
	if err != nil {
		tr.Close()
		return err
	}

	if join == "" {
		if err := node.BootstrapRoots(); err != nil {
			node.Close()
			return err
		}
		log.Printf("clashd %s: bootstrapped new overlay (%d root groups)", node.Addr(), 1<<uint(bootstrapDepth))
	} else {
		if err := node.Join(join); err != nil {
			node.Close()
			return fmt.Errorf("join %s: %w", join, err)
		}
		log.Printf("clashd %s: joined overlay via %s", node.Addr(), join)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var statusSrv *http.Server
	if statusAddr != "" {
		// The control-plane server is hardened against slow or hostile
		// clients: bounded header reads, bounded request reads, an idle
		// keep-alive cap and a small header limit. No WriteTimeout — the
		// /events stream is long-lived and manages its own per-write
		// deadlines through http.ResponseController.
		statusSrv = &http.Server{
			Addr:              statusAddr,
			Handler:           hub.New(node).Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			IdleTimeout:       2 * time.Minute,
			MaxHeaderBytes:    1 << 16,
		}
		go func() {
			if err := statusSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("clashd %s: control-plane server: %v", node.Addr(), err)
			}
		}()
		log.Printf("clashd %s: control plane at http://%s/ (status, metrics, topology, traces, events, admin)", node.Addr(), statusAddr)
	}

	done := make(chan struct{})
	go func() {
		node.Run(ctx)
		close(done)
	}()

	<-ctx.Done()
	log.Printf("clashd %s: shutting down", node.Addr())
	<-done
	if statusSrv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = statusSrv.Shutdown(shutdownCtx)
	}
	return node.Close()
}
