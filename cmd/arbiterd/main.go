// Command arbiterd runs the Themis cross-app Arbiter as an HTTP daemon. ML
// app Agents (see cmd/agentd) register with it; the daemon periodically
// pools free and lease-expired GPUs, offers them to the worst-off fraction
// of apps and runs the partial-allocation auction over their bids.
//
// -shards N (default 1, the unsharded arbiter) partitions the cluster across
// N arbiter shards: apps are homed on shards by consistent hashing, each
// shard auctions its own capacity slice, and leftover GPUs are re-offered
// cross-shard to the most-starved apps; GET /v1/shards reports the per-shard
// detail. Every shard runs inside this one process.
//
// Observability: the protocol listener serves /metrics (Prometheus text
// format), /healthz and /debug/rounds (the last auction rounds' phase traces
// as JSON). -debug-addr starts a second listener adding net/http/pprof under
// /debug/pprof/ — profiling stays off the protocol port unless asked for.
// SIGQUIT prints the round trace ring to stderr without stopping the daemon.
//
// Examples:
//
//	arbiterd -listen :7100 -cluster testbed -f 0.8 -lease 20 -interval 30s
//	arbiterd -listen :7100 -cluster sim -shards 4
//	arbiterd -listen :7100 -shards 2 -debug-addr 127.0.0.1:7190
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"themis"
	"themis/daemon"
)

func main() {
	var (
		listen      = flag.String("listen", ":7100", "address to serve the Arbiter API on")
		clusterKind = flag.String("cluster", "testbed", "cluster topology: 'sim' (256 GPUs) or 'testbed' (50 GPUs)")
		fairness    = flag.Float64("f", 0.8, "fairness knob f")
		lease       = flag.Float64("lease", 20, "lease duration in scheduling minutes")
		interval    = flag.Duration("interval", 30*time.Second, "wall-clock interval between auction rounds (0 disables the loop; trigger with POST /v1/auction)")
		timeScale   = flag.Float64("timescale", 1, "scheduling minutes per wall-clock minute (e.g. 60 makes one real second one scheduling minute)")
		debugAddr   = flag.String("debug-addr", "", "address for the debug listener serving /metrics, /healthz, /debug/rounds and /debug/pprof/ (empty: no pprof; metrics stay on -listen)")

		shards = flag.Int("shards", 1, "number of arbiter shards to partition the cluster across")
	)
	flag.Parse()

	topo, err := themis.Cluster(*clusterKind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbiterd:", err)
		os.Exit(1)
	}
	server, err := daemon.NewShardedArbiter(topo, daemon.ArbiterConfig{FairnessKnob: *fairness, LeaseDuration: *lease}, *shards)
	if err != nil {
		log.Fatalf("arbiterd: %v", err)
	}
	start := time.Now()
	server.Clock = func() float64 { return time.Since(start).Minutes() * *timeScale }

	// SIGQUIT dumps the recent rounds' phase traces to stderr and keeps
	// serving — the kill -QUIT equivalent of /debug/rounds for when the
	// daemon is reachable over SSH but not HTTP.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			server.RoundTrace().WriteText(os.Stderr)
		}
	}()

	if *debugAddr != "" {
		go func() {
			log.Printf("arbiterd: debug listener (pprof, /metrics, /debug/rounds) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, daemon.NewDebugMux(server.RoundTrace())); err != nil {
				log.Printf("arbiterd: debug listener: %v", err)
			}
		}()
	}

	if *interval > 0 {
		go func() {
			ticker := time.NewTicker(*interval)
			defer ticker.Stop()
			for range ticker.C {
				if _, err := server.RunAuction(server.Clock()); err != nil {
					log.Printf("arbiterd: auction round failed: %v", err)
				}
			}
		}()
	}

	log.Printf("arbiterd: serving %d-GPU %s cluster in %d shard(s) on %s (f=%.2f, lease=%.0f min)",
		topo.TotalGPUs(), *clusterKind, *shards, *listen, *fairness, *lease)
	if err := http.ListenAndServe(*listen, server.Handler()); err != nil {
		log.Fatalf("arbiterd: %v", err)
	}
}
