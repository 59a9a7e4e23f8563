// Package daemon is the public face of Themis's distributed deployment: the
// cross-app Arbiter and per-app Agents running as HTTP services, speaking
// the probe → offer → bid → allocate protocol of §6. cmd/arbiterd and
// cmd/agentd are thin wrappers over this package, and examples/distributed
// drives the full loop in-process.
package daemon

import (
	"fmt"
	"net/http"

	"themis"
	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/rpc"
	"themis/internal/telemetry"
)

// Servers and clients of the HTTP protocol. ArbiterServer exposes Handler
// (the http.Handler to serve), RunAuction (one auction round) and a
// pluggable Clock; AgentServer exposes Handler and the agent's current
// allocation.
type (
	ArbiterServer = rpc.ArbiterServer
	AgentServer   = rpc.AgentServer
	ArbiterClient = rpc.ArbiterClient
	AgentClient   = rpc.AgentClient
	// ShardedArbiter is another name for ArbiterServer, kept for the
	// benchmark driver that compiles against it.
	ShardedArbiter = ArbiterServer
	// RoundRing traces the last auction rounds' phase spans; ArbiterServer
	// exposes its ring via RoundTrace(), /debug/rounds serves it as JSON,
	// and arbiterd dumps it on SIGQUIT.
	RoundRing = telemetry.RoundRing
)

// NewDebugMux returns the opt-in debug surface a daemon serves on its
// -debug-addr: /metrics and /healthz (also present on the main listener),
// /debug/rounds over ring (nil serves an empty trace) and net/http/pprof
// under /debug/pprof/. It is a separate mux precisely so profiling endpoints
// never ride on the public protocol listener.
func NewDebugMux(ring *RoundRing) http.Handler {
	return telemetry.DebugMux(telemetry.Default(), ring)
}

// Wire types crossing the protocol boundary.
type (
	// RegisterResponse acknowledges an agent registration.
	RegisterResponse = rpc.RegisterResponse
	// StatusResponse reports the arbiter's cluster and auction state.
	StatusResponse = rpc.StatusResponse
	// AuctionResponse reports one auction round's decisions.
	AuctionResponse = rpc.AuctionResponse
	// WireAlloc is the serialised form of a GPU allocation; ToAlloc converts
	// it back to a themis.Alloc.
	WireAlloc = rpc.WireAlloc
)

// ArbiterConfig carries the arbiter's tunables. Values are used verbatim —
// FairnessKnob 0 really means f = 0 (every app receives offers) — so start
// from DefaultArbiterConfig to get the paper's settings; a zero-valued
// LeaseDuration is rejected as invalid.
type ArbiterConfig struct {
	// FairnessKnob is f ∈ [0,1] (§5).
	FairnessKnob float64
	// LeaseDuration is the GPU lease length in scheduling minutes.
	LeaseDuration float64
}

// DefaultArbiterConfig returns the configuration the paper converges on
// (§8.2): f = 0.8 and a 20-minute lease.
func DefaultArbiterConfig() ArbiterConfig {
	def := core.DefaultConfig()
	return ArbiterConfig{FairnessKnob: def.FairnessKnob, LeaseDuration: def.LeaseDuration}
}

// NewShardedArbiter builds the Themis cross-app Arbiter for a cluster and
// wraps it in its HTTP server. It partitions topo into shards arbiter
// shards, each running partial-allocation auctions over its own capacity
// slice; RunAuction runs the per-shard auctions concurrently and then the
// cross-shard reconciliation round. Apps are homed on shards by consistent
// hashing, so any process that knows the topology and shard count computes
// the same routing. One shard is the unsharded arbiter. Invalid
// configurations return errors.
func NewShardedArbiter(topo *themis.Topology, cfg ArbiterConfig, shards int) (*ArbiterServer, error) {
	if topo == nil {
		return nil, fmt.Errorf("daemon: nil topology")
	}
	s, err := rpc.NewArbiterServer(topo, core.Config{
		FairnessKnob:  cfg.FairnessKnob,
		LeaseDuration: cfg.LeaseDuration,
	}, shards)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	return s, nil
}

// NewArbiterServer is NewShardedArbiter with one shard, kept for the
// benchmark driver that compiles against it.
func NewArbiterServer(topo *themis.Topology, cfg ArbiterConfig) (*ArbiterServer, error) {
	return NewShardedArbiter(topo, cfg, 1)
}

// NewAgentServer builds one app's Themis Agent — answering fairness probes
// and preparing bids with the app-appropriate hyperparameter tuner — and
// wraps it in its HTTP server.
func NewAgentServer(topo *themis.Topology, app *themis.App) (*AgentServer, error) {
	if topo == nil {
		return nil, fmt.Errorf("daemon: nil topology")
	}
	if app == nil {
		return nil, fmt.Errorf("daemon: nil app")
	}
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("daemon: invalid app %s: %w", app.ID, err)
	}
	agent := core.NewAgent(topo, app, hyperparam.ForApp(app), nil)
	return rpc.NewAgentServer(agent), nil
}

// NewArbiterClient returns a client for an arbiter daemon's base URL.
func NewArbiterClient(baseURL string) *ArbiterClient { return rpc.NewArbiterClient(baseURL) }

// NewAgentClient returns a client for an agent daemon's base URL.
func NewAgentClient(baseURL string) *AgentClient { return rpc.NewAgentClient(baseURL) }
