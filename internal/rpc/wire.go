// Package rpc provides the networked Arbiter↔Agent protocol of the paper's
// prototype (§7): the Arbiter probes Agents for their finish-time fairness
// estimates, offers them available GPUs, collects bid tables and delivers
// winning allocations. The paper uses gRPC atop YARN; this package carries
// the same messages as JSON over HTTP using only the standard library, and
// powers the cmd/arbiterd and cmd/agentd daemons as well as fully in-process
// tests.
package rpc

import (
	"fmt"
	"sort"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/workload"
)

// AllocEntry is one machine's share of an allocation on the wire.
type AllocEntry struct {
	Machine int `json:"machine"`
	GPUs    int `json:"gpus"`
}

// WireAlloc is a GPU allocation vector in wire form.
type WireAlloc []AllocEntry

// ToWireAlloc converts an allocation to its wire form (machines ascending).
func ToWireAlloc(a cluster.Alloc) WireAlloc {
	out := make(WireAlloc, 0, len(a))
	for _, m := range a.Machines() {
		out = append(out, AllocEntry{Machine: int(m), GPUs: a[m]})
	}
	return out
}

// ToAlloc converts a wire allocation back to the in-memory form.
func (w WireAlloc) ToAlloc() (cluster.Alloc, error) {
	out := cluster.NewAlloc()
	for _, e := range w {
		if e.GPUs < 0 || e.Machine < 0 {
			return nil, fmt.Errorf("rpc: negative machine or GPU count in allocation")
		}
		if e.GPUs > 0 {
			out[cluster.MachineID(e.Machine)] += e.GPUs
		}
	}
	return out, nil
}

// RhoRequest asks an Agent for its current finish-time fairness estimate.
type RhoRequest struct {
	Now     float64   `json:"now"`
	Current WireAlloc `json:"current"`
}

// RhoResponse is the Agent's answer to a probe.
type RhoResponse struct {
	App string  `json:"app"`
	Rho float64 `json:"rho"`
}

// BidRequest offers GPUs to an Agent and asks for its bid table.
type BidRequest struct {
	Now     float64   `json:"now"`
	Offer   WireAlloc `json:"offer"`
	Current WireAlloc `json:"current"`
}

// BidRow is one row of a bid table on the wire.
type BidRow struct {
	Alloc WireAlloc `json:"alloc"`
	Rho   float64   `json:"rho"`
}

// BidResponse is the Agent's bid table.
type BidResponse struct {
	App  string   `json:"app"`
	Rows []BidRow `json:"rows"`
}

// ToBidTable converts a wire bid into the core form.
func (b BidResponse) ToBidTable() (core.BidTable, error) {
	table := core.BidTable{App: workload.AppID(b.App)}
	for _, r := range b.Rows {
		alloc, err := r.Alloc.ToAlloc()
		if err != nil {
			return core.BidTable{}, err
		}
		table.Entries = append(table.Entries, core.BidEntry{Alloc: alloc, Rho: r.Rho})
	}
	return table, nil
}

// FromBidTable converts a core bid table to the wire form.
func FromBidTable(t core.BidTable) BidResponse {
	out := BidResponse{App: string(t.App)}
	for _, e := range t.Entries {
		out.Rows = append(out.Rows, BidRow{Alloc: ToWireAlloc(e.Alloc), Rho: e.Rho})
	}
	return out
}

// AllocationMsg delivers a winning allocation (or a lease revocation when
// Alloc is empty) to an Agent.
type AllocationMsg struct {
	Now         float64   `json:"now"`
	Alloc       WireAlloc `json:"alloc"`
	FromAuction bool      `json:"from_auction"`
	LeaseExpiry float64   `json:"lease_expiry"`
}

// RegisterRequest announces an Agent to the Arbiter.
type RegisterRequest struct {
	App string `json:"app"`
	// Callback is the base URL of the Agent's HTTP server, e.g.
	// "http://10.0.0.7:7201".
	Callback string `json:"callback"`
	// MaxParallelism is the app's aggregate GPU demand, used for leftover
	// allocation when the Agent is not probed. Zero or less means the whole
	// cluster's capacity.
	MaxParallelism int `json:"max_parallelism"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	OK       bool    `json:"ok"`
	LeaseMin float64 `json:"lease_minutes"`
	// Updated reports that the app was already registered and its callback
	// and demand were refreshed in place (held GPUs and leases survive).
	Updated bool `json:"updated,omitempty"`
}

// StatusResponse summarises the Arbiter's view of the cluster.
type StatusResponse struct {
	Now          float64        `json:"now"`
	TotalGPUs    int            `json:"total_gpus"`
	FreeGPUs     int            `json:"free_gpus"`
	Agents       []string       `json:"agents"`
	Held         map[string]int `json:"held_gpus"`
	Auctions     int            `json:"auctions"`
	ActiveLeases int            `json:"active_leases"`
}

// AuctionResponse reports the outcome of one auction round.
type AuctionResponse struct {
	Now       float64              `json:"now"`
	Offered   int                  `json:"offered_gpus"`
	Decisions map[string]WireAlloc `json:"decisions"`
	// Reconciled counts the GPUs moved by the cross-shard reconciliation
	// round (always zero at N = 1).
	Reconciled int `json:"reconciled_gpus,omitempty"`
}

// ShardInfo is one arbiter shard's slice of a ShardStatusResponse.
type ShardInfo struct {
	Index        int      `json:"index"`
	TotalGPUs    int      `json:"total_gpus"`
	FreeGPUs     int      `json:"free_gpus"`
	Agents       []string `json:"agents"`
	ActiveLeases int      `json:"active_leases"`
	Auctions     int      `json:"auctions"`
}

// ShardStatusResponse is the arbiter's per-shard detail: capacity
// partitions and reconciliation telemetry.
type ShardStatusResponse struct {
	Now        float64     `json:"now"`
	Shards     []ShardInfo `json:"shards"`
	Reconciled int         `json:"reconciled_gpus"`
	Rounds     int         `json:"rounds"`
}

// sortedKeys returns map keys in a stable order for deterministic responses.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
