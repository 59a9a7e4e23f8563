package rpc

import (
	"context"
	"math"
	"time"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/shard"
	"themis/internal/workload"
)

// RemoteBidder adapts a registered remote Agent to the Arbiter's Bidder
// interface: every call becomes an HTTP request to the agent daemon. A
// failing, unreachable or lying agent degrades gracefully — it reports an
// out-of-auction ρ and an empty bid, so one bad agent never blocks the
// cluster's auctions.
//
// A RemoteBidder is immutable after construction: re-registration installs a
// fresh bidder instead of mutating the old one, so an auction round holding a
// snapshot of the previous bidder never races with the replacement.
type RemoteBidder struct {
	AppID   workload.AppID
	Client  *AgentClient
	Demand  int
	Gang    int
	Timeout time.Duration
	// Map is the partition of the shard this bidder is homed on: the agent
	// reasons about global machine IDs, the shard's Arbiter about local ones.
	Map *shard.Partition
}

// ID implements core.Bidder.
func (r *RemoteBidder) ID() workload.AppID { return r.AppID }

// Remote implements core.Remote: the server's fanout asks this bidder.
func (r *RemoteBidder) Remote() {}

func (r *RemoteBidder) ctx() (context.Context, context.CancelFunc) {
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return context.WithTimeout(context.Background(), timeout)
}

// wire converts a shard-local allocation straight into its wire form in
// global machine IDs. A partition numbers its machines in global order, so
// the entries stay sorted by machine.
func (r *RemoteBidder) wire(a cluster.Alloc) WireAlloc {
	out := make(WireAlloc, 0, len(a))
	for _, m := range a.Machines() {
		g, err := r.Map.GlobalID(m)
		if err != nil {
			panic("rpc: " + err.Error())
		}
		out = append(out, AllocEntry{Machine: int(g), GPUs: a[m]})
	}
	return out
}

// ReportRho implements core.Bidder over HTTP. Anything but a finite positive
// ρ — an unreachable agent, one with nothing left to run, or one answering
// garbage — reports the app as perfectly satisfied, so it never wins an
// auction it cannot consume and never poisons the Arbiter's ρ sort. A
// non-finite ρ counts as an error, like a failed call.
func (r *RemoteBidder) ReportRho(now float64, current cluster.Alloc) float64 {
	ctx, cancel := r.ctx()
	defer cancel()
	var resp RhoResponse
	err := r.Client.post(ctx, "/v1/rho", RhoRequest{Now: now, Current: r.wire(current)}, &resp)
	if err == nil && (math.IsNaN(resp.Rho) || math.IsInf(resp.Rho, 0)) {
		countError("/v1/rho")
	}
	if err != nil || !finitePositive(resp.Rho) {
		return 1
	}
	return resp.Rho
}

// finitePositive reports whether a remote ρ is usable: NaN fails every
// comparison, so it is rejected by rho > 0 like zero and negatives are.
func finitePositive(rho float64) bool { return rho > 0 && !math.IsInf(rho, 1) }

// PrepareBid implements core.Bidder over HTTP. Offers cross the wire in
// global machine IDs; the returned rows come back into the shard's local
// space. The answer is input from outside the process, so it is held to the
// contract the auction checks — this app's ID whatever the agent wrote, rows
// within the offer, an empty row, finite positive ρ — and an agent that
// breaks it degrades to the empty bid, like an unreachable one, instead of
// failing the round for every other bidder.
func (r *RemoteBidder) PrepareBid(now float64, offer, current cluster.Alloc) core.BidTable {
	ctx, cancel := r.ctx()
	defer cancel()
	var resp BidResponse
	if err := r.Client.post(ctx, "/v1/bid", BidRequest{Now: now, Offer: r.wire(offer), Current: r.wire(current)}, &resp); err != nil {
		return r.emptyBid()
	}
	bid, ok := r.acceptBid(resp.Rows, offer)
	if !ok {
		countError("/v1/bid")
		return r.emptyBid()
	}
	return bid
}

func (r *RemoteBidder) emptyBid() core.BidTable {
	return core.BidTable{App: r.AppID, Entries: []core.BidEntry{{Alloc: cluster.NewAlloc(), Rho: 1}}}
}

// acceptBid builds this app's bid from the agent's wire rows, each row's
// machines translated into the shard's local IDs, and validates it against
// the (local) offer. A negative count, a machine outside the partition or a
// non-finite ρ refuses the whole bid.
func (r *RemoteBidder) acceptBid(rows []BidRow, offer cluster.Alloc) (core.BidTable, bool) {
	bid := core.BidTable{App: r.AppID, Entries: make([]core.BidEntry, 0, len(rows))}
	for _, row := range rows {
		if !finitePositive(row.Rho) {
			return bid, false
		}
		alloc := cluster.NewAlloc()
		for _, e := range row.Alloc {
			local, ok := r.Map.LocalID(cluster.MachineID(e.Machine))
			if !ok || e.GPUs < 0 {
				return bid, false
			}
			if e.GPUs > 0 {
				alloc[local] += e.GPUs
			}
		}
		bid.Entries = append(bid.Entries, core.BidEntry{Alloc: alloc, Rho: row.Rho})
	}
	return bid, bid.Validate(offer) == nil
}

// UnmetParallelism implements core.Bidder using the registered demand.
func (r *RemoteBidder) UnmetParallelism(current cluster.Alloc) int {
	return max(r.Demand-current.Total(), 0)
}

// GangSize implements core.Bidder.
func (r *RemoteBidder) GangSize() int { return max(r.Gang, 1) }
