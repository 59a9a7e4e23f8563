package rpc

import (
	"themis/internal/telemetry"
)

// serverTelemetry bundles the metric handles one ArbiterServer records after
// every auction round. Handles are created once, when the server is built,
// so the per-round record path is pure atomic stores — it adds no allocations
// to the zero-alloc auction hot path.
//
// All series carry a shard label: "single" for an unsharded deployment,
// the shard index for shards of a ShardedArbiterServer. Registration is
// get-or-create on the process registry, so tests and benchmarks that build
// many servers share handles instead of growing the registry.
type serverTelemetry struct {
	rounds   *telemetry.Counter
	errors   *telemetry.Counter
	offered  *telemetry.Counter
	granted  *telemetry.Counter
	leftover *telemetry.Counter
	winners  *telemetry.Counter
	nothing  *telemetry.Counter // participants whose award came to nothing

	roundDur *telemetry.Histogram
	// phases maps round-trace span names (reclaim, probe, bid, solve,
	// payments, leftover, grant) to their latency histograms. The map is
	// immutable after construction; per-round lookups take no lock.
	phases map[string]*telemetry.Histogram

	agents   *telemetry.Gauge
	leases   *telemetry.Gauge
	freeGPUs *telemetry.Gauge
}

// roundPhaseNames are the span names an unsharded round can emit, in round
// order; payments is the hidden-payment tail of solve. The sharded round adds
// its own coarse spans (shards, reconcile, deliver) through shardedTelemetry.
var roundPhaseNames = []string{"reclaim", "probe", "bid", "solve", "payments", "leftover", "grant"}

func newServerTelemetry(reg *telemetry.Registry, shard string) *serverTelemetry {
	l := telemetry.L("shard", shard)
	t := &serverTelemetry{
		rounds:   reg.Counter("themis_auction_rounds_total", "Completed auction rounds, including rounds with nothing to offer.", l),
		errors:   reg.Counter("themis_auction_errors_total", "Auction rounds aborted by an error.", l),
		offered:  reg.Counter("themis_auction_gpus_offered_total", "GPUs offered across all auction rounds.", l),
		granted:  reg.Counter("themis_auction_gpus_granted_total", "GPUs granted across all auction rounds.", l),
		leftover: reg.Counter("themis_auction_gpus_leftover_total", "GPUs left unallocated by the winner-determination pass, before the leftover pass.", l),
		winners:  reg.Counter("themis_auction_winners_total", "Auction winners (non-empty winning allocations).", l),
		nothing:  reg.Counter("themis_auction_winners_with_nothing_total", "Auction participants whose award came to nothing after hidden payments.", l),

		roundDur: reg.Histogram("themis_auction_round_seconds", "End-to-end auction round latency (reclaim through grant).", nil, l),
		phases:   make(map[string]*telemetry.Histogram, len(roundPhaseNames)),

		agents:   reg.Gauge("themis_agents_registered", "Agents currently registered.", l),
		leases:   reg.Gauge("themis_active_leases", "Leases currently active.", l),
		freeGPUs: reg.Gauge("themis_free_gpus", "GPUs free after the most recent round.", l),
	}
	for _, name := range roundPhaseNames {
		t.phases[name] = reg.Histogram("themis_auction_phase_seconds", "Auction round phase latency.", nil, l, telemetry.L("phase", name))
	}
	return t
}

// record folds one finished round into the counters, phase histograms and
// gauges, and appends it to the server's trace ring.
func (t *serverTelemetry) record(rd *telemetry.Round, ring *telemetry.RoundRing, leases, freeGPUs int) {
	t.rounds.Inc()
	t.offered.Add(uint64(rd.Offered))
	t.granted.Add(uint64(rd.Granted))
	t.leftover.Add(uint64(rd.Leftover))
	t.winners.Add(uint64(rd.Winners))
	t.roundDur.ObserveDuration(rd.Total)
	for _, sp := range rd.Spans() {
		if h := t.phases[sp.Name]; h != nil {
			h.ObserveDuration(sp.Dur)
		}
	}
	t.agents.Set(int64(rd.Agents))
	t.leases.Set(int64(leases))
	t.freeGPUs.Set(int64(freeGPUs))
	ring.Record(*rd)
}

// shardedTelemetry holds the deployment-wide handles of a sharded round: the
// coarse phases that exist only above the shards (the concurrent per-shard
// auctions, cross-shard reconciliation, aggregated delivery) plus the
// reconciliation volume counters.
type shardedTelemetry struct {
	rounds       *telemetry.Counter
	reconciled   *telemetry.Counter
	roundDur     *telemetry.Histogram
	shardsDur    *telemetry.Histogram
	reconcileDur *telemetry.Histogram
	deliverDur   *telemetry.Histogram
}

func newShardedTelemetry(reg *telemetry.Registry) *shardedTelemetry {
	return &shardedTelemetry{
		rounds:       reg.Counter("themis_sharded_rounds_total", "Completed sharded auction rounds (per-shard auctions + reconciliation + delivery)."),
		reconciled:   reg.Counter("themis_reconcile_gpus_total", "Leftover GPUs re-offered across shards by reconciliation rounds."),
		roundDur:     reg.Histogram("themis_sharded_round_seconds", "End-to-end sharded round latency.", nil),
		shardsDur:    reg.Histogram("themis_sharded_phase_seconds", "Sharded round phase latency.", nil, telemetry.L("phase", "shards")),
		reconcileDur: reg.Histogram("themis_sharded_phase_seconds", "Sharded round phase latency.", nil, telemetry.L("phase", "reconcile")),
		deliverDur:   reg.Histogram("themis_sharded_phase_seconds", "Sharded round phase latency.", nil, telemetry.L("phase", "deliver")),
	}
}
