package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one benchmark metric. The two tables below are the single
// source for what a run emits; BENCHMARK.json repeats them for the driver and
// main_test.go asserts the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end metric
	// may worsen before a change counts as a regression; per-layer metrics
	// carry none.
	Bound float64
}

// endToEnd is what a user of the system waits for or pays. Every workload
// reports every one of them (the driver's contract), so the operation is
// defined per workload: one replay of the trace set, one sweep of the grid,
// one client-triggered auction round.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"apps_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.25},
	{"bytes_per_op", "B", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.2},
}

// perLayer is the ladder: one block per module, every block's parts summing
// to its whole (see the sum checks in checkSums). A traced run reports all of
// them; the ones a workload does not exercise read 0.
var perLayer = []metricDef{
	// The traced section itself.
	{"trace.ops", "count", "higher", 0},
	{"trace.timed_s", "s", "lower", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
	{"round_p90_ms", "ms", "lower", 0},

	// internal/sim: the event core. self_s is run_s minus what the policy and
	// packer wrappers saw.
	{"sim.new_s", "s", "lower", 0},
	{"sim.run_s", "s", "lower", 0},
	{"sim.self_s", "s", "lower", 0},
	{"sim.rounds", "count", "lower", 0},
	{"sim.timeline_events", "count", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.max_rho", "ratio", "lower", 0},
	{"sim.jain_index", "ratio", "higher", 0},

	// internal/schedulers: time inside Policy.Allocate per policy, and the
	// fidelity readouts (flat-cluster cells, mean over the grid's seeds).
	{"schedulers.allocate_s.themis", "s", "lower", 0},
	{"schedulers.allocate_s.gandiva", "s", "lower", 0},
	{"schedulers.allocate_s.tiresias", "s", "lower", 0},
	{"schedulers.allocate_s.slaq", "s", "lower", 0},
	{"schedulers.self_s", "s", "lower", 0},
	{"schedulers.max_rho.themis", "ratio", "lower", 0},
	{"schedulers.max_rho.gandiva", "ratio", "lower", 0},
	{"schedulers.max_rho.tiresias", "ratio", "lower", 0},
	{"schedulers.max_rho.slaq", "ratio", "lower", 0},
	{"schedulers.jain.themis", "ratio", "higher", 0},
	{"schedulers.jain.gandiva", "ratio", "higher", 0},
	{"schedulers.jain.tiresias", "ratio", "higher", 0},
	{"schedulers.jain.slaq", "ratio", "higher", 0},

	// internal/core: the auction round by phase (ArbiterStats / RoundPhases,
	// summed over shards).
	{"core.rounds", "count", "lower", 0},
	{"core.participants", "count", "lower", 0},
	{"core.winners", "count", "higher", 0},
	{"core.win_ratio", "ratio", "higher", 0},
	{"core.gpus_offered", "count", "lower", 0},
	{"core.gpus_leftover", "count", "lower", 0},
	{"core.probe_s", "s", "lower", 0},
	{"core.bid_s", "s", "lower", 0},
	{"core.solve_s", "s", "lower", 0},
	{"core.leftover_s", "s", "lower", 0},
	{"core.round_s", "s", "lower", 0},
	{"core.hidden_payment_s", "s", "lower", 0},

	// internal/solver: telemetry-registry deltas.
	{"solver.solves_exact", "count", "lower", 0},
	{"solver.solves_greedy", "count", "lower", 0},
	{"solver.pair_moves", "count", "lower", 0},
	{"solver.solves_per_round", "ratio", "lower", 0},

	// internal/pack and internal/placement: the packer boundary, and the three
	// placement engines replayed over the tuples captured there.
	{"pack.place_calls", "count", "lower", 0},
	{"pack.place_s", "s", "lower", 0},
	{"pack.place_us", "us", "lower", 0},
	{"placement.pick_us", "us", "lower", 0},
	{"placement.pickinto_us", "us", "lower", 0},

	// internal/trace and internal/workload: input decoding and generation.
	{"trace.bytes", "B", "lower", 0},
	{"trace.decode_s", "s", "lower", 0},
	{"trace.toapps_s", "s", "lower", 0},
	{"trace.decode_allocs", "count", "lower", 0},
	{"workload.generate_s", "s", "lower", 0},

	// The sweep worker pool.
	{"sweep.runs", "count", "higher", 0},
	{"sweep.parallel_s", "s", "lower", 0},
	{"sweep.serial_s", "s", "lower", 0},
	{"sweep.speedup", "ratio", "higher", 0},
	{"sweep.worker_util", "ratio", "higher", 0},

	// internal/rpc: the serving round over loopback HTTP.
	{"rpc.round_s", "s", "lower", 0},
	{"rpc.reclaim_s", "s", "lower", 0},
	{"rpc.grant_s", "s", "lower", 0},
	{"rpc.deliver_s", "s", "lower", 0},
	{"rpc.trigger_overhead_s", "s", "lower", 0},
	{"rpc.agent.rho_calls", "count", "lower", 0},
	{"rpc.agent.bid_calls", "count", "lower", 0},
	{"rpc.agent.allocation_calls", "count", "lower", 0},
	{"rpc.agent.rho_s", "s", "lower", 0},
	{"rpc.agent.bid_s", "s", "lower", 0},
	{"rpc.agent.allocation_s", "s", "lower", 0},
	{"rpc.transport_s", "s", "lower", 0},
	{"rpc.bytes_per_round", "B", "lower", 0},
	{"rpc.conns_opened", "count", "lower", 0},
	{"rpc.conn_reuse_ratio", "ratio", "higher", 0},
	{"rpc.client_errors", "count", "lower", 0},
	{"rpc.wire.encode_us", "us", "lower", 0},
	{"rpc.wire.decode_us", "us", "lower", 0},

	// The sharded round, and the synthetic bidders' own cost (to subtract).
	{"shard.shards_s", "s", "lower", 0},
	{"shard.reconcile_s", "s", "lower", 0},
	{"shard.deliver_s", "s", "lower", 0},
	{"shard.reconciled_gpus", "count", "lower", 0},
	{"shard.imbalance", "ratio", "lower", 0},
	{"bidder.probe_s", "s", "lower", 0},
	{"bidder.bid_s", "s", "lower", 0},

	// Process-wide.
	{"telemetry.scrape_us", "us", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.gomaxprocs", "count", "higher", 0},
}

// metricValue is one emitted metric, in the driver's output shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds one run's values for a fixed table of definitions. Every
// defined metric is present from the start (value 0), and setting a name the
// table does not define is a programming error.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.values[d.Name] = 0
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.values[name]; !ok {
		panic("bench: metric " + name + " is not in the table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is not finite: %v", name, v))
	}
	m.values[name] = v
}

func (m *metricSet) get(name string) float64 { return m.values[name] }

// export renders the set in table order.
func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}

// median returns the middle of the values (mean of the middle two).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (p in (0,1]).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (its default "exclusive" method) — the rule the driver applies to
// ten runs, reproduced so -repeat reports the same spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
