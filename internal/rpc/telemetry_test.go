package rpc

import (
	"slices"
	"strings"
	"testing"

	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/telemetry"
)

// TestAuctionRoundRecordsTelemetry pins the serving layer's round
// instrumentation: a completed round advances the rounds counter, lands in
// the trace ring with its phase spans, and updates the occupancy gauges.
// Counters on the process registry are shared across the test binary
// (get-or-create semantics), so assertions use deltas.
func TestAuctionRoundRecordsTelemetry(t *testing.T) {
	topo := testTopo(t)
	arb, err := core.NewArbiter(topo, core.Config{FairnessKnob: 0.5, LeaseDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	server := NewArbiterServer(arb)
	app := testApp("tel-app", 2, 200)
	server.RegisterBidder(core.NewAgent(topo, app, hyperparam.ForApp(app), nil))

	rounds := server.tel.rounds.Value()
	offered := server.tel.offered.Value()
	if _, err := server.RunAuction(0); err != nil {
		t.Fatal(err)
	}

	if got := server.tel.rounds.Value(); got != rounds+1 {
		t.Errorf("rounds counter advanced by %d, want 1", got-rounds)
	}
	if got := server.tel.offered.Value(); got != offered+uint64(topo.TotalGPUs()) {
		t.Errorf("offered counter advanced by %d, want the whole free cluster (%d)", got-offered, topo.TotalGPUs())
	}
	if got := server.tel.agents.Value(); got != 1 {
		t.Errorf("agents gauge = %d, want 1", got)
	}

	if server.RoundTrace().Len() != 1 {
		t.Fatalf("trace ring holds %d rounds, want 1", server.RoundTrace().Len())
	}
	rd := server.RoundTrace().Snapshot()[0]
	if rd.Shard != "single" || rd.Agents != 1 || rd.Offered != topo.TotalGPUs() {
		t.Errorf("trace round fields wrong: %+v", rd)
	}
	names := make(map[string]bool)
	for _, sp := range rd.Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"reclaim", "probe", "bid", "solve", "leftover", "grant"} {
		if !names[want] {
			t.Errorf("trace round missing %q span (has %v)", want, rd.Spans())
		}
	}

	// An empty round — no agents registered, so auctionRound returns before
	// offering anything — still counts and is still traced; a quiet arbiter
	// must be visibly quiet. The CI smoke greps for exactly this behaviour.
	arb2, err := core.NewArbiter(topo, core.Config{FairnessKnob: 0.5, LeaseDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	idle := NewArbiterServer(arb2)
	rounds = server.tel.rounds.Value()
	if _, err := idle.RunAuction(0); err != nil {
		t.Fatal(err)
	}
	if got := idle.tel.rounds.Value(); got != rounds+1 {
		t.Errorf("empty round advanced rounds counter by %d, want 1", got-rounds)
	}
	if idle.RoundTrace().Len() != 1 {
		t.Errorf("idle server's trace ring holds %d rounds, want 1", idle.RoundTrace().Len())
	}

	// The series surface on the process registry under the single-shard
	// label, ready for /metrics.
	var b strings.Builder
	if err := telemetry.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`themis_auction_rounds_total{shard="single"}`,
		`themis_auction_phase_seconds_count{phase="solve",shard="single"}`,
		`themis_free_gpus{shard="single"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestShardedRoundRecordsTelemetry pins the sharded layer's round trace: the
// global ring records the coarse phases and every shard label appears on the
// per-shard series.
func TestShardedRoundRecordsTelemetry(t *testing.T) {
	topo := testTopo(t)
	s, err := NewShardedArbiterServer(topo, core.Config{FairnessKnob: 0.5, LeaseDuration: 20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	app := testApp("tel-sharded-app", 2, 200)
	s.RegisterBidder(core.NewAgent(topo, app, hyperparam.ForApp(app), nil))

	if _, err := s.RunAuction(0); err != nil {
		t.Fatal(err)
	}

	if s.RoundTrace().Len() != 1 {
		t.Fatalf("global ring holds %d rounds, want 1", s.RoundTrace().Len())
	}
	rd := s.RoundTrace().Snapshot()[0]
	if rd.Shard != "all" {
		t.Errorf("global round shard = %q, want all", rd.Shard)
	}
	names := make(map[string]bool)
	for _, sp := range rd.Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"shards", "reconcile", "deliver"} {
		if !names[want] {
			t.Errorf("global round missing %q span (has %v)", want, rd.Spans())
		}
	}
	for i := 0; i < s.NumShards(); i++ {
		if s.Shard(i).RoundTrace().Len() != 1 {
			t.Errorf("shard %d ring holds %d rounds, want 1", i, s.Shard(i).RoundTrace().Len())
		}
	}

	rounds, _, spent := s.ReconcileStats()
	if rounds != 1 {
		t.Errorf("ReconcileStats rounds = %d, want 1", rounds)
	}
	if spent <= 0 {
		t.Errorf("ReconcileStats spent = %v, want > 0", spent)
	}

	var b strings.Builder
	if err := telemetry.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`themis_auction_rounds_total{shard="0"}`,
		`themis_auction_rounds_total{shard="1"}`,
		"themis_sharded_rounds_total",
		`themis_sharded_phase_seconds_count{phase="reconcile"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRoundObservesPaymentsAndEmptyAwards pins the hidden-payment readouts of
// a round with a winner: the payments span sits at the tail of solve and
// feeds its phase histogram, and a participant whose award came to nothing
// advances themis_auction_winners_with_nothing_total. The round's spans are
// exactly roundPhaseNames, none dropped for want of a slot; every shard of a
// sharded server records its rounds through the same path.
func TestRoundObservesPaymentsAndEmptyAwards(t *testing.T) {
	topo := testTopo(t)
	arb, err := core.NewArbiter(topo, core.Config{FairnessKnob: 0, LeaseDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	server := NewArbiterServer(arb)
	server.RegisterBidder(&simBidder{id: "wants-four", demand: 4, weight: 10})
	server.RegisterBidder(&simBidder{id: "sated", demand: 0, weight: 1})

	nothing := server.tel.nothing.Value()
	payments := server.tel.phases["payments"].Count()
	if _, err := server.RunAuction(0); err != nil {
		t.Fatal(err)
	}
	ph := arb.LastRound()
	if ph.Winners != 1 || ph.WinnersWithNothing != 1 {
		t.Fatalf("round had %d winners and %d with nothing, want 1 and 1", ph.Winners, ph.WinnersWithNothing)
	}
	if ph.Payments <= 0 || ph.Payments > ph.Solve {
		t.Errorf("payments took %v of a %v solve", ph.Payments, ph.Solve)
	}
	if got := server.tel.nothing.Value() - nothing; got != 1 {
		t.Errorf("winners-with-nothing counter advanced by %d, want 1", got)
	}
	if got := server.tel.phases["payments"].Count() - payments; got != 1 {
		t.Errorf("payments histogram observed %d rounds, want 1", got)
	}

	rd := server.RoundTrace().Snapshot()[0]
	var names []string
	spans := make(map[string]telemetry.Span)
	for _, sp := range rd.Spans() {
		names = append(names, sp.Name)
		spans[sp.Name] = sp
	}
	if !slices.Equal(names, roundPhaseNames) {
		t.Fatalf("round spans %v, want %v", names, roundPhaseNames)
	}
	pay, solve := spans["payments"], spans["solve"]
	if pay.Dur != ph.Payments || pay.Start+pay.Dur != solve.Start+solve.Dur {
		t.Errorf("payments span %+v does not end the solve span %+v", pay, solve)
	}

	var b strings.Builder
	if err := telemetry.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`themis_auction_winners_with_nothing_total{shard="single"}`,
		`themis_auction_phase_seconds_count{phase="payments",shard="single"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
