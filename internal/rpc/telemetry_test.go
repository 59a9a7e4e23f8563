package rpc

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/telemetry"
)

// TestAuctionRoundRecordsTelemetry pins the serving layer's round
// instrumentation at N = 1 and N = 2: a completed round advances every
// shard's rounds counter, lands in each shard's trace ring with its phase
// spans, and updates the occupancy gauges; the deployment records its coarse
// phases and reconcile telemetry. RoundTrace serves the one shard's ring at
// N = 1 and the coarse ring above it. Counters on the process registry are
// shared across the test binary (get-or-create semantics, and shard "0" is
// the same series at every N), so assertions use deltas.
func TestAuctionRoundRecordsTelemetry(t *testing.T) {
	topo := testTopo(t)
	cfg := core.Config{FairnessKnob: 0.5, LeaseDuration: 20}
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			server := newServer(t, topo, cfg, n)
			app := testApp(fmt.Sprintf("tel-app-%d", n), 2, 200)
			home := server.RegisterBidder(core.NewAgent(topo, app, hyperparam.ForApp(app), nil))

			rounds := make([]uint64, n)
			var offeredBefore, offeredAfter uint64
			for i := range n {
				rounds[i] = server.Shard(i).tel.rounds.Value()
				offeredBefore += server.Shard(i).tel.offered.Value()
			}
			if _, err := server.RunAuction(0); err != nil {
				t.Fatal(err)
			}

			for i := range n {
				e := server.Shard(i)
				if got := e.tel.rounds.Value(); got != rounds[i]+1 {
					t.Errorf("shard %d rounds counter advanced by %d, want 1", i, got-rounds[i])
				}
				offeredAfter += e.tel.offered.Value()
				if len(e.RoundTrace().Snapshot()) != 1 {
					t.Errorf("shard %d ring holds %d rounds, want 1", i, len(e.RoundTrace().Snapshot()))
				}
			}
			if got := offeredAfter - offeredBefore; got != uint64(topo.TotalGPUs()) {
				t.Errorf("offered counters advanced by %d, want the whole free cluster (%d)", got, topo.TotalGPUs())
			}
			e := server.Shard(home)
			if got := e.tel.agents.Value(); got != 1 {
				t.Errorf("home shard's agents gauge = %d, want 1", got)
			}
			rd := e.RoundTrace().Snapshot()[0]
			if rd.Shard != strconv.Itoa(home) || rd.Agents != 1 || rd.Offered != e.topo.TotalGPUs() {
				t.Errorf("home shard's trace round fields wrong: %+v", rd)
			}
			hasSpans(t, rd, "reclaim", "probe", "bid", "solve", "leftover", "grant")

			if len(server.RoundTrace().Snapshot()) != 1 {
				t.Fatalf("RoundTrace holds %d rounds, want 1", len(server.RoundTrace().Snapshot()))
			}
			top := server.RoundTrace().Snapshot()[0]
			if n == 1 {
				if top != rd {
					t.Errorf("RoundTrace at N = 1 serves %+v, not the shard's round %+v", top, rd)
				}
			} else {
				if top.Shard != "all" {
					t.Errorf("RoundTrace round shard = %q, want all", top.Shard)
				}
				hasSpans(t, top, "shards", "reconcile", "deliver")
			}
			recRounds, _, spent := server.ReconcileStats()
			if recRounds != 1 {
				t.Errorf("ReconcileStats rounds = %d, want 1", recRounds)
			}
			if spent <= 0 {
				t.Errorf("ReconcileStats spent = %v, want > 0", spent)
			}

			// An empty round — no agents registered, so every shard's
			// auctionRound returns before offering anything — still counts
			// and is still traced; a quiet arbiter must be visibly quiet. The
			// CI smoke greps for exactly this behaviour.
			idle := newServer(t, topo, cfg, n)
			before := idle.Shard(0).tel.rounds.Value()
			if _, err := idle.RunAuction(0); err != nil {
				t.Fatal(err)
			}
			if got := idle.Shard(0).tel.rounds.Value(); got != before+1 {
				t.Errorf("empty round advanced rounds counter by %d, want 1", got-before)
			}
			if len(idle.RoundTrace().Snapshot()) != 1 {
				t.Errorf("idle server's trace ring holds %d rounds, want 1", len(idle.RoundTrace().Snapshot()))
			}

			// The series surface on the process registry under every shard's
			// label, ready for /metrics, beside the deployment-wide ones.
			var b strings.Builder
			if err := telemetry.Default().WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			want := []string{
				fmt.Sprintf(`themis_auction_phase_seconds_count{phase="solve",shard="%d"}`, home),
				"themis_sharded_rounds_total",
				`themis_sharded_phase_seconds_count{phase="reconcile"}`,
			}
			for i := range n {
				want = append(want, fmt.Sprintf(`themis_auction_rounds_total{shard="%d"}`, i), fmt.Sprintf(`themis_free_gpus{shard="%d"}`, i))
			}
			for _, w := range want {
				if !strings.Contains(b.String(), w) {
					t.Errorf("exposition missing %q", w)
				}
			}
		})
	}
}

// hasSpans fails t unless rd has a span of every name.
func hasSpans(t *testing.T, rd telemetry.Round, names ...string) {
	t.Helper()
	have := make(map[string]bool)
	for _, sp := range rd.Spans() {
		have[sp.Name] = true
	}
	for _, name := range names {
		if !have[name] {
			t.Errorf("round missing %q span (has %v)", name, rd.Spans())
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
	server := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 1)
	server.RegisterBidder(&simBidder{id: "wants-four", demand: 4, weight: 10})
	server.RegisterBidder(&simBidder{id: "sated", demand: 0, weight: 1})

	e := server.Shard(0)
	nothing := e.tel.nothing.Value()
	payments := e.tel.phases["payments"].Count()
	if _, err := server.RunAuction(0); err != nil {
		t.Fatal(err)
	}
	ph := server.Arbiter().LastRound()
	if ph.Winners != 1 || ph.WinnersWithNothing != 1 {
		t.Fatalf("round had %d winners and %d with nothing, want 1 and 1", ph.Winners, ph.WinnersWithNothing)
	}
	if ph.Payments <= 0 || ph.Payments > ph.Solve {
		t.Errorf("payments took %v of a %v solve", ph.Payments, ph.Solve)
	}
	if got := e.tel.nothing.Value() - nothing; got != 1 {
		t.Errorf("winners-with-nothing counter advanced by %d, want 1", got)
	}
	if got := e.tel.phases["payments"].Count() - payments; got != 1 {
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
		`themis_auction_winners_with_nothing_total{shard="0"}`,
		`themis_auction_phase_seconds_count{phase="payments",shard="0"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
