package core

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/race"
	"themis/internal/workload"
)

// valuationFixture builds n agents with varied gang sizes and current
// allocations over a 16×4 cluster, plus the free vector left over.
func valuationFixture(tb testing.TB, n int) ([]probedAgent, cluster.Alloc) {
	return valuationFixtureOn(tb, n, 16)
}

// valuationFixtureOn is valuationFixture over machines×4 GPUs; every second
// agent holds 2 GPUs, so n may reach four times machines.
func valuationFixtureOn(tb testing.TB, n, machines int) ([]probedAgent, cluster.Alloc) {
	tb.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: machines, GPUs: 4, SlotSize: 2, GPU: cluster.GPUTypeP100}},
		MachinesPerRack: 8,
	}.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cs := cluster.NewState(topo)
	profiles := []placement.Profile{placement.VGG16, placement.ResNet50, placement.GNMT}
	ps := make([]probedAgent, 0, n)
	for i := 0; i < n; i++ {
		id := workload.AppID(fmt.Sprintf("val-%03d", i))
		gang := 1 << (i % 3) // gangs of 1, 2, 4
		app := testApp(id, 0, profiles[i%len(profiles)], 1+i%3, 400, gang)
		ag := agentFor(topo, app)
		cur := cluster.NewAlloc()
		if i%2 == 1 { // odd agents already hold GPUs on machine i%machines
			cur = cluster.Alloc{cluster.MachineID(i % machines): 2}
			if err := cs.Grant(string(id), cur); err != nil {
				tb.Fatal(err)
			}
		}
		ps = append(ps, probedAgent{state: AgentState{Agent: ag, Current: cur}, id: id, rho: float64(n - i)})
	}
	return ps, cs.FreeVector()
}

// foreignBidder wraps an Agent behind a type the valuator cannot fast-path,
// standing in for the rpc package's remote bidders.
type foreignBidder struct{ *Agent }

// TestBatchedBidEquivalence pins the valuator's contract: batching a round's
// bid preparation through one BidValuator produces tables bit-identical to
// standalone per-agent PrepareBid calls, round after scratch-reusing round,
// for in-process Agents and for foreign Bidders alike. The rounds alternate
// between two offers, and agents of gangs 1, 2 and 4 that hold nothing ask
// for some row sizes in common — rows the round draws once and shares — while
// one agent that holds nothing bids placement-blind and draws its own.
func TestBatchedBidEquivalence(t *testing.T) {
	ps, free := valuationFixture(t, 12)
	// Route one participant through the foreign-Bidder fallback path.
	ps[5].state.Agent = foreignBidder{ps[5].state.Agent.(*Agent)}
	ps[6].state.Agent.(*Agent).PlacementBlind = true
	half := cluster.NewAlloc()
	for m, n := range free {
		half[m] = n - n/2*(int(m)%2) // every second machine, half its GPUs
	}
	offers := []cluster.Alloc{free, half}
	want := make([][]BidTable, len(offers))
	for k, offer := range offers {
		for _, p := range ps {
			want[k] = append(want[k], p.state.Agent.PrepareBid(0, offer, p.state.Current))
		}
	}
	gangs, asked := map[int]bool{}, map[int]int{}
	for i, p := range ps {
		if ag, ok := p.state.Agent.(*Agent); ok && !ag.PlacementBlind && p.state.Current.Total() == 0 {
			gangs[ag.GangSize()] = true
			for _, e := range want[0][i].Entries[1:] {
				asked[e.Alloc.Total()]++
			}
		}
	}
	if shared := slices.ContainsFunc(slices.Collect(maps.Values(asked)), func(n int) bool { return n > 1 }); len(gangs) < 3 || !shared {
		t.Fatalf("agents holding nothing have gangs %v and ask for row sizes %v: the fixture shares no row", gangs, asked)
	}

	var v BidValuator
	states, bidding := bidAll(ps)
	for round := 0; round < 5; round++ {
		k := round / 2 % 2 // free, free, half, half, free: reused rounds and changed offers
		got := v.prepareBids(0, offers[k], states, bidding)
		if len(got) != len(want[k]) {
			t.Fatalf("round %d: %d tables, want %d", round, len(got), len(want[k]))
		}
		for i := range want[k] {
			if !reflect.DeepEqual(got[i], want[k][i]) {
				t.Errorf("round %d: table %d differs:\n got %v\nwant %v", round, i, got[i], want[k][i])
			}
		}
	}
}

// TestBidValuationBatchZeroAlloc pins the core half of the PR's allocation
// contract (TestEventCoreZeroAlloc in internal/sim is the sim half): once the
// valuator's scratch, entry buffers (rows and their maps) and picker have
// reached steady-state capacity, preparing every participant's bid table is
// 0 allocs/op — the next round's prepareBids is all the recycling there is.
// The wide case holds apps of 64, 80, 96 and 9 jobs to it: the split queue,
// the served-share clearing and the gang-size tally allocate nothing either.
func TestBidValuationBatchZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	for name, fixture := range map[string]func(testing.TB) ([]probedAgent, cluster.Alloc){
		"16 agents": func(tb testing.TB) ([]probedAgent, cluster.Alloc) { return valuationFixture(tb, 16) },
		"wide":      wideFixture,
	} {
		t.Run(name, func(t *testing.T) {
			ps, free := fixture(t)
			states, bidding := bidAll(ps)
			var v BidValuator
			for i := 0; i < 8; i++ { // warm up scratch and entry buffers
				v.prepareBids(0, free, states, bidding)
			}
			allocs := testing.AllocsPerRun(200, func() {
				v.prepareBids(0, free, states, bidding)
			})
			if allocs != 0 {
				t.Errorf("steady-state valuation round allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestStandalonePrepareBidAllocs pins what a warmed standalone PrepareBid
// allocates, agent by agent over the small and the wide fixtures: the
// valuator it builds (its picker's pool and tallies, the candidate sizes),
// the table and its row maps. Valuing the rows adds nothing: each row's takes
// are logged in the estimator's own split log, not in a buffer of the call.
func TestStandalonePrepareBidAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; the allocation bound is checked without -race")
	}
	for name, c := range map[string]struct {
		fixture func(testing.TB) ([]probedAgent, cluster.Alloc)
		limit   float64 // summed over the agents: what valuing rows from maps allocated
	}{
		"16 agents": {func(tb testing.TB) ([]probedAgent, cluster.Alloc) { return valuationFixture(tb, 16) }, 355},
		"wide":      {wideFixture, 224},
	} {
		t.Run(name, func(t *testing.T) {
			ps, free := c.fixture(t)
			total := 0.0
			for _, p := range ps {
				prepare := func() { p.state.Agent.PrepareBid(0, free, p.state.Current) }
				prepare()
				total += testing.AllocsPerRun(50, prepare)
			}
			if total > c.limit {
				t.Errorf("a warmed standalone PrepareBid of every agent allocates %.0f objects, want at most %.0f", total, c.limit)
			}
		})
	}
}

// TestAuctionRoundAllocs pins what a warmed OfferResources round may allocate:
// what it hands back — a map or two per auction winner and per leftover
// recipient, plus a constant for the round's own slices — and nothing per
// participant. Bid rows are recycled, the solver reads them by index, awards
// are one slice, a bidder that takes nothing gets no map, the leftover passes
// keep their candidates in the Arbiter's scratch. Every agent bids (f = 0);
// doubling the participants with sated apps, which bid only their empty row
// and can use no leftovers, changes neither the decisions nor the count.
func TestAuctionRoundAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; the allocation bound is checked without -race")
	}
	ps, free := valuationFixture(t, 16)
	topo := ps[0].state.Agent.(*Agent).Estimator.Topo
	var states []AgentState
	for _, p := range ps {
		states = append(states, p.state)
	}
	doubled := slices.Clone(states)
	for i := 0; i < len(states); i++ {
		app := testApp(workload.AppID(fmt.Sprintf("sated-%02d", i)), 0, placement.VGG16, 1, 400, 1)
		doubled = append(doubled, AgentState{Agent: agentFor(topo, app), Current: cluster.Alloc{cluster.MachineID(i): 1}})
	}
	measure := func(states []AgentState) (float64, []Allocation) {
		arb, err := NewArbiter(topo, Config{FairnessKnob: 0, LeaseDuration: 20})
		if err != nil {
			t.Fatal(err)
		}
		var decisions []Allocation
		round := func() {
			if decisions, err = arb.OfferResources(0, free, states); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ { // warm up the valuator, the solver pool and the candidate scratch
			round()
		}
		if got := arb.LastRound().Participants; got != len(states) {
			t.Fatalf("%d participants of %d agents; the fixture wants everyone bidding", got, len(states))
		}
		return testing.AllocsPerRun(100, round), decisions
	}
	base, decisions := measure(states)
	twice, twiceDecisions := measure(doubled)
	if len(decisions) < 4 || !reflect.DeepEqual(decisions, twiceDecisions) {
		t.Fatalf("sated participants changed the round: %d decisions, then %d", len(decisions), len(twiceDecisions))
	}
	// The ID-keyed round this replaced allocated 261 objects here and 315
	// with the participants doubled; with a fresh probe slice, awards and log
	// valuations per round and a Current clone per leftover recipient, 72.
	// Now it is 43: the win's or the grant's map, a winner's merged holding
	// for the leftover pass and the decisions slice.
	if limit := float64(4 + 3*len(decisions)); base > limit {
		t.Errorf("warmed round allocates %.0f objects for %d decisions, want at most %.0f", base, len(decisions), limit)
	}
	if twice > base {
		t.Errorf("doubling the participants raised the round's allocations from %.0f to %.0f", base, twice)
	}
}

// TestAuctionRoundBytesFlat pins that a warmed round spends no bytes per
// agent that can use nothing: its probe, its participant mark, its award
// and its leftover check all reuse the Arbiter's scratch. At f = 0.8, sated
// agents, which can use no leftovers and rank below the fixture's 16
// demanding ones, go from n to 8n (a fifth of the added ones then bid their
// empty row); the bytes K warmed rounds allocate must not grow. The solver
// instance is the Arbiter's scratch too. TotalAlloc counts the whole
// process's bytes, though: a collection allocates a few of its own (48 bytes
// in about one run in four), and on two Ps a stray background allocation
// lands between the reads about one run in 150, so the test runs on one P
// with the collector off. Even so, a fresh process reads one or two objects
// more in one batch of rounds (48 bytes on the 64-agent side in about half
// the runs, 96 on the 512-agent side in about one in 30), so each side is the
// least of three batches.
func TestAuctionRoundBytesFlat(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; the byte bound is checked without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ps, free := valuationFixture(t, 16)
	states, _ := bidAll(ps)
	topo := states[0].Agent.(*Agent).Estimator.Topo
	const n, rounds = 64, 50
	measure := func(sated int) (uint64, []Allocation) {
		all := slices.Clone(states)
		for i := range sated {
			app := testApp(workload.AppID(fmt.Sprintf("sated-%04d", i)), 0, placement.VGG16, 1, 400, 1)
			all = append(all, AgentState{Agent: agentFor(topo, app), Current: cluster.Alloc{cluster.MachineID(i % 16): 1}})
		}
		arb, err := NewArbiter(topo, Config{FairnessKnob: 0.8, LeaseDuration: 20})
		if err != nil {
			t.Fatal(err)
		}
		var decisions []Allocation
		round := func() {
			if decisions, err = arb.OfferResources(0, free, all); err != nil {
				t.Fatal(err)
			}
		}
		for range 8 { // warm up the valuator and the Arbiter's scratch, solver instance included
			round()
		}
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range rounds {
				round()
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least, decisions
	}
	base, decisions := measure(n)
	wide, wideDecisions := measure(8 * n)
	t.Logf("%d rounds allocate %d bytes with %d sated agents, %d with %d", rounds, base, n, wide, 8*n)
	if len(decisions) < 4 || !reflect.DeepEqual(decisions, wideDecisions) {
		t.Fatalf("sated agents changed the round: %d decisions, then %d", len(decisions), len(wideDecisions))
	}
	if wide > base {
		t.Errorf("%d rounds allocate %d bytes with %d sated agents, %d with %d: the round spends per agent", rounds, base, n, wide, 8*n)
	}
}

// BenchmarkBidValuationBatch measures one auction round's batched bid
// preparation as the Arbiter drives it: every participant's table, written
// over the rows and maps the previous round left in the entry buffers.
func BenchmarkBidValuationBatch(b *testing.B) {
	ps, free := valuationFixture(b, 16)
	states, bidding := bidAll(ps)
	var v BidValuator
	v.prepareBids(0, free, states, bidding) // prime the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.prepareBids(0, free, states, bidding)
	}
}

// BenchmarkBidValuationWide is BenchmarkBidValuationBatch over wideFixture's
// apps of 64, 80, 96 and 9 jobs, where ordering and splitting the jobs, not
// picking the rows, is the work.
func BenchmarkBidValuationWide(b *testing.B) {
	ps, free := wideFixture(b)
	states, bidding := bidAll(ps)
	var v BidValuator
	v.prepareBids(0, free, states, bidding) // prime the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.prepareBids(0, free, states, bidding)
	}
}

// BenchmarkBidPreparePerAgent is the unbatched baseline for comparison.
func BenchmarkBidPreparePerAgent(b *testing.B) {
	ps, free := valuationFixture(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			p.state.Agent.PrepareBid(0, free, p.state.Current)
		}
	}
}
