package rpc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/workload"
)

// simBidder is a cheap in-process core.Bidder for concurrency and sharding
// tests: deterministic ρ (weight discounted by held GPUs), greedy bids up to
// its demand. It carries no per-auction state of its own, so any data race a
// test observes belongs to the server, not the fixture. With yield set it
// reschedules on every probe and bid, standing in for the network hops a
// RemoteBidder makes — the window in which a concurrent auction round can
// sneak in if rounds are not serialised.
type simBidder struct {
	id     workload.AppID
	demand int
	gang   int
	weight float64
	yield  bool
}

func (b *simBidder) ID() workload.AppID { return b.id }

func (b *simBidder) rho(held int) float64 { return b.weight / float64(1+held) }

func (b *simBidder) ReportRho(now float64, current cluster.Alloc) float64 {
	if b.yield {
		runtime.Gosched()
	}
	return b.rho(current.Total())
}

func (b *simBidder) PrepareBid(now float64, offer, current cluster.Alloc) core.BidTable {
	if b.yield {
		runtime.Gosched()
	}
	held := current.Total()
	table := core.BidTable{App: b.id, Entries: []core.BidEntry{
		{Alloc: cluster.NewAlloc(), Rho: b.rho(held)},
	}}
	want := b.demand - held
	if want <= 0 {
		return table
	}
	take := cluster.NewAlloc()
	for _, m := range offer.Machines() {
		for take[m] < offer[m] && take.Total() < want {
			take[m]++
		}
		if take.Total() >= want {
			break
		}
	}
	if take.Total() > 0 {
		table.Entries = append(table.Entries, core.BidEntry{Alloc: take, Rho: b.rho(held + take.Total())})
	}
	return table
}

func (b *simBidder) UnmetParallelism(current cluster.Alloc) int {
	if unmet := b.demand - current.Total(); unmet > 0 {
		return unmet
	}
	return 0
}

func (b *simBidder) GangSize() int {
	if b.gang <= 0 {
		return 1
	}
	return b.gang
}

// TestConcurrentAuctionsSerialized is the regression test for the
// concurrent-auction race: OfferResources used to run outside any lock, so
// two overlapping RunAuction calls shared the Arbiter's BidValuator scratch
// and offered the same stale free vector twice — double-granting GPUs the
// state layer then rejects. With rounds serialised under auctionMu every
// call must succeed and the occupancy state must stay internally consistent;
// revert the auctionMu discipline in auctionRound and this test fails (Grant
// capacity errors) and `go test -race` flags the valuator scratch.
func TestConcurrentAuctionsSerialized(t *testing.T) {
	topo := testTopo(t)
	server := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 1)
	// Demand far beyond capacity so every round grants aggressively.
	for i := 0; i < 8; i++ {
		server.RegisterBidder(&simBidder{
			id:     workload.AppID(fmt.Sprintf("app-%d", i)),
			demand: 12,
			weight: float64(100 + i),
			yield:  true,
		})
	}

	const (
		goroutines = 8
		rounds     = 6
	)
	// Each call gets a unique, ever-advancing time at least a lease apart, so
	// whichever order the serialised rounds run in, reclaim → offer → grant
	// churns the full cluster every round.
	var step int64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				now := float64(atomic.AddInt64(&step, 1)) * 21
				if _, err := server.RunAuction(now); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent auction failed: %v", err)
	}
	if err := server.ValidateState(); err != nil {
		t.Errorf("state invariants violated after concurrent auctions: %v", err)
	}
	st := server.Status()
	if st.Auctions == 0 {
		t.Error("no auction completed")
	}
	held := 0
	for _, n := range st.Held {
		held += n
	}
	if held+st.FreeGPUs != st.TotalGPUs {
		t.Errorf("held %d + free %d != total %d", held, st.FreeGPUs, st.TotalGPUs)
	}
}

// TestDaemonLeaseExpiryReclamation drives lease expiry end-to-end through
// RunAuction: GPUs granted to an app whose demand then disappears must flow
// back to the still-hungry apps once the lease lapses.
func TestDaemonLeaseExpiryReclamation(t *testing.T) {
	topo := testTopo(t)
	server := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 1)
	greedy := &simBidder{id: "greedy", demand: topo.TotalGPUs(), weight: 200}
	hungry := &simBidder{id: "hungry", demand: topo.TotalGPUs(), weight: 100}
	server.RegisterBidder(greedy)
	server.RegisterBidder(hungry)

	if _, err := server.RunAuction(0); err != nil {
		t.Fatal(err)
	}
	st := server.Status()
	if st.FreeGPUs != 0 {
		t.Fatalf("after round 1 free = %d, want 0 (work conservation)", st.FreeGPUs)
	}
	if st.ActiveLeases == 0 {
		t.Fatal("grants must be leased")
	}

	// The greedy app finishes: it stops wanting GPUs. Within the lease
	// nothing moves; the arbiter must not claw back early.
	greedy.demand = 0
	if _, err := server.RunAuction(10); err != nil {
		t.Fatal(err)
	}
	if got := server.HeldBy("greedy").Total(); got == 0 {
		t.Fatal("lease revoked before expiry")
	}

	// Past the lease, expired leases are reclaimed and the freed GPUs are
	// re-auctioned to the app that still wants them.
	if _, err := server.RunAuction(21); err != nil {
		t.Fatal(err)
	}
	if got := server.HeldBy("greedy").Total(); got != 0 {
		t.Errorf("expired allocation not reclaimed: greedy still holds %d", got)
	}
	if got := server.HeldBy("hungry").Total(); got != topo.TotalGPUs() {
		t.Errorf("hungry holds %d after reclamation, want %d", got, topo.TotalGPUs())
	}
	if st := server.Status(); st.FreeGPUs != 0 {
		t.Errorf("free = %d after re-auction, want 0", st.FreeGPUs)
	}
	if err := server.ValidateState(); err != nil {
		t.Errorf("state invariants: %v", err)
	}
}

// offerRecorder wraps a simBidder and notes whether the round offered it GPUs
// (asked it for a bid).
type offerRecorder struct {
	*simBidder
	offered bool
}

func (b *offerRecorder) PrepareBid(now float64, offer, current cluster.Alloc) core.BidTable {
	b.offered = true
	return b.simBidder.PrepareBid(now, offer, current)
}

// TestOfferSetIndependentOfMapOrder: auctionRound lists the agents by ranging
// over a map, and the Arbiter cuts the worst 1−f by ρ. Among equal-ρ agents —
// every starved app at one instant, every degraded RemoteBidder (which
// reports exactly 1) — the cut used to fall wherever the map's iteration
// order put it, so who was offered GPUs differed from one process to the
// next. Ties now break on the app ID.
func TestOfferSetIndependentOfMapOrder(t *testing.T) {
	topo := testTopo(t)
	for server := 0; server < 30; server++ {
		s := newServer(t, topo, core.Config{FairnessKnob: 0.5, LeaseDuration: 20}, 1)
		bidders := make([]*offerRecorder, 8)
		for i := range bidders {
			bidders[i] = &offerRecorder{simBidder: &simBidder{
				id: workload.AppID(fmt.Sprintf("app-%d", i)), demand: 2, weight: 100,
			}}
			s.RegisterBidder(bidders[i])
		}
		if _, err := s.RunAuction(0); err != nil {
			t.Fatal(err)
		}
		for i, b := range bidders {
			if want := i < 4; b.offered != want {
				t.Fatalf("server %d: app-%d offered = %t, want the four lowest IDs and only them", server, i, b.offered)
			}
		}
	}
}

// noEmptyRowBidder is an in-process bidder with a bug: its table lacks the
// empty row, which fails the auction it is offered in. Its ρ is the highest,
// so under a high fairness knob it is the one offered.
type noEmptyRowBidder struct{ *simBidder }

func (b noEmptyRowBidder) PrepareBid(now float64, offer, current cluster.Alloc) core.BidTable {
	table := b.simBidder.PrepareBid(now, offer, current)
	table.Entries = table.Entries[1:]
	return table
}

// TestFailedRoundStillDeliversReclaim: a round that fails after reclaiming
// expired leases has changed what agents hold, and must tell them. An agent
// left believing in its expired allocation answers the arbiter's
// holder-of-nothing probes (empty Current) from that stale allocation, and
// under-reports its ρ for as long as rounds keep failing. With two shards
// the failing shard is the agent's home: the round returns that shard's
// error, but only after telling the agents what every shard changed.
func TestFailedRoundStillDeliversReclaim(t *testing.T) {
	for _, tc := range []struct{ shards, demand int }{{1, 8}, {2, 4}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			topo := testTopo(t)
			server := newServer(t, topo, core.Config{FairnessKnob: 0.9, LeaseDuration: 20}, tc.shards)
			url, agent := startAgent(t, topo, testApp("app-a", 2, 300))
			if _, err := server.register(RegisterRequest{App: "app-a", Callback: url, MaxParallelism: tc.demand}); err != nil {
				t.Fatal(err)
			}
			if _, err := server.RunAuction(0); err != nil {
				t.Fatal(err)
			}
			if agent.Current().Total() == 0 {
				t.Fatal("round 1 should have leased GPUs to the agent and told it")
			}

			// A buggy bidder homed on the agent's shard fails that shard's
			// next round.
			buggy := ""
			for i := 0; buggy == ""; i++ {
				if id := fmt.Sprintf("buggy-%d", i); server.HomeShard(id) == server.HomeShard("app-a") {
					buggy = id
				}
			}
			server.RegisterBidder(noEmptyRowBidder{&simBidder{id: workload.AppID(buggy), demand: 4, weight: 1e12}})
			if _, err := server.RunAuction(21); err == nil {
				t.Fatal("a table without the empty row should fail its shard's round, and the server's")
			}
			if got := server.HeldTotalGlobal("app-a"); got != 0 {
				t.Fatalf("the failed round still reclaims: app-a holds %d", got)
			}
			if got := agent.Current(); got.Total() != 0 {
				t.Errorf("agent still believes it holds %v after its lease was reclaimed", got)
			}
			if err := server.ValidateState(); err != nil {
				t.Errorf("state invariants: %v", err)
			}
		})
	}
}
