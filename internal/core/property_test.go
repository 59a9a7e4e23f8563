package core

import (
	"fmt"
	"math/rand"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/workload"
)

// randomBids builds a random but well-formed set of bid tables over an offer.
func randomBids(rng *rand.Rand, offer cluster.Alloc, nApps int) []BidTable {
	machines := offer.Machines()
	bids := make([]BidTable, 0, nApps)
	for i := 0; i < nApps; i++ {
		current := 5 + rng.Float64()*20
		table := BidTable{App: workload.AppID(fmt.Sprintf("app-%02d", i))}
		table.Entries = append(table.Entries, BidEntry{Alloc: cluster.NewAlloc(), Rho: current})
		for k := 0; k < 1+rng.Intn(5); k++ {
			alloc := cluster.NewAlloc()
			for _, m := range machines {
				if rng.Float64() < 0.5 {
					if n := rng.Intn(offer[m] + 1); n > 0 {
						alloc[m] = n
					}
				}
			}
			if alloc.Total() == 0 {
				continue
			}
			// Valuations improve (ρ falls) with more GPUs, keeping bids
			// shaped like real agent bids.
			rho := current / (1 + float64(alloc.Total())*(0.2+rng.Float64()))
			table.Entries = append(table.Entries, BidEntry{Alloc: alloc, Rho: rho})
		}
		bids = append(bids, table)
	}
	return bids
}

// TestAuctionInvariantsOnRandomBids checks, across many random auctions,
// the mechanism's structural invariants: winners plus leftover exactly cover
// the offer, hidden payments stay in [0,1], and no winner exceeds its
// proportional-fair share.
func TestAuctionInvariantsOnRandomBids(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	topo := testTopo(t, 8, 4, 4)
	for trial := 0; trial < 60; trial++ {
		offer := cluster.NewAlloc()
		for m := 0; m < 8; m++ {
			if n := rng.Intn(5); n > 0 {
				offer[cluster.MachineID(m)] = n
			}
		}
		if offer.Total() == 0 {
			continue
		}
		bids := randomBids(rng, offer, 1+rng.Intn(6))
		res, err := RunPartialAllocation(topo, offer, bids, AuctionOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(res.Awards) != len(bids) {
			t.Fatalf("trial %d: %d awards for %d bids", trial, len(res.Awards), len(bids))
		}
		covered := res.Leftover.Clone()
		for _, aw := range res.Awards {
			covered = covered.Add(aw.Won)
		}
		if !covered.Equal(offer) {
			t.Fatalf("trial %d: winners+leftover %v != offer %v", trial, covered, offer)
		}
		for i, aw := range res.Awards {
			id, w := bids[i].App, aw.Won
			if aw.C < 0 || aw.C > 1+1e-9 {
				t.Fatalf("trial %d: hidden payment for %s = %v", trial, id, aw.C)
			}
			if w.Total() > aw.PF.Total() {
				t.Fatalf("trial %d: %s final %d exceeds pf share %d", trial, id, w.Total(), aw.PF.Total())
			}
			for m, n := range w {
				if n > offer[m] {
					t.Fatalf("trial %d: %s allocated %d on machine %d, offer had %d", trial, id, n, m, offer[m])
				}
			}
		}
	}
}

// TestHiddenPaymentProperties checks two facets of the hidden payments:
// bidders that impose no externality on each other (disjoint demands) pay
// nothing, and even on adversarially overlapping random bids the payments
// never swallow the whole proportional-fair allocation (whatever is
// forfeited returns to the pool as leftovers and is re-granted work
// conservingly).
func TestHiddenPaymentProperties(t *testing.T) {
	topo := testTopo(t, 8, 4, 4)

	// Disjoint demands: each app wants a different machine, so removing one
	// bidder does not change what the others can get — c_i must be 1 and no
	// GPUs are forfeited.
	offer := cluster.Alloc{0: 4, 1: 4, 2: 4}
	disjoint := []BidTable{
		{App: "a", Entries: []BidEntry{{Alloc: cluster.NewAlloc(), Rho: 10}, {Alloc: cluster.Alloc{0: 4}, Rho: 2}}},
		{App: "b", Entries: []BidEntry{{Alloc: cluster.NewAlloc(), Rho: 10}, {Alloc: cluster.Alloc{1: 4}, Rho: 2}}},
		{App: "c", Entries: []BidEntry{{Alloc: cluster.NewAlloc(), Rho: 10}, {Alloc: cluster.Alloc{2: 4}, Rho: 2}}},
	}
	res, err := RunPartialAllocation(topo, offer, disjoint, AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, aw := range res.Awards {
		id := disjoint[i].App
		if aw.C < 0.999 {
			t.Errorf("non-competing bidder %s pays a hidden payment: c=%v", id, aw.C)
		}
		if aw.Won.Total() != 4 {
			t.Errorf("non-competing bidder %s kept %d GPUs, want 4", id, aw.Won.Total())
		}
	}

	// Overlapping random bids: payments are extracted but never everything.
	rng := rand.New(rand.NewSource(7))
	full := cluster.NewAlloc()
	for m := 0; m < 8; m++ {
		full[cluster.MachineID(m)] = 4
	}
	pfTotal, keptTotal := 0, 0
	for trial := 0; trial < 40; trial++ {
		bids := randomBids(rng, full, 2+rng.Intn(5))
		res, err := RunPartialAllocation(topo, full, bids, AuctionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, aw := range res.Awards {
			pfTotal += aw.PF.Total()
			keptTotal += aw.Won.Total()
		}
	}
	if pfTotal == 0 {
		t.Fatal("no GPUs were proportionally allocated across trials")
	}
	lossFrac := float64(pfTotal-keptTotal) / float64(pfTotal)
	if lossFrac > 0.8 {
		t.Errorf("hidden payments forfeit %.2f of the proportional-fair allocation even on adversarial bids", lossFrac)
	}
	if lossFrac == 0 {
		t.Error("adversarially overlapping bids should extract some payment")
	}
}

// TestArbiterEndToEndWithConstrainedApp: an app whose jobs demand 4
// co-located GPUs must never be granted a spread allocation it cannot use by
// the auction path (the leftover path may still hand it GPUs it will decline
// to run on, but auction wins follow its own bids, which are constraint
// aware).
func TestArbiterEndToEndWithConstrainedApp(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	app := testApp("constrained", 0, placement.VGG16, 1, 200, 4)
	app.Jobs[0].MinGPUsPerMachine = 4
	agent := agentFor(topo, app)

	// Offer only fragmented capacity: 2 GPUs on each of four machines. No
	// subset satisfies the constraint, so no bid row may claim an
	// improvement over the app's current (GPU-less, unbounded) ρ.
	offer := cluster.Alloc{0: 2, 1: 2, 2: 2, 3: 2}
	bid := agent.PrepareBid(0, offer, cluster.NewAlloc())
	current := emptyRowRho(bid)
	for _, e := range bid.Entries {
		if e.Alloc.Total() == 0 {
			continue
		}
		if !placement.Satisfies(nil, e.Alloc, placement.Constraint{MinGPUsPerMachine: 4}) && e.Rho < current*0.999 {
			t.Errorf("constraint-violating bid row %v claims improvement: rho %v vs current %v", e.Alloc, e.Rho, current)
		}
	}
}

// TestRhoEstimateConsistentWithSimulatedOutcome: for a lone app on a
// dedicated cluster, the Agent's ρ estimate at submission matches the
// realised ρ (≈1) — the property that makes long-term fairness enforcement
// meaningful.
func TestRhoEstimateConsistentWithSimulatedOutcome(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	app := testApp("solo", 0, placement.ResNet50, 1, 240, 4)
	est := NewRhoEstimator(topo, app, fixedTuner{})
	full := cluster.Alloc{0: 4}
	predicted := est.Rho(0, cluster.NewAlloc(), full)
	if predicted < 0.95 || predicted > 1.05 {
		t.Errorf("predicted rho on a dedicated cluster = %v, want ≈1", predicted)
	}
	// Simulate the run by hand: 240 serial minutes on 4 perfect GPUs.
	app.Jobs[0].Advance(0, 60, 4, 1)
	app.FinishedAt = app.Jobs[0].DoneAt
	realized := est.FinalRho(app.FinishedAt, full)
	if realized < 0.95 || realized > 1.05 {
		t.Errorf("realized rho = %v, want ≈1", realized)
	}
}

// fixedTuner is a trivial tuner for estimator tests.
type fixedTuner struct{}

func (fixedTuner) Update(float64, *workload.App)    {}
func (fixedTuner) WorkLeft(j *workload.Job) float64 { return j.RemainingWork() }
func (fixedTuner) Done(a *workload.App) bool        { return a.NumActiveJobs() == 0 }
