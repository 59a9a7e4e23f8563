package core

import (
	"testing"
	"time"
)

// TestOfferResourcesRecordsRoundPhases pins the phase instrumentation the
// serving layer's telemetry reads after every round: the breakdown accounts
// for the whole round, the counts match the round's outcome, and the
// cumulative stats advance with it.
func TestOfferResourcesRecordsRoundPhases(t *testing.T) {
	ps, free := valuationFixture(t, 12)
	topo := ps[0].state.Agent.(*Agent).Estimator.Topo
	arb, err := NewArbiter(topo, Config{FairnessKnob: 0.5, LeaseDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	states := make([]AgentState, 0, len(ps))
	for _, p := range ps {
		states = append(states, p.state)
	}

	decisions, err := arb.OfferResources(0, free, states)
	if err != nil {
		t.Fatal(err)
	}
	rp := arb.LastRound()

	if rp.Agents != len(states) {
		t.Errorf("Agents = %d, want %d", rp.Agents, len(states))
	}
	if rp.Participants < 1 || rp.Participants > len(states) {
		t.Errorf("Participants = %d outside [1,%d]", rp.Participants, len(states))
	}
	if rp.OfferedGPUs != free.Total() {
		t.Errorf("OfferedGPUs = %d, want %d", rp.OfferedGPUs, free.Total())
	}
	if rp.Total <= 0 {
		t.Errorf("Total = %v, want > 0", rp.Total)
	}
	if sum := rp.Probe + rp.Bid + rp.Solve + rp.Leftover; sum > rp.Total {
		t.Errorf("phase sum %v exceeds round total %v", sum, rp.Total)
	}
	if rp.Payments < 0 || rp.Payments > rp.Solve {
		t.Errorf("Payments = %v outside the %v solve it is part of", rp.Payments, rp.Solve)
	}
	if rp.Winners+rp.WinnersWithNothing != rp.Participants || arb.Stats.WinnersWithNothing != rp.WinnersWithNothing {
		t.Errorf("%d winners + %d with nothing (stats %d), want %d participants",
			rp.Winners, rp.WinnersWithNothing, arb.Stats.WinnersWithNothing, rp.Participants)
	}
	var granted, winners int
	for _, d := range decisions {
		granted += d.Alloc.Total()
		if d.FromAuction {
			winners++
		}
	}
	if rp.GrantedGPUs != granted {
		t.Errorf("GrantedGPUs = %d, want %d", rp.GrantedGPUs, granted)
	}
	// Winners counts non-empty auction allocations; decisions may merge an
	// app's auction win with a leftover grant, so compare against the
	// FromAuction entries directly.
	if rp.Winners != winners {
		t.Errorf("Winners = %d, want %d", rp.Winners, winners)
	}

	if arb.Stats.ProbeTime != rp.Probe || arb.Stats.SolveTime != rp.Solve {
		t.Errorf("cumulative stats %v/%v do not match first round %v/%v",
			arb.Stats.ProbeTime, arb.Stats.SolveTime, rp.Probe, rp.Solve)
	}
	if arb.Stats.AuctionWinners != rp.Winners {
		t.Errorf("Stats.AuctionWinners = %d, want %d", arb.Stats.AuctionWinners, rp.Winners)
	}

	// A second round overwrites LastRound and accumulates the stats.
	before := arb.Stats.SolveTime
	if _, err := arb.OfferResources(1, free, states); err != nil {
		t.Fatal(err)
	}
	if arb.Stats.SolveTime < before {
		t.Error("cumulative SolveTime went backwards")
	}
	if arb.Stats.Auctions != 2 {
		t.Errorf("Auctions = %d, want 2", arb.Stats.Auctions)
	}
	if got := arb.LastRound().Total; got <= 0 || got > time.Minute {
		t.Errorf("second round Total = %v, implausible", got)
	}
}
