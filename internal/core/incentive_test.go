package core

import (
	"fmt"
	"math/rand"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/workload"
)

// misreporter bids as its Agent does, but with the ρ of every row that holds
// GPUs scaled by k: k < 1 claims more improvement than the app would get,
// k > 1 less. Its probe and its empty row (the app's current ρ) stay
// truthful, so it is offered exactly what the truthful app would be.
type misreporter struct {
	*Agent
	k float64
}

func (m misreporter) PrepareBid(now float64, offer, current cluster.Alloc) BidTable {
	table := m.Agent.PrepareBid(now, offer, current)
	for i := range table.Entries {
		if e := &table.Entries[i]; e.Alloc.Total() > 0 {
			e.Rho *= m.k
		}
	}
	return table
}

// incentiveRound builds one randomized round on topo: 3–12 apps of 1–4
// jobs with gangs of 1, 2 and 4, each holding one or two machines' GPUs with
// probability held (the rest starve), and the GPUs nobody holds as the offer.
func incentiveRound(t *testing.T, rng *rand.Rand, topo *cluster.Topology, held float64) ([]AgentState, cluster.Alloc) {
	t.Helper()
	cs := cluster.NewState(topo)
	profiles := []placement.Profile{placement.VGG16, placement.ResNet50, placement.GNMT}
	var states []AgentState
	for i := range 3 + rng.Intn(10) {
		id := workload.AppID(fmt.Sprintf("app-%02d", i))
		app := testApp(id, -float64(rng.Intn(200)), profiles[rng.Intn(len(profiles))], 1+rng.Intn(4), 100+float64(rng.Intn(900)), 1<<rng.Intn(3))
		for _, j := range app.Jobs {
			j.DoneWork = j.TotalWork * float64(rng.Intn(4)) / 5
		}
		cur := cluster.NewAlloc()
		if rng.Float64() < held {
			for range 1 + rng.Intn(2) {
				m := cluster.MachineID(rng.Intn(topo.NumMachines()))
				if n := cs.FreeOn(m) - cur[m]; n > 0 {
					cur[m] += 1 + rng.Intn(n)
				}
			}
			if err := cs.Grant(string(id), cur); err != nil {
				t.Fatal(err)
			}
		}
		states = append(states, AgentState{Agent: agentFor(topo, app), Current: cur})
	}
	return states, cs.FreeVector()
}

// payingMisreports are the rounds of TestMisreportedBidsDoNotPay in which a
// misreport pays. They are pinned so that no other round can join them, and
// a mechanism change that mends one must drop it here. In trial 181 the
// over-claimer displaces the truthful PF winner and keeps three packed GPUs
// of its bundle after its hidden payment (c = 0.40), where truthfully it got
// four GPUs spread over four machines from the leftover pass; trial 144
// gains 0.9 % the same way.
var payingMisreports = map[string]bool{"trial 144 ×0.5": true, "trial 181 ×0.5": true}

// TestMisreportedBidsDoNotPay is the bid side of the mechanism's
// strategy-proofness, through the whole OfferResources path: in randomized
// rounds (f of 0, 0.5 and 0.8; most, half or few apps holding GPUs), the
// worst-off app — always a participant — bids its rows' ρ scaled by ½ or by 2
// instead of truthfully, and it must never end the round with a strictly
// better true ρ (its own estimator's, of what it holds after the round's
// decisions) than it does bidding truthfully. The log says in how many
// rounds the misreporter was a proportional-fair winner (a non-empty PF
// bundle before hidden payments): rounds it is not are passed vacuously.
func TestMisreportedBidsDoNotPay(t *testing.T) {
	topo := testTopo(t, 12, 4, 4)
	rng := rand.New(rand.NewSource(11))
	rounds, pfWins := 0, 0
	for trial := range 240 {
		f := []float64{0, 0.5, 0.8}[trial%3]
		states, free := incentiveRound(t, rng, topo, []float64{0.9, 0.5, 0.2}[trial/3%3])
		if free.Total() == 0 {
			continue
		}
		now := float64(rng.Intn(100))
		worst := 0
		for i, st := range states {
			w := states[worst]
			if WorseOff(st.Agent.ReportRho(now, st.Current), st.Agent.ID(), w.Agent.ReportRho(now, w.Current), w.Agent.ID()) < 0 {
				worst = i
			}
		}
		liar := states[worst].Agent.(*Agent)
		// trueRho plays a round and returns the liar's true ρ after it, and
		// whether its PF bundle was non-empty.
		trueRho := func(states []AgentState) (float64, bool) {
			arb, err := NewArbiter(topo, Config{FairnessKnob: f, LeaseDuration: 20})
			if err != nil {
				t.Fatal(err)
			}
			decisions, err := arb.OfferResources(now, free, states)
			if err != nil {
				t.Fatal(err)
			}
			got := cluster.NewAlloc()
			for _, d := range decisions {
				if d.App == liar.ID() {
					got = got.Add(d.Alloc)
				}
			}
			// The round's tables are still the valuator's: re-solve them for
			// the liar's PF bundle.
			auction, err := RunPartialAllocation(topo, free, arb.val.bids, arb.cfg.Auction)
			if err != nil {
				t.Fatal(err)
			}
			pf := false
			for i, b := range arb.val.bids {
				pf = pf || b.App == liar.ID() && auction.Awards[i].PF.Total() > 0
			}
			return liar.Estimator.Rho(now, states[worst].Current, got), pf
		}
		truthful, _ := trueRho(states)
		for _, k := range []float64{0.5, 2} {
			lying := append([]AgentState(nil), states...)
			lying[worst].Agent = misreporter{Agent: liar, k: k}
			rho, pf := trueRho(lying)
			rounds++
			if pf {
				pfWins++
			}
			what := fmt.Sprintf("trial %d ×%v", trial, k)
			switch pays := rho < truthful; {
			case pays && payingMisreports[what]:
				t.Logf("%s (f=%v): %s ends at true ρ %v, truthfully at %v (a pinned paying misreport)", what, f, liar.ID(), rho, truthful)
			case pays:
				t.Errorf("%s (f=%v): %s bidding its rows' ρ ×%v ends at true ρ %v, truthfully at %v", what, f, liar.ID(), k, rho, truthful)
			case payingMisreports[what]:
				t.Errorf("%s (f=%v): the pinned paying misreport no longer pays (true ρ %v, truthfully %v): drop it from payingMisreports", what, f, rho, truthful)
			}
		}
	}
	t.Logf("the misreporter was a PF winner in %d of %d misreported rounds", pfWins, rounds)
}
