package core

// Test-only oracles: the per-row valuation and the per-bidder hidden payment
// exactly as they were before the round's invariants were hoisted (one
// compiled solver instance per auction, one job context per valuation call).
// The production code must reproduce their results bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"themis/internal/cluster"
	"themis/internal/estimator"
	"themis/internal/placement"
	"themis/internal/solver"
	"themis/internal/telemetry"
	"themis/internal/workload"
)

// refSplitAcrossJobs is the RhoEstimator.splitAcrossJobs of before the split
// moved behind placement.Picker.Split, verbatim (own scratch instead of the
// estimator's): it re-sorts the active jobs per call with the exchange sort,
// calling WorkLeft per comparison, and runs one PickInto per job whether or
// not anything is left in the pool. One rule is the shared split's, not the
// old estimator's: a job whose domain affinity cannot be resolved draws
// nothing (the old code let it take pool GPUs it then valued at zero, which
// the simulator's split never did).
func refSplitAcrossJobs(e *RhoEstimator, total cluster.Alloc, active []*workload.Job) []cluster.Alloc {
	out := make([]cluster.Alloc, len(active))
	order := make([]int, len(active))
	for i := range active {
		order[i] = i
	}
	// Assign jobs closest to completion first.
	for i := 0; i < len(order); i++ {
		for k := i + 1; k < len(order); k++ {
			if e.Tuner.WorkLeft(active[order[k]]) < e.Tuner.WorkLeft(active[order[i]]) {
				order[i], order[k] = order[k], order[i]
			}
		}
	}
	emptyAnchor := cluster.NewAlloc()
	remaining := cluster.NewAlloc()
	for m, n := range total {
		if n != 0 {
			remaining[m] = n
		}
	}
	var picker placement.Picker
	for _, idx := range order {
		j := active[idx]
		want := j.MaxParallelism
		if want <= 0 {
			want = j.GangSize
		}
		c, ok := j.PlacementConstraint(e.Topo)
		if !ok {
			out[idx] = cluster.NewAlloc()
			continue
		}
		picked := picker.PickInto(cluster.NewAlloc(), e.Topo, remaining, emptyAnchor, want)
		if !c.IsZero() && !placement.Satisfies(e.Topo, picked, c) {
			picked = placement.PickConstrained(e.Topo, remaining, emptyAnchor, want, c)
		}
		out[idx] = picked
		for m, n := range picked {
			if remaining[m] < n {
				panic("core: splitAcrossJobs internal inconsistency: picked exceeds remaining")
			}
			remaining[m] -= n
			if remaining[m] == 0 {
				delete(remaining, m)
			}
		}
	}
	return out
}

// refTShared is the previous RhoEstimator.TShared verbatim over
// refSplitAcrossJobs.
func refTShared(e *RhoEstimator, now float64, total cluster.Alloc) float64 {
	elapsed := now - e.App.SubmitTime
	if elapsed < 0 {
		elapsed = 0
	}
	active := e.App.AppendActiveJobs(nil)
	if len(active) == 0 {
		return elapsed
	}
	if total.Total() == 0 {
		return Unbounded * (1 + elapsed)
	}
	split := refSplitAcrossJobs(e, total, active)
	best := math.Inf(1)
	for idx, j := range active {
		alloc := split[idx]
		g := alloc.Total()
		c, ok := j.PlacementConstraint(e.Topo)
		if g == 0 || !ok || !placement.Satisfies(e.Topo, alloc, c) {
			continue
		}
		s := e.App.Profile.SOf(e.Topo, alloc)
		left := e.Tuner.WorkLeft(j)
		t := elapsed + left/(float64(g)*s)
		if t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		return Unbounded
	}
	return best
}

// refRho is the previous RhoEstimator.Rho verbatim, perturbing with errs.
func refRho(e *RhoEstimator, errs *estimator.ErrorModel, now float64, current, extra cluster.Alloc) float64 {
	tsh := refTShared(e, now, current.Add(extra))
	tid := e.TIdeal()
	return errs.Perturb(tsh / tid)
}

// refHiddenPayment is the previous hiddenPayment verbatim: a fresh
// validate → normalize → compile → search over the other bidders.
func refHiddenPayment(offer cluster.Alloc, bidders []solver.Bidder, full solver.Assignment, id string, opts solver.Options) float64 {
	var withLog float64
	others := make([]solver.Bidder, 0, len(bidders)-1)
	for _, b := range bidders {
		if b.ID == id {
			continue
		}
		others = append(others, b)
		withLog += math.Log(full[b.ID].Value)
	}
	if len(others) == 0 {
		return 1 // a lone bidder pays nothing
	}
	_, withoutLog, err := solver.Solve(offer, others, opts)
	if err != nil {
		return 1
	}
	ci := math.Exp(withLog - withoutLog)
	if ci > 1 {
		ci = 1
	}
	if ci < 0 {
		ci = 0
	}
	return ci
}

// wideFixture builds agents whose apps stress the job context: 64+ active
// jobs, work-left values that repeat across non-adjacent jobs (the exchange
// sort is not stable, so ties must fall exactly as before), jobs with
// MaxMachines / per-machine floors / flavor and domain affinities (one of
// them unresolvable), and mixed gang sizes — over a two-flavor cluster with
// part of it already held.
func wideFixture(tb testing.TB) ([]probedAgent, cluster.Alloc) {
	tb.Helper()
	topo, err := cluster.Config{
		MachineSpecs: []cluster.MachineSpec{
			{Count: 24, GPUs: 8, SlotSize: 2, GPU: cluster.GPUTypeP100},
			{Count: 8, GPUs: 4, SlotSize: 2, GPU: cluster.GPUTypeV100},
		},
		MachinesPerRack: 8,
	}.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cs := cluster.NewState(topo)
	profiles := []placement.Profile{placement.VGG16, placement.ResNet50, placement.GNMT}
	var ps []probedAgent
	for i, nJobs := range []int{64, 80, 96, 9} {
		id := workload.AppID(fmt.Sprintf("wide-%d", i))
		app := testApp(id, 0, profiles[i%len(profiles)], nJobs, 600, 1)
		for k, j := range app.Jobs {
			j.GangSize = 1 << (k % 3)
			j.MaxParallelism = j.GangSize * (1 + k%2)
			j.DoneWork = float64((k*7)%5) * 100 // five distinct work-left values, interleaved
			switch k % 8 {
			case 1:
				j.MaxMachines = 1
			case 3:
				j.MinGPUsPerMachine = 2
			case 5:
				j.FlavorAffinity = string(cluster.GPUTypeV100)
			case 6:
				j.DomainAffinity = "domain-0"
			}
			if k == 7 {
				j.DomainAffinity = "no-such-domain" // never resolves: S = 0
			}
			if k%11 == 10 {
				j.Killed = true // inactive jobs are not part of the context
			}
		}
		cur := cluster.NewAlloc()
		if i%2 == 0 {
			cur = cluster.Alloc{cluster.MachineID(i): 6, cluster.MachineID(24 + i): 2}
			if err := cs.Grant(string(id), cur); err != nil {
				tb.Fatal(err)
			}
		}
		ps = append(ps, probedAgent{state: AgentState{Agent: agentFor(topo, app), Current: cur}, rho: float64(10 - i)})
	}
	return ps, cs.FreeVector()
}

// checkTablesAgainstReference values every row of every table again through
// the reference valuation (same-seeded error models) and requires identical
// ρ bits and an identical RNG state afterwards.
func checkTablesAgainstReference(t *testing.T, ps []probedAgent, tables []BidTable, now float64, theta float64) {
	t.Helper()
	for i, p := range ps {
		ag := p.state.Agent.(*Agent)
		errs := estimator.NewErrorModel(theta, int64(100+i))
		for r, e := range tables[i].Entries {
			if want := refRho(ag.Estimator, errs, now, p.state.Current, e.Alloc); e.Rho != want {
				t.Errorf("agent %d row %d (%v): rho %v, reference %v", i, r, e.Alloc, e.Rho, want)
			}
		}
		if got, want := ag.Estimator.Errors.Perturb(1), errs.Perturb(1); got != want {
			t.Errorf("agent %d: error-model RNG diverged after the table (next draw %v, reference %v)", i, got, want)
		}
	}
}

// TestWideAppBidEquivalence extends TestBatchedBidEquivalence to the apps
// the job context exists for: standalone PrepareBid, the batched valuator
// (fresh and on recycled scratch) and the reference per-row valuation agree
// bit for bit — tables and the error model's RNG state — with and without
// an error model.
func TestWideAppBidEquivalence(t *testing.T) {
	for _, theta := range []float64{0, 0.2} {
		t.Run(fmt.Sprintf("theta=%v", theta), func(t *testing.T) {
			ps, free := wideFixture(t)
			const now = 35.0
			reseed := func() {
				for i, p := range ps {
					p.state.Agent.(*Agent).Estimator.Errors = estimator.NewErrorModel(theta, int64(100+i))
				}
			}
			reseed()
			want := make([]BidTable, 0, len(ps))
			for _, p := range ps {
				want = append(want, p.state.Agent.PrepareBid(now, free, p.state.Current))
			}
			for i, tb := range want {
				if len(tb.Entries) < 4 {
					t.Fatalf("agent %d: only %d rows — fixture does not exercise the row loop", i, len(tb.Entries))
				}
			}
			checkTablesAgainstReference(t, ps, want, now, theta)

			var v BidValuator
			for round := 0; round < 3; round++ {
				reseed()
				got := v.prepareBids(now, free, ps)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("round %d: table %d differs:\n got %v\nwant %v", round, i, got[i], want[i])
					}
				}
				checkTablesAgainstReference(t, ps, got, now, theta)
				v.EndRound()
			}

			// The other entry points share the context: the job split itself
			// and a bare ρ probe match the reference too.
			for i, p := range ps {
				ag := p.state.Agent.(*Agent)
				total := p.state.Current.Add(want[i].Entries[len(want[i].Entries)-1].Alloc)
				ref := refSplitAcrossJobs(ag.Estimator, total, ag.App.ActiveJobs())
				ag.Estimator.beginCall()
				got := ag.Estimator.splitAcrossJobs(total)
				for k, j := range ag.App.ActiveJobs() {
					if !got[k].Equal(ref[k]) {
						t.Errorf("agent %d job %s: split %v, reference %v", i, j.ID, got[k], ref[k])
					}
				}
				ag.Estimator.Errors = nil
				if got, want := ag.ReportRho(now, p.state.Current), refRho(ag.Estimator, nil, now, p.state.Current, cluster.NewAlloc()); got != want {
					t.Errorf("agent %d: ReportRho %v, reference %v", i, got, want)
				}
			}
		})
	}
}

// contendedBids builds n bid tables over offer: an empty row plus up to rows
// candidate subsets with continuous random ρ (no ties).
func contendedBids(rng *rand.Rand, offer cluster.Alloc, n, rows int) []BidTable {
	machines := offer.Machines()
	bids := make([]BidTable, 0, n)
	for i := 0; i < n; i++ {
		b := BidTable{App: workload.AppID(fmt.Sprintf("app-%03d", i))}
		cur := 20 + 80*rng.Float64()
		if rng.Intn(5) == 0 {
			cur = Unbounded * (1 + rng.Float64()) // starved: its empty-row value clamps to 1e-12
		}
		b.Entries = append(b.Entries, BidEntry{Alloc: cluster.NewAlloc(), Rho: cur})
		for r := 0; r < 1+rng.Intn(rows); r++ {
			a := cluster.NewAlloc()
			for k, span := 0, 1+rng.Intn(2); k < span; k++ {
				m := machines[rng.Intn(len(machines))]
				a[m] = 1 + rng.Intn(offer[m])
			}
			b.Entries = append(b.Entries, BidEntry{Alloc: a, Rho: 1 + 18*rng.Float64()})
		}
		bids = append(bids, b)
	}
	return bids
}

// TestHiddenPaymentsMatchPerBidderSolves pins the auction against the
// previous per-bidder re-solve: allocations are identical; c_i is
// bit-identical for every bidder with a non-empty proportional-fair bundle
// in both solver regimes; and under the exact solve every empty-PF bidder's
// c_i is 1 by both routes — so skipping its re-solve changes nothing.
func TestHiddenPaymentsMatchPerBidderSolves(t *testing.T) {
	topo := testTopo(t, 12, 8, 4)
	cases := []struct {
		name            string
		bidders, rows   int
		machines        int
		trials          int
		opts            solver.Options
		wantExactSolves bool
	}{
		{"exact", 6, 4, 3, 40, solver.Options{}, true},
		{"greedy-72", 72, 6, 12, 3, solver.Options{}, false},
	}
	exact := telemetry.Default().Counter("themis_solver_solves_total", "", telemetry.L("mode", "exact"))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.bidders)))
			nonEmpty, empty := 0, 0
			for trial := 0; trial < c.trials; trial++ {
				offer := cluster.NewAlloc()
				for m := 0; m < c.machines; m++ {
					offer[cluster.MachineID(m)] = 2 + rng.Intn(7)
				}
				bids := contendedBids(rng, offer, c.bidders, c.rows)
				before := exact.Value()
				res, err := RunPartialAllocation(topo, offer, bids, AuctionOptions{Solver: c.opts})
				if err != nil {
					t.Fatal(err)
				}
				if ranExact := exact.Value() > before; ranExact != c.wantExactSolves {
					t.Fatalf("trial %d: exact solves ran = %t, want %t", trial, ranExact, c.wantExactSolves)
				}

				bidders := make([]solver.Bidder, 0, len(bids))
				for _, b := range bids {
					bidders = append(bidders, toBidder(b))
				}
				full, obj, err := solver.Solve(offer, bidders, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Objective != obj {
					t.Fatalf("trial %d: objective %v, Solve %v", trial, res.Objective, obj)
				}
				for _, b := range bids {
					pf := full[string(b.App)].Alloc
					if !res.ProportionalFair[b.App].Equal(pf) {
						t.Fatalf("trial %d %s: PF %v, Solve %v", trial, b.App, res.ProportionalFair[b.App], pf)
					}
					want := refHiddenPayment(offer, bidders, full, string(b.App), c.opts)
					got := res.HiddenPayment[b.App]
					switch {
					case pf.Total() > 0:
						nonEmpty++
						if got != want {
							t.Errorf("trial %d %s: c_i %v, per-bidder re-solve %v", trial, b.App, got, want)
						}
					case c.wantExactSolves:
						empty++
						if got != 1 || want != 1 {
							t.Errorf("trial %d %s (empty PF): c_i %v, per-bidder re-solve %v, want both 1", trial, b.App, got, want)
						}
					default:
						empty++
						if got != 1 {
							t.Errorf("trial %d %s (empty PF): c_i %v, want 1", trial, b.App, got)
						}
					}
					if w := scaleAllocation(new(placement.Picker), topo, pf, want); pf.Total() > 0 && !res.Winners[b.App].Equal(w) {
						t.Errorf("trial %d %s: winner %v, want %v", trial, b.App, res.Winners[b.App], w)
					}
					if pf.Total() == 0 && res.Winners[b.App].Total() != 0 {
						t.Errorf("trial %d %s: empty PF bundle won %v", trial, b.App, res.Winners[b.App])
					}
				}
			}
			if nonEmpty == 0 || empty == 0 {
				t.Fatalf("fixture covered %d non-empty and %d empty PF bidders; want both", nonEmpty, empty)
			}
		})
	}
}

// capturingBidder records the table its agent bid, as the auction saw it.
type capturingBidder struct {
	*Agent
	last *BidTable
}

func (c capturingBidder) PrepareBid(now float64, offer, current cluster.Alloc) BidTable {
	*c.last = c.Agent.PrepareBid(now, offer, current)
	return *c.last
}

// TestArbiterSolvesOncePlusWinners pins the cost model at the arbiter: one
// round runs one proportional-fair solve plus one masked re-solve per bidder
// whose PF bundle is non-empty (none when a single app bids), read off the
// same themis_solver_solves_total counters /metrics and the benchmark report.
func TestArbiterSolvesOncePlusWinners(t *testing.T) {
	reg := telemetry.Default()
	solves := func() uint64 {
		return reg.Counter("themis_solver_solves_total", "", telemetry.L("mode", "exact")).Value() +
			reg.Counter("themis_solver_solves_total", "", telemetry.L("mode", "greedy")).Value()
	}
	for _, c := range []struct {
		name   string
		agents int
		knob   float64
		opts   solver.Options
	}{
		{"exact", 12, 0.5, solver.Options{}},
		{"greedy", 16, 0, solver.Options{ExactLimit: 1}},
		{"lone-bidder", 8, 1, solver.Options{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ps, free := valuationFixture(t, c.agents)
			topo := ps[0].state.Agent.(*Agent).Estimator.Topo
			arb, err := NewArbiter(topo, Config{FairnessKnob: c.knob, LeaseDuration: 20, Auction: AuctionOptions{Solver: c.opts}})
			if err != nil {
				t.Fatal(err)
			}
			tables := make([]BidTable, len(ps))
			states := make([]AgentState, 0, len(ps))
			for i, p := range ps {
				states = append(states, AgentState{Agent: capturingBidder{p.state.Agent.(*Agent), &tables[i]}, Current: p.state.Current})
			}
			before := solves()
			if _, err := arb.OfferResources(0, free, states); err != nil {
				t.Fatal(err)
			}
			got := solves() - before

			var bids []BidTable
			for _, tb := range tables {
				if len(tb.Entries) > 0 {
					bids = append(bids, tb)
				}
			}
			if len(bids) != arb.LastRound().Participants {
				t.Fatalf("captured %d bids, round had %d participants", len(bids), arb.LastRound().Participants)
			}
			pf, err := RunPartialAllocation(topo, free, bids, AuctionOptions{Solver: c.opts, DisableHiddenPayments: true})
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(1)
			if len(bids) >= 2 {
				for _, a := range pf.ProportionalFair {
					if a.Total() > 0 {
						want++
					}
				}
			}
			if got != want {
				t.Errorf("%d bidders: round ran %d solves, want 1 + non-empty PF bundles = %d", len(bids), got, want)
			}
			if c.name != "lone-bidder" && want < 3 {
				t.Fatalf("fixture has %d non-empty PF bundles; want at least 2", want-1)
			}
			if c.name != "lone-bidder" && int(want) > len(bids) {
				t.Fatalf("every bidder won (%d of %d): the test cannot tell per-winner from per-bidder re-solves", want-1, len(bids))
			}
		})
	}
}
