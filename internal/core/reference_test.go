package core

// Test-only oracles: the per-row valuation and the per-bidder hidden payment
// exactly as they were before the round's invariants were hoisted (one
// compiled solver instance per auction, one job context per valuation call),
// the auction round as it was while it was keyed by app ID (a second row
// type for the solver, ID-keyed result maps, map-built leftover passes), and
// the pairwise gang-size mode. The production code must reproduce their
// results bit for bit.

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
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

// solveBids is one fresh compile → unmasked search → read-out over bids: each
// bidder's chosen row, that row's log valuation, and the objective.
func solveBids(offer cluster.Alloc, bids []BidTable, opts solver.Options) (rows []int, logs []float64, obj float64, err error) {
	inst := new(solver.Instance)
	if err := inst.Compile(offer, len(bids), func(i int) []BidEntry { return bids[i].Entries }); err != nil {
		return nil, nil, 0, err
	}
	obj = inst.Solve(opts, solver.NoSkip)
	for i := range bids {
		row, l := inst.Choice(i)
		rows, logs = append(rows, row), append(logs, l)
	}
	return rows, logs, obj, nil
}

// refHiddenPayment is the hiddenPayment of before the masked re-solve: a
// fresh compile → search over the other bidders. logs holds every bidder's
// log valuation in the full solution.
func refHiddenPayment(offer cluster.Alloc, bids []BidTable, logs []float64, i int, opts solver.Options) float64 {
	var withLog float64
	others := make([]BidTable, 0, len(bids)-1)
	for j, b := range bids {
		if j == i {
			continue
		}
		others = append(others, b)
		withLog += logs[j]
	}
	if len(others) == 0 {
		return 1 // a lone bidder pays nothing
	}
	_, _, withoutLog, err := solveBids(offer, others, opts)
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
	topo := wideTopo(tb)
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

// wideTopo is wideFixture's cluster: 24 8-GPU P100 machines and 8 4-GPU
// V100 machines, 8 to a rack.
func wideTopo(tb testing.TB) *cluster.Topology {
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
	return topo
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
			states, bidding := bidAll(ps)
			for round := 0; round < 3; round++ {
				reseed()
				got := v.prepareBids(now, free, states, bidding)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("round %d: table %d differs:\n got %v\nwant %v", round, i, got[i], want[i])
					}
				}
				checkTablesAgainstReference(t, ps, got, now, theta)
			}

			// The other entry points share the context: the job split itself
			// and a bare ρ probe match the reference too.
			for i, p := range ps {
				ag := p.state.Agent.(*Agent)
				total := p.state.Current.Add(want[i].Entries[len(want[i].Entries)-1].Alloc)
				ref := refSplitAcrossJobs(ag.Estimator, total, ag.App.AppendActiveJobs(nil))
				got, _ := splitOf(ag.Estimator, total)
				for k, j := range ag.App.AppendActiveJobs(nil) {
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

				rows, logs, obj, err := solveBids(offer, bids, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Objective != obj {
					t.Fatalf("trial %d: objective %v, fresh solve %v", trial, res.Objective, obj)
				}
				for i, b := range bids {
					pf, aw := b.Entries[rows[i]].Alloc, res.Awards[i]
					if !aw.PF.Equal(pf) {
						t.Fatalf("trial %d %s: PF %v, fresh solve %v", trial, b.App, aw.PF, pf)
					}
					want := refHiddenPayment(offer, bids, logs, i, c.opts)
					got := aw.C
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
					if w := scaleAllocation(new(placement.Picker), topo, pf, want); pf.Total() > 0 && !aw.Won.Equal(w) {
						t.Errorf("trial %d %s: winner %v, want %v", trial, b.App, aw.Won, w)
					}
					if pf.Total() == 0 && aw.Won.Total() != 0 {
						t.Errorf("trial %d %s: empty PF bundle won %v", trial, b.App, aw.Won)
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
				for _, aw := range pf.Awards {
					if aw.PF.Total() > 0 {
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

// --- The auction round as it was while keyed by app ID -----------------------
//
// What follows is the parent's RunPartialAllocation, toBidder and the tail of
// OfferResources (grantLeftovers, AllocateLeftovers) verbatim, modulo ref
// prefixes, the clocks, and the two calls whose old form left the solver with
// this PR: Compile takes the tables by index, and the ID-keyed Assignment is
// rebuilt here from Choice. The by-index round must reproduce every result
// bit for bit.

type refBundle struct {
	Alloc cluster.Alloc
	Value float64
}

type refBidder struct {
	ID      string
	Bundles []refBundle
}

type refAuctionResult struct {
	Winners          map[workload.AppID]cluster.Alloc
	ProportionalFair map[workload.AppID]cluster.Alloc
	HiddenPayment    map[workload.AppID]float64
	Leftover         cluster.Alloc
	Objective        float64
}

// refValue is the old BidEntry.Value.
func refValue(b BidEntry) float64 {
	if b.Rho <= 0 {
		return 1 / 1e-9
	}
	return 1 / b.Rho
}

// toBidder converts a bid table into a solver bidder using V = 1/ρ values.
func toBidder(b BidTable) refBidder {
	out := refBidder{ID: string(b.App)}
	for _, e := range b.Entries {
		out.Bundles = append(out.Bundles, refBundle{Alloc: e.Alloc, Value: refValue(e)})
	}
	return out
}

// refAssignment is the old Instance.Assignment over the old normalization:
// bidder ID → chosen bundle, values clamped at 1e-12.
func refAssignment(inst *solver.Instance, bidders []refBidder) map[string]refBundle {
	asg := make(map[string]refBundle, len(bidders))
	for i, b := range bidders {
		row, _ := inst.Choice(i)
		bun := b.Bundles[row]
		if bun.Value < 1e-12 {
			bun.Value = 1e-12
		}
		asg[b.ID] = bun
	}
	return asg
}

func refRunPartialAllocation(topo *cluster.Topology, offer cluster.Alloc, bids []BidTable, opts AuctionOptions) (refAuctionResult, error) {
	res := refAuctionResult{
		Winners:          make(map[workload.AppID]cluster.Alloc),
		ProportionalFair: make(map[workload.AppID]cluster.Alloc),
		HiddenPayment:    make(map[workload.AppID]float64),
		Leftover:         offer.Clone(),
	}
	if len(bids) == 0 || offer.Total() == 0 {
		return res, nil
	}
	for _, b := range bids {
		if err := b.Validate(offer); err != nil {
			return res, fmt.Errorf("core: invalid bid: %w", err)
		}
	}

	bidders := make([]refBidder, 0, len(bids))
	for _, b := range bids {
		bidders = append(bidders, toBidder(b))
	}
	inst := new(solver.Instance)
	if err := inst.Compile(offer, len(bids), func(i int) []BidEntry { return bids[i].Entries }); err != nil {
		return res, fmt.Errorf("core: proportional-fair solve: %w", err)
	}
	res.Objective = inst.Solve(opts.Solver, solver.NoSkip)
	// Read the full solution out before the masked re-solves overwrite the
	// instance's choices: each bidder's bundle and its log valuation.
	full := refAssignment(inst, bidders)
	logs := make([]float64, len(bids))
	for i, b := range bids {
		logs[i] = math.Log(full[string(b.App)].Value)
	}

	var picker placement.Picker
	for i, b := range bids {
		id := b.App
		pf := full[string(id)].Alloc
		res.ProportionalFair[id] = pf
		ci := 1.0
		if !opts.DisableHiddenPayments && pf.Total() > 0 {
			ci = hiddenPayment(inst, logs, i, opts.Solver)
		}
		res.HiddenPayment[id] = ci
		final := refScaleAllocation(&picker, topo, pf, ci)
		res.Winners[id] = final
		if err := res.Leftover.Debit(final); err != nil {
			return res, fmt.Errorf("core: auction allocated more than offered: %w", err)
		}
	}
	return res, nil
}

func refScaleAllocation(picker *placement.Picker, topo *cluster.Topology, pf cluster.Alloc, ci float64) cluster.Alloc {
	total := pf.Total()
	if total == 0 {
		return cluster.NewAlloc()
	}
	keep := int(math.Floor(ci*float64(total) + 1e-9))
	if keep >= total {
		return pf.Clone()
	}
	if keep <= 0 {
		return cluster.NewAlloc()
	}
	return picker.PickInto(nil, topo, pf, nil, keep)
}

func refAllocateLeftovers(topo *cluster.Topology, leftover cluster.Alloc, currents map[workload.AppID]cluster.Alloc, wants, chunks map[workload.AppID]int) map[workload.AppID]cluster.Alloc {
	grants := make(map[workload.AppID]cluster.Alloc)
	apps := make([]workload.AppID, 0, len(currents))
	for id := range currents {
		if wants[id] > 0 {
			apps = append(apps, id)
		}
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	if len(apps) == 0 {
		return grants
	}
	granted := make(map[workload.AppID]int)
	rotation := 0
	var picker placement.Picker
	var pick cluster.Alloc // scratch: Add below copies out of it
	for len(leftover) > 0 {
		progress := false
		for k := 0; k < len(apps) && len(leftover) > 0; k++ {
			id := apps[(rotation+k)%len(apps)]
			want := wants[id] - granted[id]
			if want <= 0 {
				continue
			}
			chunk := chunks[id]
			if chunk <= 0 {
				chunk = 1
			}
			if chunk > want {
				chunk = want
			}
			anchor := currents[id].Add(grants[id])
			// The parent's map-debiting Draw, as PickInto then Debit
			// (placement's TestDrawMatchesPickIntoThenSub).
			pick = picker.PickInto(pick, topo, leftover, anchor, chunk)
			if err := leftover.Debit(pick); err != nil {
				panic(err)
			}
			if pick.Total() == 0 {
				continue
			}
			grants[id] = grants[id].Add(pick)
			granted[id] += pick.Total()
			rotation++
			progress = true
		}
		if !progress {
			break // nobody can take more
		}
	}
	return grants
}

func refGrantLeftovers(topo *cluster.Topology, leftover cluster.Alloc, candidates []probedAgent, decided []Allocation) map[workload.AppID]cluster.Alloc {
	if len(candidates) == 0 || leftover.Total() == 0 {
		return nil
	}
	decidedBy := make(map[workload.AppID]cluster.Alloc)
	for _, d := range decided {
		decidedBy[d.App] = decidedBy[d.App].Add(d.Alloc)
	}
	currents := make(map[workload.AppID]cluster.Alloc)
	wants := make(map[workload.AppID]int)
	chunks := make(map[workload.AppID]int)
	for _, c := range candidates {
		id := c.id
		cur := c.state.Current
		if d := decidedBy[id]; d.Total() > 0 {
			cur = cur.Add(d)
		}
		want := c.state.Agent.UnmetParallelism(cur)
		if want <= 0 {
			continue
		}
		currents[id] = cur
		wants[id] = want
		chunks[id] = c.state.Agent.GangSize()
	}
	return refAllocateLeftovers(topo, leftover, currents, wants, chunks)
}

// probedAgent is the probe record the ID-keyed round kept per agent: its
// state, ID and ρ. The reference round and the test fixtures use it.
type probedAgent struct {
	state AgentState
	id    workload.AppID
	rho   float64
}

// bidAll splits probed agents into the round's agents and the bidding
// probes that name every one of them, in order: prepareBids's arguments for
// everyone bidding.
func bidAll(ps []probedAgent) ([]AgentState, []probe) {
	states, bidding := make([]AgentState, len(ps)), make([]probe, len(ps))
	for i, p := range ps {
		states[i], bidding[i] = p.state, probe{rho: p.rho, at: int32(i)}
	}
	return states, bidding
}

// refOfferResources is the parent's Arbiter.OfferResources without its clocks
// and phase breakdown: probe, rank, bid (through each Bidder's own
// PrepareBid), the ID-keyed auction, the map-reading tail. stats takes what
// the round adds to the counters.
func refOfferResources(topo *cluster.Topology, cfg Config, stats *ArbiterStats, now float64, free cluster.Alloc, agents []AgentState) ([]Allocation, error) {
	if free.Total() == 0 || len(agents) == 0 {
		return nil, nil
	}
	stats.Auctions++
	stats.GPUsAuctioned += free.Total()
	ps := make([]probedAgent, 0, len(agents))
	for _, st := range agents {
		ps = append(ps, probedAgent{state: st, id: st.Agent.ID(), rho: st.Agent.ReportRho(now, st.Current)})
	}
	slices.SortFunc(ps, func(a, b probedAgent) int {
		if a.rho != b.rho {
			return cmp.Compare(b.rho, a.rho)
		}
		return cmp.Compare(a.id, b.id)
	})
	n := len(ps)
	participants := int(math.Ceil((1 - cfg.FairnessKnob) * float64(n)))
	if participants < 1 {
		participants = 1
	}
	if participants > n {
		participants = n
	}
	stats.OffersMade += participants
	bidding := ps[:participants]
	bids := make([]BidTable, 0, participants)
	for _, p := range bidding {
		bids = append(bids, p.state.Agent.PrepareBid(now, free, p.state.Current))
	}

	auction, err := refRunPartialAllocation(topo, free, bids, cfg.Auction)
	if err != nil {
		return nil, err
	}

	// Walk the bids in order, not the Winners map: TruthfulPayments is a
	// float sum whose bits depend on the order of its terms.
	var out []Allocation
	winners := 0
	for _, b := range bids {
		alloc := auction.Winners[b.App]
		stats.TruthfulPayments += 1 - auction.HiddenPayment[b.App]
		if alloc.Total() == 0 {
			stats.WinnersWithNothing++
			continue
		}
		winners++
		out = append(out, Allocation{App: b.App, Alloc: alloc, FromAuction: true})
	}
	stats.AuctionWinners += winners

	leftover := auction.Leftover
	stats.GPUsLeftOver += leftover.Total()
	if leftover.Total() > 0 {
		grants := make(map[workload.AppID]cluster.Alloc)
		for _, candidates := range [][]probedAgent{ps[participants:], bidding} {
			for id, g := range refGrantLeftovers(topo, leftover, candidates, out) {
				grants[id] = grants[id].Add(g)
			}
		}
		for id, g := range grants {
			if g.Total() > 0 {
				out = append(out, Allocation{App: id, Alloc: g, FromAuction: false})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out, nil
}

// TestAuctionMatchesIDKeyedReference: over randomized bid sets — exact,
// straddling ExactLimit (the full solve greedy, some masked ones exact) and
// greedy at 64–96 bidders, hidden payments on and off — the by-index auction
// returns, award for award, what the ID-keyed one returned: the same PF
// bundle, c_i bits, final allocation, leftover and objective bits.
func TestAuctionMatchesIDKeyedReference(t *testing.T) {
	topo := testTopo(t, 16, 8, 4)
	for _, c := range []struct {
		name               string
		minBidders, spread int
		rows, machines     int
		trials             int
		opts               solver.Options
	}{
		{"exact", 2, 5, 4, 3, 30, solver.Options{}},
		{"straddling-the-limit", 5, 3, 4, 3, 30, solver.Options{ExactLimit: 1500}},
		{"greedy-64-96", 64, 33, 6, 14, 3, solver.Options{}},
	} {
		for _, noPay := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/payments-off=%t", c.name, noPay), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(c.minBidders*7 + c.rows)))
				opts := AuctionOptions{Solver: c.opts, DisableHiddenPayments: noPay}
				winners, losers := 0, 0
				for trial := 0; trial < c.trials; trial++ {
					offer := cluster.NewAlloc()
					for m := 0; m < c.machines; m++ {
						offer[cluster.MachineID(m)] = 2 + rng.Intn(7)
					}
					bids := contendedBids(rng, offer, c.minBidders+rng.Intn(c.spread), c.rows)
					want, err := refRunPartialAllocation(topo, offer, bids, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunPartialAllocation(topo, offer, bids, opts)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
						t.Fatalf("trial %d: objective %v, reference %v", trial, got.Objective, want.Objective)
					}
					if !got.Leftover.Equal(want.Leftover) {
						t.Fatalf("trial %d: leftover %v, reference %v", trial, got.Leftover, want.Leftover)
					}
					if len(got.Awards) != len(bids) {
						t.Fatalf("trial %d: %d awards for %d bids", trial, len(got.Awards), len(bids))
					}
					for i, aw := range got.Awards {
						id := bids[i].App
						if !aw.PF.Equal(want.ProportionalFair[id]) {
							t.Errorf("trial %d %s: PF %v, reference %v", trial, id, aw.PF, want.ProportionalFair[id])
						}
						if math.Float64bits(aw.C) != math.Float64bits(want.HiddenPayment[id]) {
							t.Errorf("trial %d %s: c_i %v, reference %v", trial, id, aw.C, want.HiddenPayment[id])
						}
						if !aw.Won.Equal(want.Winners[id]) {
							t.Errorf("trial %d %s: won %v, reference %v", trial, id, aw.Won, want.Winners[id])
						}
						if aw.Won.Total() == 0 {
							losers++
							if aw.Won != nil {
								t.Errorf("trial %d %s: a bidder that takes nothing holds a map", trial, id)
							}
						} else {
							winners++
						}
					}
				}
				if winners == 0 || losers == 0 {
					t.Fatalf("fixture covered %d winners and %d non-winners; want both", winners, losers)
				}
			})
		}
	}
}

// sortedDecisions orders decisions by app, auction win ahead of leftover
// grant — the one order both rounds' outputs can be compared in (the old tail
// appended leftover grants in map order).
func sortedDecisions(ds []Allocation) []Allocation {
	out := slices.Clone(ds)
	slices.SortFunc(out, func(x, y Allocation) int {
		if x.App != y.App {
			return cmp.Compare(x.App, y.App)
		}
		if x.FromAuction != y.FromAuction {
			if x.FromAuction {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}

// counters strips the clocks off a stats block.
func counters(st ArbiterStats) ArbiterStats {
	return ArbiterStats{
		Auctions: st.Auctions, OffersMade: st.OffersMade, GPUsAuctioned: st.GPUsAuctioned, GPUsLeftOver: st.GPUsLeftOver,
		TruthfulPayments: st.TruthfulPayments, WinnersWithNothing: st.WinnersWithNothing, AuctionWinners: st.AuctionWinners,
	}
}

// TestRoundMatchesIDKeyedReference runs whole rounds of real agents — few
// enough to solve exactly and 80 of them (greedy), everyone bidding (f = 0)
// and the worst half only, bid errors θ ∈ {0, 0.2}, hidden payments on and
// off — through Arbiter.OfferResources (batched valuation on recycled rows,
// by-index auction and leftover passes) and through the ID-keyed reference
// round on an identically seeded second copy of the agents: the decisions,
// once both are put in one order, and every counter including the
// TruthfulPayments bits must agree, round after round. The shuffled cases
// list the Arbiter's agents in a seeded random order, as the serving layer's
// map order does, and the reference's in fixture (ID) order.
func TestRoundMatchesIDKeyedReference(t *testing.T) {
	for _, c := range []struct {
		name             string
		agents, machines int
		knob             float64
		shuffle          bool
	}{
		{"exact-12-worst-half", 12, 16, 0.5, false},
		{"greedy-80-everyone", 80, 64, 0, false},
		{"greedy-80-worst-half", 80, 64, 0.5, false},
		{"exact-12-worst-half-shuffled", 12, 16, 0.5, true},
		{"greedy-80-worst-half-shuffled", 80, 64, 0.5, true},
	} {
		for _, theta := range []float64{0, 0.2} {
			for _, noPay := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/theta=%v/payments-off=%t", c.name, theta, noPay), func(t *testing.T) {
					cfg := Config{FairnessKnob: c.knob, LeaseDuration: 20, Auction: AuctionOptions{DisableHiddenPayments: noPay}}
					build := func() ([]AgentState, cluster.Alloc, *cluster.Topology) {
						ps, free := valuationFixtureOn(t, c.agents, c.machines)
						states := make([]AgentState, 0, len(ps))
						for i, p := range ps {
							ag := p.state.Agent.(*Agent)
							if theta > 0 {
								ag.Estimator.Errors = estimator.NewErrorModel(theta, int64(100+i))
							}
							states = append(states, p.state)
						}
						return states, free, ps[0].state.Agent.(*Agent).Estimator.Topo
					}
					states, free, topo := build()
					refStates, refFree, refTopo := build()
					if c.shuffle {
						rng := rand.New(rand.NewSource(int64(c.agents)))
						rng.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
					}
					arb, err := NewArbiter(topo, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var refStats ArbiterStats
					leftoverGrants, wins := 0, 0
					for round := 0; round < 3; round++ {
						now := float64(10 * round)
						got, err := arb.OfferResources(now, free, states)
						if err != nil {
							t.Fatal(err)
						}
						want, err := refOfferResources(refTopo, cfg, &refStats, now, refFree, refStates)
						if err != nil {
							t.Fatal(err)
						}
						got, want = sortedDecisions(got), sortedDecisions(want)
						if len(got) != len(want) {
							t.Fatalf("round %d: %d decisions, reference %d", round, len(got), len(want))
						}
						for i := range want {
							if got[i].App != want[i].App || got[i].FromAuction != want[i].FromAuction || !got[i].Alloc.Equal(want[i].Alloc) {
								t.Errorf("round %d decision %d: %+v, reference %+v", round, i, got[i], want[i])
							}
							if want[i].FromAuction {
								wins++
							} else {
								leftoverGrants++
							}
						}
						if g, w := counters(arb.Stats), refStats; g != w {
							t.Fatalf("round %d: counters %+v, reference %+v", round, g, w)
						}
					}
					// The worst half of this fixture is the starved apps, whose
					// hidden payments forfeit everything they win (ROADMAP 1b):
					// with payments on, only the f = 0 rounds have winners.
					if leftoverGrants == 0 || wins == 0 && (noPay || c.knob == 0) {
						t.Fatalf("fixture produced %d auction wins and %d leftover grants; want both", wins, leftoverGrants)
					}
				})
			}
		}
	}
}

// TestDecisionsDoNotAliasBidRows: the rows a round values — maps included —
// are the valuator's and are rewritten by the next round, so nothing a round
// returns may share a map with them. Run round k+1 over a different free
// vector and check round k's decisions still say what they said.
func TestDecisionsDoNotAliasBidRows(t *testing.T) {
	ps, free := valuationFixture(t, 16)
	topo := ps[0].state.Agent.(*Agent).Estimator.Topo
	arb, err := NewArbiter(topo, Config{FairnessKnob: 0.25, LeaseDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	states := make([]AgentState, 0, len(ps))
	for _, p := range ps {
		states = append(states, p.state)
	}
	first, err := arb.OfferResources(0, free, states)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < 2 {
		t.Fatalf("round 0 made %d decisions; the fixture should produce several", len(first))
	}
	snapshot := make([]cluster.Alloc, len(first))
	for i, d := range first {
		snapshot[i] = d.Alloc.Clone()
	}
	// Round k+1 offers other machines, so every recycled row is rewritten
	// with different contents.
	other := cluster.NewAlloc()
	for m, n := range free {
		if m%2 == 0 {
			other[m] = n
		}
	}
	for round := 1; round <= 2; round++ {
		if _, err := arb.OfferResources(float64(round), other, states); err != nil {
			t.Fatal(err)
		}
		for i, d := range first {
			if !d.Alloc.Equal(snapshot[i]) {
				t.Fatalf("after round %d, round 0's decision for %s reads %v, was %v: it shares a map with a recycled bid row", round, d.App, d.Alloc, snapshot[i])
			}
		}
	}
}

// pairwiseGangSize is Agent.GangSize as it was before the one-pass tally,
// verbatim: each distinct active size counted by a scan from its first active
// job, O(jobs²).
func pairwiseGangSize(ag *Agent) int {
	jobs := ag.App.Jobs
	best, bestN := 1, 0
	for i, j := range jobs {
		same := func(k *workload.Job) bool { return k.Active() && k.GangSize == j.GangSize }
		// Count each distinct size once, at its first active job.
		if !j.Active() || slices.ContainsFunc(jobs[:i], same) {
			continue
		}
		n := 0
		for _, k := range jobs[i:] {
			if same(k) {
				n++
			}
		}
		if n > bestN || (n == bestN && j.GangSize > best) {
			best, bestN = j.GangSize, n
		}
	}
	return best
}

// TestGangSizeMatchesPairwiseMode holds the one-pass mode to the pairwise
// scan it replaced over 5 000 random apps of 1–98 jobs: gang sizes from
// {0, 1, 2, 3, 4, 8, 16, 32, 64} (a few per app, so modes tie often),
// finished and killed jobs among them, and apps with no active job at all.
// The arbiter's leftover chunking reads the same method, so bid tables and
// leftover grants both rest on this agreement.
func TestGangSizeMatchesPairwiseMode(t *testing.T) {
	topo := testTopo(t, 2, 2, 4)
	sizes := []int{0, 1, 2, 3, 4, 8, 16, 32, 64}
	rng := rand.New(rand.NewSource(28))
	ties := 0
	for trial := range 5000 {
		app := testApp(workload.AppID(fmt.Sprintf("g%d", trial)), 0, placement.VGG16, 1+rng.Intn(98), 100, 1)
		palette := make([]int, 1+rng.Intn(4))
		for i := range palette {
			palette[i] = sizes[rng.Intn(len(sizes))]
		}
		for _, j := range app.Jobs {
			j.GangSize = palette[rng.Intn(len(palette))]
			switch rng.Intn(6) {
			case 0:
				j.Killed = true
			case 1:
				j.DoneAt = 1
			}
		}
		counts := map[int]int{}
		for _, j := range app.Jobs {
			if j.Active() {
				counts[j.GangSize]++
			}
		}
		top := slices.Sorted(maps.Values(counts))
		if n := len(top); n > 1 && top[n-1] == top[n-2] {
			ties++
		}
		ag := agentFor(topo, app)
		if got, want := ag.GangSize(), pairwiseGangSize(ag); got != want {
			t.Fatalf("trial %d: GangSize = %d, the pairwise mode is %d (active counts %v)", trial, got, want, counts)
		}
	}
	if ties < 250 {
		t.Errorf("only %d of 5000 apps tie for the mode; the generator no longer exercises the tie-break", ties)
	}
}
