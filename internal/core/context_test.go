package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"themis/internal/cluster"
	"themis/internal/estimator"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/race"
	"themis/internal/workload"
)

// contextApp builds an app of n jobs in wideFixture's style, drawn from rng:
// gangs of 1, 2 and 4, widths of one or two gangs (or unset), work partly
// done, per-machine floors, spread caps, flavor and domain affinities, one
// job bound to a domain the cluster lacks, and some jobs already killed.
func contextApp(rng *rand.Rand, n int) *workload.App {
	profiles := []placement.Profile{placement.VGG16, placement.ResNet50, placement.GNMT}
	app := testApp("ctx", 0, profiles[rng.Intn(len(profiles))], n, 600, 1)
	for _, j := range app.Jobs {
		j.GangSize = 1 << rng.Intn(3)
		j.MaxParallelism = j.GangSize * rng.Intn(3) // 0 falls back to the gang size
		j.DoneWork = float64(rng.Intn(5)) * 100
		switch rng.Intn(8) {
		case 1:
			j.MaxMachines = 1
		case 3:
			j.MinGPUsPerMachine = 2
		case 5:
			j.FlavorAffinity = string(cluster.GPUTypeV100)
		case 6:
			j.DomainAffinity = "domain-0"
		}
		j.Killed = rng.Intn(12) == 0
	}
	app.Jobs[rng.Intn(n)].DomainAffinity = "no-such-domain"
	return app
}

// randomHolding draws a holding of a few GPUs on up to three machines and an
// offer of some of the rest, with machines left out of both.
func randomHolding(rng *rand.Rand, topo *cluster.Topology) (current, offer cluster.Alloc) {
	current, offer = cluster.NewAlloc(), cluster.NewAlloc()
	for range rng.Intn(4) {
		m := topo.Machines()[rng.Intn(topo.NumMachines())]
		current[m.ID] = 1 + rng.Intn(m.NumGPUs)
	}
	for _, m := range topo.Machines() {
		if free := m.NumGPUs - current[m.ID]; free > 0 && rng.Intn(2) == 0 {
			offer[m.ID] = 1 + rng.Intn(free)
		}
	}
	return current, offer
}

// FuzzJobContextMatchesRebuild holds the stamped job context to a rebuild from
// scratch: one long-lived Agent, valuing through one recycled BidValuator,
// follows a fuzzed sequence of job progress, completions (by AdvanceJob), kills
// and steps that change nothing, on wideFixture-style apps of mixed job widths.
// After every step an Agent built afresh on the same app must report the same ρ
// bits, prepare the same bid table (allocations and ρ bits), and give the same
// GangSize and UnmetParallelism — asked before and after the valuation calls,
// as the arbiter's leftover pass asks them outside any call — which must be the
// pairwise gang-size mode and the app's unmet width.
func FuzzJobContextMatchesRebuild(f *testing.F) {
	topo := wideTopo(f)
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(2), []byte{13, 21, 34, 55, 89, 144, 233, 5, 8, 6, 14, 22})
	f.Add(int64(3), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 7, 77, 15, 23})
	f.Add(int64(4), []byte{5, 13, 21, 29, 37, 45, 53, 61, 7, 7, 7, 2, 10, 18})
	f.Add(int64(5), []byte{4, 12, 20, 28, 36, 44, 52, 60, 68, 76, 84, 92})
	f.Add(int64(6), []byte{3, 11, 19, 2, 10, 18, 0, 8, 16, 1, 9, 17})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		app := contextApp(rng, 2+rng.Intn(40))
		ag := agentFor(topo, app)
		var v BidValuator
		var entries []BidEntry
		now := 0.0
		for step, op := range ops[:min(len(ops), 48)] {
			j := app.Jobs[int(op>>3)%len(app.Jobs)]
			switch op % 8 {
			case 0, 1, 5, 6: // progress, which may or may not complete the job
				app.AdvanceJob(j, now, 1+20*rng.Float64(), j.Width(), 0.5+rng.Float64()/2)
			case 2, 3:
				app.AdvanceJob(j, now, math.MaxFloat64, j.Width(), 1)
			case 4:
				app.KillJob(j, now)
			}
			now += 10 * rng.Float64()
			current, offer := randomHolding(rng, topo)
			fresh := agentFor(topo, app)
			what := fmt.Sprintf("step %d (op %d, job %s)", step, op, j.ID)
			// The rebuilt counts are held to their definitions by walking
			// the jobs: the pairwise mode and the app's unmet width.
			sameCounts := func(when string) {
				t.Helper()
				if got, want := ag.GangSize(), fresh.GangSize(); got != want || want != pairwiseGangSize(fresh) {
					t.Fatalf("%s, %s: GangSize %d, rebuilt %d, pairwise mode %d", what, when, got, want, pairwiseGangSize(fresh))
				}
				if got, want := ag.UnmetParallelism(current), fresh.UnmetParallelism(current); got != want || want != app.UnmetWidth(current.Total()) {
					t.Fatalf("%s, %s: UnmetParallelism %d, rebuilt %d, unmet width %d", what, when, got, want, app.UnmetWidth(current.Total()))
				}
			}
			sameRho := func(when string) {
				t.Helper()
				if got, want := ag.ReportRho(now, current), fresh.ReportRho(now, current); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s, %s: ReportRho %v, rebuilt %v", what, when, got, want)
				}
			}
			if rng.Intn(2) == 0 {
				sameCounts("before the calls")
			}
			sameRho("probe")
			v.startRound(offer) // one table a round: its unanchored rows go through the arena
			table := ag.prepareBidInto(now, current, &v, entries[:0])
			entries = table.Entries
			want := fresh.PrepareBid(now, offer, current)
			if len(table.Entries) != len(want.Entries) {
				t.Fatalf("%s: %d bid rows, rebuilt %d", what, len(table.Entries), len(want.Entries))
			}
			for r, e := range table.Entries {
				w := want.Entries[r]
				if !e.Alloc.Equal(w.Alloc) || math.Float64bits(e.Rho) != math.Float64bits(w.Rho) {
					t.Fatalf("%s: row %d is %v at ρ %v, rebuilt %v at ρ %v", what, r, e.Alloc, e.Rho, w.Alloc, w.Rho)
				}
			}
			sameRho("probe after the bid")
			sameCounts("after the calls")
		}
	})
}

// FuzzKeptOrderMatchesFresh holds the work-left order an estimator keeps
// from call to call to one built afresh: one long-lived Agent, with an error
// model at θ = 0.2, values a wideFixture-style app again and again through one
// recycled BidValuator, half the time holding nothing (its rows are the
// round's shared unanchored draws). Between valuations a fuzzed step makes no
// progress (none, or an AdvanceJob that integrates nothing), advances a job
// short of completion, which reorders the jobs, or advances one a hair,
// which breaks its work-left ties. After every step an Agent built afresh on
// the app, its error model kept in step with the long-lived one's, must
// report the same ρ bits and prepare the same table (allocations and ρ
// bits), and the two error models must be left in the same state.
func FuzzKeptOrderMatchesFresh(f *testing.F) {
	topo := wideTopo(f)
	f.Add(int64(1), []byte{0, 1, 2, 3, 0, 0, 9, 10, 17, 18})
	f.Add(int64(2), []byte{2, 2, 2, 10, 10, 18, 18, 0, 0, 3, 3})
	f.Add(int64(3), []byte{1, 0, 1, 0, 9, 8, 17, 16, 25, 24})
	f.Add(int64(4), []byte{3, 11, 19, 27, 2, 10, 18, 26, 0, 8, 16, 24})
	f.Add(int64(5), []byte{255, 254, 253, 252, 6, 5, 4, 7})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		app := contextApp(rng, 2+rng.Intn(40))
		ag := NewAgent(topo, app, hyperparam.ForApp(app), estimator.NewErrorModel(0.2, seed))
		errs := estimator.NewErrorModel(0.2, seed)
		var v BidValuator
		var entries []BidEntry
		now := 0.0
		for step, op := range ops[:min(len(ops), 48)] {
			j := app.Jobs[int(op>>2)%len(app.Jobs)]
			switch op % 4 {
			case 1: // no progress: AdvanceJob integrates nothing
				app.AdvanceJob(j, now, 0, j.Width(), 1)
			case 2: // progress short of completion, which reorders the jobs
				if j.Active() {
					app.AdvanceJob(j, now, j.RemainingWork()/float64(j.Width())*0.9*rng.Float64(), j.Width(), 1)
				}
			case 3: // a hair of progress, which breaks the job's work-left ties
				app.AdvanceJob(j, now, 1e-6, 1, 1)
			}
			now += 10 * rng.Float64()
			current, offer := randomHolding(rng, topo)
			if rng.Intn(2) == 0 {
				current = cluster.NewAlloc()
			}
			ag.PlacementBlind = rng.Intn(4) == 0
			fresh := NewAgent(topo, app, hyperparam.ForApp(app), errs)
			fresh.PlacementBlind = ag.PlacementBlind
			what := fmt.Sprintf("step %d (op %d, job %s)", step, op, j.ID)
			if got, want := ag.ReportRho(now, current), fresh.ReportRho(now, current); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ReportRho %v, fresh %v", what, got, want)
			}
			v.startRound(offer)
			table := ag.prepareBidInto(now, current, &v, entries[:0])
			entries = table.Entries
			want := fresh.PrepareBid(now, offer, current)
			if len(table.Entries) != len(want.Entries) {
				t.Fatalf("%s: %d bid rows, fresh %d", what, len(table.Entries), len(want.Entries))
			}
			for r, e := range table.Entries {
				w := want.Entries[r]
				if !e.Alloc.Equal(w.Alloc) || math.Float64bits(e.Rho) != math.Float64bits(w.Rho) {
					t.Fatalf("%s: row %d is %v at ρ %v, fresh %v at ρ %v", what, r, e.Alloc, e.Rho, w.Alloc, w.Rho)
				}
			}
			if got, want := ag.Estimator.Errors.Perturb(1), errs.Perturb(1); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: error-model RNG diverged (next draw %v, fresh %v)", what, got, want)
			}
		}
	})
}

// TestBidRowsHoldTheirSizes pins the fact that leaves prepareBidInto no row
// to drop: every candidate is drawn from the whole offer and no size exceeds
// what it offers, so every row after the empty one holds exactly its
// candidate size, and the sizes ascend strictly — no row is empty and no two
// rows are equal. It holds for placement-aware and placement-blind agents, on
// the small and the wide fixtures, for whole and partial offers.
func TestBidRowsHoldTheirSizes(t *testing.T) {
	for name, fixture := range map[string]func(testing.TB) ([]probedAgent, cluster.Alloc){
		"16 agents": func(tb testing.TB) ([]probedAgent, cluster.Alloc) { return valuationFixture(tb, 16) },
		"wide":      wideFixture,
	} {
		ps, free := fixture(t)
		offers := []cluster.Alloc{free, cluster.NewAlloc(), cluster.NewAlloc(), cluster.NewAlloc()}
		for m, n := range free {
			offers[1][m] = (n + 1) / 2 // every machine, half its GPUs
			if m%3 == 0 {
				offers[2][m] = n // a third of the machines
			}
			if m < 2 {
				offers[3][m] = n // two machines
			}
		}
		for _, blind := range []bool{false, true} {
			for i, p := range ps {
				ag := p.state.Agent.(*Agent)
				ag.PlacementBlind = blind
				for k, offer := range offers {
					var v BidValuator
					sizes := slices.Clone(v.candidateSizes(offer.Total(), ag.UnmetParallelism(p.state.Current), ag.GangSize()))
					rows := ag.PrepareBid(0, offer, p.state.Current).Entries[1:]
					what := fmt.Sprintf("%s, blind %v, agent %d, offer %d", name, blind, i, k)
					if want := min(len(sizes), DefaultMaxBidRows-1); len(rows) != want {
						t.Fatalf("%s: %d rows past the empty one for %d candidate sizes %v", what, len(rows), want, sizes)
					}
					for r, e := range rows {
						if got := e.Alloc.Total(); got != sizes[r] || r > 0 && got <= rows[r-1].Alloc.Total() {
							t.Errorf("%s: row %d holds %d GPUs (%v); candidate sizes %v", what, r+1, got, e.Alloc, sizes)
						}
					}
				}
			}
		}
	}
}

// TestRhoProbeZeroAlloc pins the ρ probe's allocation contract: once its
// buffers are warm, ReportRho allocates nothing, whether the app is unchanged
// since the last probe (the job context and the work-left order are kept),
// one of its jobs has just progressed (the order is rebuilt) or its stamp has
// just moved because a job was killed (the context is rebuilt into the
// recycled buffers). The wide fixture's apps of 9–96 jobs each probe a
// holding they split across jobs.
func TestRhoProbeZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	ps, _ := wideFixture(t)
	held := cluster.Alloc{0: 6, 1: 2, 9: 4, 24: 4}
	for i, p := range ps {
		ag := p.state.Agent.(*Agent)
		jobs := ag.App.Jobs
		j := jobs[0]
		for range 2 {
			ag.ReportRho(1, held)
		}
		if n := testing.AllocsPerRun(100, func() { ag.ReportRho(1, held) }); n != 0 {
			t.Errorf("agent %d: a probe of an unchanged app allocates %.1f objects, want 0", i, n)
		}
		if n := testing.AllocsPerRun(100, func() { ag.App.AdvanceJob(j, 1, 1e-3, 1, 1); ag.ReportRho(1, held) }); n != 0 {
			t.Errorf("agent %d: a probe after progress allocates %.1f objects, want 0", i, n)
		}
		// Each run kills the next job; the warm-up run and len(jobs)-2
		// measured ones leave the last job active.
		k := 0
		kill := func() { ag.App.KillJob(jobs[k], 1); k++; ag.ReportRho(1, held) }
		if n := testing.AllocsPerRun(len(jobs)-2, kill); n != 0 {
			t.Errorf("agent %d: a probe after a stamp move allocates %.1f objects, want 0", i, n)
		}
	}
}
