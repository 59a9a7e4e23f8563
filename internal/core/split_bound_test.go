package core

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"themis/internal/cluster"
	"themis/internal/estimator"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/workload"
)

// fullTShared is RhoEstimator.tShared as it was before its split was bounded,
// verbatim but for the nil bound it hands the split: the whole pool is split
// across every job the pool can feed, and T_SH is the earliest finish among
// the jobs served.
func fullTShared(e *RhoEstimator, now float64) float64 {
	elapsed := now - e.App.SubmitTime
	if elapsed < 0 {
		elapsed = 0
	}
	active := e.jobs
	if len(active) == 0 {
		return elapsed
	}
	if e.picker.Total() == 0 {
		// With no GPUs the shared finish time is unbounded. Scaling by the
		// time already waited keeps starving apps ordered by how long they
		// have been starved, so ties among GPU-less apps resolve in favour
		// of the one waiting longest.
		return Unbounded * (1 + elapsed)
	}
	// Only the served jobs hold GPUs, so only they can finish first. The
	// split records each one's GPU count and locality, so no share is walked
	// for them, and every share it serves satisfies its job's placement
	// constraint (Picker.Split): a job it could not place drew nothing, and
	// a bid that feeds no job values out at an unbounded ρ.
	best := math.Inf(1)
	for _, idx := range e.splitAcrossJobs(nil) {
		js := &e.split.Jobs[idx]
		g, loc := js.Drawn()
		if g == 0 {
			continue
		}
		s := 1.0 // a single GPU never synchronises over the network (Profile.SOf)
		if g > 1 {
			s = e.App.Profile.S(loc)
		}
		t := elapsed + js.WorkLeft/(float64(g)*s)
		if t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		return Unbounded
	}
	return best
}

// fullRho is the map-taking RhoEstimator.rho the takes path replaced, over
// fullTShared: current+extra loaded into the picker, split in full, and the
// ratio to T_ID perturbed.
func fullRho(e *RhoEstimator, now float64, current, extra cluster.Alloc) float64 {
	e.beginCall(current)
	e.picker.Credit(extra)
	return e.Errors.Perturb(fullTShared(e, now) / e.tIdeal)
}

// stoppedEarly reports whether the estimator's bounded split of holding serves
// fewer jobs than the full split.
func stoppedEarly(e *RhoEstimator, now float64, holding cluster.Alloc) bool {
	e.beginCall(holding)
	if len(e.jobs) == 0 || e.picker.Total() == 0 {
		return false
	}
	e.finish.Elapsed, e.finish.Best = max(now-e.App.SubmitTime, 0), math.Inf(1)
	bounded := len(e.splitAcrossJobs(&e.finish))
	e.beginCall(holding)
	return bounded < len(e.splitAcrossJobs(nil))
}

// keyedTuner is the app's own tuner with work-left estimates set per job,
// which the fuzz draws from NaN, negative, zero, +Inf and a few tied values.
type keyedTuner struct {
	hyperparam.Tuner
	left map[*workload.Job]float64
}

func (k keyedTuner) WorkLeft(j *workload.Job) float64 { return k.left[j] }

// workLeftOf turns a fuzzed key into a work-left estimate.
func workLeftOf(key byte) float64 {
	switch key % 8 {
	case 0:
		return math.NaN()
	case 1:
		return -25 * float64(1+key>>3%4)
	case 2:
		return 0
	case 3:
		return math.Inf(1)
	default:
		return 100 * float64(1+key>>3%4) // four values, tied across jobs
	}
}

// FuzzBoundedSplitMatchesFullSplit holds the estimator's bounded job split to
// the full split it replaced (fullTShared): on wideFixture-style apps of 2–41
// jobs (gangs of 1, 2, 4 and 8, floors, spread caps, affinities, one
// unresolvable job), with work-left estimates that are NaN, negative, zero,
// +Inf or tied, and with profiles missing locality levels, ReportRho and
// every row of a prepared bid table, placement-aware or blind, must carry the
// full split's ρ bits, at θ = 0 and θ = 0.2, and leave the error model's RNG
// where the full valuation leaves it. Across the seed corpus some splits must
// stop early, or the bound was never exercised.
func FuzzBoundedSplitMatchesFullSplit(f *testing.F) {
	topo := wideTopo(f)
	f.Add(int64(1), uint8(0xff), []byte{4, 12, 20, 28, 36, 44})
	f.Add(int64(2), uint8(0x1f), []byte{4, 4, 4, 12, 12, 5, 13})
	f.Add(int64(3), uint8(0x15), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(4), uint8(0x00), []byte{2, 10, 4, 1, 9})
	f.Add(int64(5), uint8(0x0c), []byte{3, 4, 11, 4})
	f.Add(int64(6), uint8(0x07), []byte{})
	f.Add(int64(7), uint8(0x12), []byte{12, 20, 4, 36, 28, 0, 60})
	stops := 0
	f.Fuzz(func(t *testing.T, seed int64, levels uint8, keys []byte) {
		rng := rand.New(rand.NewSource(seed))
		app := contextApp(rng, 2+rng.Intn(40))
		for _, j := range app.Jobs {
			if rng.Intn(5) == 0 {
				j.GangSize, j.MaxParallelism = 8, 8*rng.Intn(2)
			}
		}
		slowdown := map[cluster.Locality]float64{}
		for l, s := range app.Profile.Slowdown {
			if levels&(1<<l) != 0 {
				slowdown[l] = s
			}
		}
		app.Profile.Slowdown = slowdown
		tuner := keyedTuner{Tuner: hyperparam.ForApp(app), left: map[*workload.Job]float64{}}
		for k, j := range app.Jobs {
			tuner.left[j] = j.RemainingWork()
			if len(keys) > 0 {
				tuner.left[j] = workLeftOf(keys[k%len(keys)])
			}
		}
		for _, theta := range []float64{0, 0.2} {
			ag := NewAgent(topo, app, tuner, estimator.NewErrorModel(theta, seed))
			full := NewRhoEstimator(topo, app, tuner)
			full.Errors = estimator.NewErrorModel(theta, seed)
			var v BidValuator
			var entries []BidEntry
			var drawn placement.Picker
			for step := range 4 {
				now := 200*rng.Float64() - 20
				current, offer := randomHolding(rng, topo)
				ag.PlacementBlind = rng.Intn(3) == 0
				what := fmt.Sprintf("θ=%v step %d", theta, step)
				if got, want := ag.ReportRho(now, current), fullRho(full, now, current, nil); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: ReportRho %v, full split %v", what, got, want)
				}
				v.startRound(offer) // one table a round: its unanchored rows go through the arena
				table := ag.prepareBidInto(now, current, &v, entries[:0])
				entries = table.Entries
				drawn.Load(topo, offer)
				for r, e := range table.Entries {
					if got, want := e.Rho, fullRho(full, now, current, e.Alloc); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s row %d (%v): ρ %v, full split %v", what, r, e.Alloc, got, want)
					}
					// The row's takes fill the map a map-filling draw would.
					want := drawn.Draw(nil, current, e.Alloc.Total())
					if ag.PlacementBlind {
						drawn.Credit(want)
						want = drawn.DrawSpread(nil, e.Alloc.Total())
					}
					if drawn.Credit(want); r > 0 && !e.Alloc.Equal(want) {
						t.Fatalf("%s row %d: drew %v, a map-filling draw %v", what, r, e.Alloc, want)
					}
				}
				if got, want := ag.Estimator.Errors.Perturb(1), full.Errors.Perturb(1); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: error-model RNG diverged (next draw %v, full split's %v)", what, got, want)
				}
				for _, e := range table.Entries {
					if stoppedEarly(full, now, current.Add(e.Alloc)) {
						stops++
					}
				}
				if j := app.Jobs[rng.Intn(len(app.Jobs))]; j.Active() {
					app.AdvanceJob(j, now, 1+10*rng.Float64(), j.Width(), 1)
				}
			}
		}
	})
	// Only a plain run executes the seed corpus in this process; a fuzzing
	// coordinator hands the inputs to worker processes.
	if flag.Lookup("test.fuzz").Value.String() == "" && stops == 0 {
		f.Error("no bounded split stopped early: the fuzz never exercised the bound")
	}
	f.Logf("%d bounded splits stopped early", stops)
}
