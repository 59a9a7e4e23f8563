// Package core implements Themis's scheduling contribution: the finish-time
// fairness metric ρ, Agents that estimate it and bid with it, and the
// Arbiter that runs semi-optimistic partial-allocation auctions to assign
// leased GPUs so that the maximum ρ across apps is minimised over the long
// term while placement-efficient allocations are favoured in the short term
// (§3–§5 of the paper).
package core

import (
	"math"
	"slices"

	"themis/internal/cluster"
	"themis/internal/estimator"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/workload"
)

// Unbounded is the ρ value reported by an app that currently holds no GPUs:
// with no allocation its shared finish time is unbounded (§5.1, "any non-zero
// GPU allocation to that app will lead to a huge improvement"). Using a large
// finite value keeps the max/min arithmetic well behaved.
const Unbounded = 1e12

// RhoEstimator computes finish-time fairness estimates for a single app — the
// Agent-side procedure of §5.2: given the app's current and hypothetical GPU
// allocations it estimates the shared running time T_SH, the ideal
// (dedicated-cluster) running time T_ID and their ratio ρ.
type RhoEstimator struct {
	Topo  *cluster.Topology
	App   *workload.App
	Tuner hyperparam.Tuner
	// Errors optionally perturbs estimates, modelling mis-profiled work or
	// placement sensitivity (Figure 11). Nil disables perturbation.
	Errors *estimator.ErrorModel

	// Estimator scratch, recycled across calls: the picker whose pool holds
	// the holding being valued (loaded once per call; each bid row's takes
	// are credited to it for the row's split and debited after), the anchor
	// every bid row extends (current, prepared once per table), and the job
	// context, whose queue logs the row's takes and the split's. Everything
	// an estimate touches is either caller-owned input (read only) or one of
	// these buffers, so a steady-state ρ probe allocates nothing. An
	// estimator is per-app, per-goroutine state, so plain fields suffice.
	picker placement.Picker
	anchor placement.Anchor

	// The job context: what the valuation needs of App's jobs that moves
	// only with its stamp (workload.App.Stamp) — the active jobs, T_ID, their
	// gang-size mode and summed width, the split's bound (the widest job and
	// the profile's largest S), and each job's SplitJob (want, resolved
	// constraint, unresolvable). refresh rebuilds it when the stamp has moved
	// since it was built; the SplitJobs are built by the first split after
	// that. The queue's work-left order — each job's WorkLeft and the lazy
	// sort over them — is kept from call to call while the stamp and the
	// app's progress counter (workload.App.Progress) stay where they were
	// when it was built: WorkLeft is a pure function of the jobs' progress
	// (hyperparam.Tuner). ordered marks the order valid; splitReady marks
	// that the call in progress has readied the queue.
	stamp, progress   uint64 // App's stamp when the context was built; its progress when the order was
	jobs              []*workload.Job
	tIdeal            float64
	gang              int                  // GangSize
	width             int                  // the active jobs' summed Width
	finish            placement.Finish     // Profile, MaxWidth, SMax; each split sets Elapsed and Best
	split             placement.SplitQueue // Jobs: per active job, same indexing as jobs; empty until built
	built, splitReady bool
	ordered           bool
}

// refresh rebuilds the job context if the app's stamp has moved since it was
// built: an O(1) check otherwise.
func (e *RhoEstimator) refresh() {
	if e.built && e.stamp == e.App.Stamp() {
		return
	}
	e.built, e.stamp = true, e.App.Stamp()
	e.jobs = e.App.AppendActiveJobs(e.jobs[:0])
	e.tIdeal = e.TIdeal()
	e.gang = gangMode(e.jobs)
	e.width = 0
	f := &e.finish
	f.Profile, f.MaxWidth, f.SMax = &e.App.Profile, 0, 1
	for _, j := range e.jobs {
		e.width += j.Width()
		f.MaxWidth = max(f.MaxWidth, j.Width())
	}
	for l := cluster.LocalitySlot; l <= cluster.LocalityNone; l++ {
		s := e.App.Profile.S(l)
		if !(s > 0) {
			s = math.NaN() // no bound holds under a slowdown of zero or less
		}
		f.SMax = max(f.SMax, s)
	}
	e.split.Jobs = e.split.Jobs[:0]
	e.splitReady, e.ordered = false, false
}

// beginCall starts a valuation call (a ρ probe, or all the rows of one bid
// table) of holding, which it loads into the picker: job state does not
// change while it is in flight, so the call's rows share the job context
// and, once the first of them has split, the work-left order.
func (e *RhoEstimator) beginCall(holding cluster.Alloc) {
	e.refresh()
	e.splitReady = false
	e.split.Takes = e.split.Takes[:0]
	e.picker.Load(e.Topo, holding)
}

// gangMode returns the gang size jobs typically need: the mode (the larger
// size on a tie), falling back to 1. One pass tallies the few distinct sizes
// on the stack and keeps the lexicographic maximum of (count, size) as the
// counts grow.
func gangMode(jobs []*workload.Job) int {
	type sizeCount struct{ size, n int }
	var buf [16]sizeCount
	tally, best := buf[:0], sizeCount{size: 1}
	for _, j := range jobs {
		k := slices.IndexFunc(tally, func(t sizeCount) bool { return t.size == j.GangSize })
		if k < 0 {
			k, tally = len(tally), append(tally, sizeCount{size: j.GangSize})
		}
		t := &tally[k]
		t.n++
		if t.n > best.n || t.n == best.n && t.size > best.size {
			best = *t
		}
	}
	return best.size
}

// splitAcrossJobs divides the app-level allocation loaded into the picker
// among the call's active jobs (placement.Picker.Split, §5.2 step 4), least
// work left by the tuner's estimate first, stopping early as f allows (nil:
// never), and returns the jobs served (indices into e.jobs and e.split.Jobs,
// whose Drawn and Run tell what each got).
func (e *RhoEstimator) splitAcrossJobs(f *placement.Finish) []int {
	e.readySplit()
	return e.picker.Split(e.picker.Total(), &e.split, f)
}

// readySplit readies the call's split and returns its log, for a bid row to
// be drawn into and valued by rho. The call's first use empties the log, so
// it comes before any row is drawn. It keeps the work-left order the last
// call left when no job has moved since (see ordered); otherwise it asks the
// tuner for every job's work left and starts a new order, building the
// SplitJobs first if the context was rebuilt.
func (e *RhoEstimator) readySplit() *[]placement.Take {
	if q := &e.split; !e.splitReady {
		if e.ordered && e.progress == e.App.Progress() {
			q.Rewind()
		} else {
			if len(q.Jobs) != len(e.jobs) {
				for _, j := range e.jobs {
					q.Jobs = append(q.Jobs, j.SplitJob(e.Topo, 0))
				}
			}
			for i, j := range e.jobs {
				q.Jobs[i].WorkLeft = e.Tuner.WorkLeft(j)
			}
			q.Reset()
			e.progress, e.ordered = e.App.Progress(), true
		}
		e.splitReady = true
	}
	return &e.split.Takes
}

// NewRhoEstimator returns an estimator for app using the given tuner for
// work-left estimates.
func NewRhoEstimator(topo *cluster.Topology, app *workload.App, tuner hyperparam.Tuner) *RhoEstimator {
	return &RhoEstimator{Topo: topo, App: app, Tuner: tuner}
}

// TIdeal returns the app's estimated running time with its ideal GPU
// allocation in a dedicated cluster: min over all the app's jobs, ended ones
// included, of W_j / G_ideal_j with perfect placement (§5.2 step 5), so it
// does not move as jobs end. Jobs of no positive width are skipped; if none
// is left (or the minimum is not positive) 1e-6 keeps ρ defined.
func (e *RhoEstimator) TIdeal() float64 {
	best := math.Inf(1)
	for _, j := range e.App.Jobs {
		g := j.Width()
		if g <= 0 {
			continue
		}
		t := j.TotalWork / float64(g)
		if t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) || best <= 0 {
		return 1e-6
	}
	return best
}

// tShared estimates the app's shared running time if it holds the
// allocation loaded into the picker from now until completion (§5.2 step 4):
// elapsed time plus the quickest job's finish under the placement-sensitive
// split. It is Unbounded·(1+elapsed) with no GPUs, Unbounded if no job is fed.
func (e *RhoEstimator) tShared(now float64) float64 {
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
	// Only the served jobs hold GPUs, so only they can finish first, and the
	// split serves jobs only while one could still finish before those it
	// has served (placement.Finish). Every share it serves satisfies its
	// job's placement constraint (Picker.Split): a job it could not place
	// drew nothing, and a bid that feeds no job values out at an unbounded ρ.
	f := &e.finish
	f.Elapsed, f.Best = elapsed, math.Inf(1)
	e.splitAcrossJobs(f)
	if math.IsInf(f.Best, 1) {
		return Unbounded
	}
	return f.Best
}

// rho is ρ, within the current call, of the holding loaded into the picker
// plus the takes the split's log holds (a bid row drawn into it, or none).
// The row is credited for the split, the split's takes are handed back and
// the row debited again, so the pool is left as the call loaded it and the
// log empty: prepareBidInto values every row of a table this way.
func (e *RhoEstimator) rho(now float64) float64 {
	p, q := &e.picker, &e.split
	row := len(q.Takes)
	p.CreditTakes(q.Takes, 1)
	t := e.tShared(now)
	p.CreditTakes(q.Takes[row:], 1)
	p.CreditTakes(q.Takes[:row], -1)
	q.Takes = q.Takes[:0]
	return e.Errors.Perturb(t / e.tIdeal)
}

// CurrentRho estimates ρ with the app's present allocation only — the value
// the Arbiter probes before each auction (step 1 in Figure 3).
func (e *RhoEstimator) CurrentRho(now float64, current cluster.Alloc) float64 {
	e.beginCall(current)
	return e.rho(now)
}
