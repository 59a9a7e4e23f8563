// Package core implements Themis's scheduling contribution: the finish-time
// fairness metric ρ, Agents that estimate it and bid with it, and the
// Arbiter that runs semi-optimistic partial-allocation auctions to assign
// leased GPUs so that the maximum ρ across apps is minimised over the long
// term while placement-efficient allocations are favoured in the short term
// (§3–§5 of the paper).
package core

import (
	"math"

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

	// Estimator scratch, recycled across calls: the split output slice, the
	// "remaining" map, the per-job pick maps, the aggregate total of Rho's
	// current+extra, and the job context. Everything an estimate touches is
	// either caller-owned input (read only) or one of these buffers, so a
	// steady-state ρ probe allocates nothing; SplitForJobs clones the
	// per-job maps before handing them out. An estimator is per-app,
	// per-goroutine state, so plain fields suffice.
	splitOut    []cluster.Alloc
	splitFree   cluster.Alloc
	splitMaps   []cluster.Alloc
	emptyAnchor cluster.Alloc
	total       cluster.Alloc
	picker      placement.Picker

	// The job context: what every valuation of one call (a ρ probe, or all
	// the rows of one bid table) needs of the app's jobs and no row changes.
	// beginCall rebuilds jobs and tIdeal; the per-job split facts are filled
	// by the first row that has GPUs to split. It is valid for that one
	// call only — job state must not change under it.
	jobs       []*workload.Job // active jobs
	tIdeal     float64
	split      []jobSplit      // per active job, same indexing as jobs
	splitOrder []int           // assignment order over jobs: least work left first
	cons       []jobConstraint // the constrained jobs' constraints, via jobSplit.cons
}

// jobSplit is what splitting an allocation needs to know about one active job.
type jobSplit struct {
	workLeft float64
	want     int // GPUs the job can use
	cons     int // index into RhoEstimator.cons; -1 for an unconstrained job
}

// jobConstraint is a job's placement constraint resolved against Topo; ok is
// false when it names a domain the topology does not have.
type jobConstraint struct {
	c  placement.Constraint
	ok bool
}

// beginCall starts a valuation call: it snapshots the app's active jobs and
// T_ID and invalidates the per-job split facts of the previous call.
func (e *RhoEstimator) beginCall() {
	if e.emptyAnchor == nil {
		e.emptyAnchor, e.splitFree = cluster.NewAlloc(), cluster.NewAlloc()
	}
	e.jobs = e.App.AppendActiveJobs(e.jobs[:0])
	e.tIdeal = e.TIdeal()
	e.split, e.splitOrder = e.split[:0], e.splitOrder[:0]
}

// jobSplits returns the call's per-job split facts and assignment order,
// evaluating WorkLeft and PlacementConstraint once per job on first use.
func (e *RhoEstimator) jobSplits() ([]jobSplit, []int) {
	if len(e.split) == len(e.jobs) {
		return e.split, e.splitOrder
	}
	order := e.splitOrder[:0]
	e.cons = e.cons[:0]
	for i, j := range e.jobs {
		js := jobSplit{workLeft: e.Tuner.WorkLeft(j), want: j.MaxParallelism, cons: -1}
		if js.want <= 0 {
			js.want = j.GangSize
		}
		if c, ok := j.PlacementConstraint(e.Topo); !ok || !c.IsZero() {
			js.cons = len(e.cons)
			e.cons = append(e.cons, jobConstraint{c, ok})
		}
		e.split = append(e.split, js)
		order = append(order, i)
	}
	// Jobs closest to completion are assigned first. The exchange sort is
	// kept as is (over the cached keys): it is not stable, and bid tables
	// must not change with how ties happen to fall.
	for i := 0; i < len(order); i++ {
		for k := i + 1; k < len(order); k++ {
			if e.split[order[k]].workLeft < e.split[order[i]].workLeft {
				order[i], order[k] = order[k], order[i]
			}
		}
	}
	e.splitOrder = order
	return e.split, order
}

// NewRhoEstimator returns an estimator for app using the given tuner for
// work-left estimates.
func NewRhoEstimator(topo *cluster.Topology, app *workload.App, tuner hyperparam.Tuner) *RhoEstimator {
	return &RhoEstimator{Topo: topo, App: app, Tuner: tuner}
}

// TIdeal returns the app's estimated running time with its ideal GPU
// allocation in a dedicated cluster: min over constituent jobs of
// W_j / G_ideal_j with perfect placement (§5.2 step 5). Completed or killed
// jobs are excluded; if nothing is active the last known value (or a small
// epsilon) is returned so ρ stays defined while the app drains.
func (e *RhoEstimator) TIdeal() float64 {
	best := math.Inf(1)
	for _, j := range e.App.Jobs {
		g := j.MaxParallelism
		if g <= 0 {
			g = j.GangSize
		}
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

// TShared estimates the app's total shared running time if, from time now
// onward, it holds the aggregate allocation total until completion (§5.2
// step 4): elapsed time so far plus the time for the quickest constituent
// job to finish given a greedy placement-sensitive split of total across
// jobs. It returns Unbounded when total is empty and work remains.
func (e *RhoEstimator) TShared(now float64, total cluster.Alloc) float64 {
	e.beginCall()
	return e.tShared(now, total)
}

// tShared is TShared within the current call's job context.
func (e *RhoEstimator) tShared(now float64, total cluster.Alloc) float64 {
	elapsed := now - e.App.SubmitTime
	if elapsed < 0 {
		elapsed = 0
	}
	active := e.jobs
	if len(active) == 0 {
		return elapsed
	}
	if total.Total() == 0 {
		// With no GPUs the shared finish time is unbounded. Scaling by the
		// time already waited keeps starving apps ordered by how long they
		// have been starved, so ties among GPU-less apps resolve in favour
		// of the one waiting longest.
		return Unbounded * (1 + elapsed)
	}
	split := e.splitAcrossJobs(total)
	best := math.Inf(1)
	for idx, js := range e.split {
		alloc := split[idx]
		g := alloc.Total()
		if g == 0 {
			continue
		}
		// A job whose allocation violates its placement constraint — the §6
		// floor/cap or a trace v2 domain/flavor affinity — has S = 0: it
		// contributes no finish time, so a bid built on such an allocation
		// values out at an unbounded ρ.
		if js.cons >= 0 {
			if jc := e.cons[js.cons]; !jc.ok || !placement.Satisfies(e.Topo, alloc, jc.c) {
				continue
			}
		}
		s := e.App.Profile.SOf(e.Topo, alloc)
		t := elapsed + js.workLeft/(float64(g)*s)
		if t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		return Unbounded
	}
	return best
}

// Rho estimates the finish-time fairness metric ρ = T_SH / T_ID the app
// would achieve if extra were added to current and held until completion
// (§5.2 steps 1–7). Perturbation, if configured, is applied to the result.
func (e *RhoEstimator) Rho(now float64, current, extra cluster.Alloc) float64 {
	e.beginCall()
	return e.rho(now, current, extra)
}

// rho is Rho within the current call's job context: prepareBidInto begins
// one call and values every row of the table through it.
func (e *RhoEstimator) rho(now float64, current, extra cluster.Alloc) float64 {
	tsh := e.tShared(now, e.totalInto(current, extra))
	return e.Errors.Perturb(tsh / e.tIdeal)
}

// totalInto computes current.Add(extra) into the estimator's reused total
// buffer; the result is read-only and valid until the next Rho call.
func (e *RhoEstimator) totalInto(current, extra cluster.Alloc) cluster.Alloc {
	if e.total == nil {
		e.total = cluster.NewAlloc()
	}
	t := e.total
	clear(t)
	for m, n := range current {
		if n != 0 {
			t[m] = n
		}
	}
	for m, n := range extra {
		if n == 0 {
			continue
		}
		t[m] += n
		if t[m] == 0 {
			delete(t, m)
		}
	}
	return t
}

// CurrentRho estimates ρ with the app's present allocation only — the value
// the Arbiter probes before each auction (step 1 in Figure 3).
func (e *RhoEstimator) CurrentRho(now float64, current cluster.Alloc) float64 {
	e.beginCall()
	return e.rho(now, current, e.emptyAnchor)
}

// FinalRho returns the realised finish-time fairness of a finished app:
// actual shared running time over ideal running time. For unfinished apps it
// returns the estimate at time now.
func (e *RhoEstimator) FinalRho(now float64, current cluster.Alloc) float64 {
	if e.App.Finished() {
		return (e.App.FinishedAt - e.App.SubmitTime) / e.TIdeal()
	}
	return e.CurrentRho(now, current)
}

// splitAcrossJobs divides the app-level allocation among the call's active
// jobs in a placement-sensitive greedy manner, honouring each job's
// MaxParallelism (§5.2 step 4). Jobs with the least work left are assigned
// first so the fastest-finishing job (which determines T_SH) is placed best;
// once the pool is exhausted the remaining jobs get the empty allocation.
func (e *RhoEstimator) splitAcrossJobs(total cluster.Alloc) []cluster.Alloc {
	jobs, order := e.jobSplits()
	out := e.splitOut[:0]
	for range jobs {
		out = append(out, nil)
	}
	e.splitOut = out
	remaining := e.splitFree
	clear(remaining)
	for m, n := range total {
		if n != 0 {
			remaining[m] = n
		}
	}
	for len(e.splitMaps) < len(jobs) {
		e.splitMaps = append(e.splitMaps, cluster.NewAlloc())
	}
	for _, idx := range order {
		if len(remaining) == 0 {
			clear(e.splitMaps[idx])
			out[idx] = e.splitMaps[idx]
			continue
		}
		js := jobs[idx]
		picked := e.picker.PickInto(e.splitMaps[idx], e.Topo, remaining, e.emptyAnchor, js.want)
		if js.cons >= 0 {
			if jc := e.cons[js.cons]; jc.ok && !placement.Satisfies(e.Topo, picked, jc.c) {
				// The unconstrained pick would strand these GPUs on an unrunnable
				// shape; re-pick constraint-aware so the bid values what the
				// simulator's job split would actually run.
				picked = placement.PickConstrained(e.Topo, remaining, e.emptyAnchor, js.want, jc.c)
			}
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
