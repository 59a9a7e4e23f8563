// Package hyperparam implements the app-level (top-level) schedulers of
// Themis's two-level architecture: hyperparameter-exploration frameworks
// that decide which of an app's trials to keep running, which to terminate
// early, and how many GPUs each surviving trial may use (§2.3, §5.2).
//
// HyperBand (successive halving), the tuner the paper's prototype
// implements, is provided for multi-trial apps, plus a trivial single-job
// tuner for apps that train one model with known hyperparameters. Both
// expose the narrow API the Themis Agent needs: per-trial work left and
// per-trial maximum parallelism.
package hyperparam

import (
	"sort"

	"themis/internal/estimator"
	"themis/internal/workload"
)

// Tuner is the app-internal scheduler. The simulator calls Update at every
// scheduling event; the Themis Agent calls WorkLeft and the app's job fields
// when preparing bids.
type Tuner interface {
	// Update lets the tuner observe progress at simulation time now: it may
	// kill trials, through the app's mutator App.KillJob so the app's stamp
	// moves.
	//
	// Contract: Update and Done must be pure functions of the app's job
	// progress — now may time-stamp decisions (e.g. kill times) but must not
	// drive them. The simulator relies on this to skip observations of apps
	// that have neither progressed nor changed allocation since the last
	// call; a tuner whose decisions depend on wall-clock time alone may be
	// observed arbitrarily late.
	Update(now float64, app *workload.App)
	// WorkLeft returns the tuner's estimate of the serial GPU-minutes
	// remaining for trial j (the paper's W′ per job).
	//
	// Contract: like Update and Done, WorkLeft must be a pure function of
	// the job's progress. The Agent keeps its jobs' work-left order from
	// one valuation to the next while the app's stamp and progress counter
	// (workload.App.Stamp, Progress) stay put, and asks again only when
	// they move.
	WorkLeft(j *workload.Job) float64
	// Done reports whether the app has identified and finished training its
	// best model.
	Done(app *workload.App) bool
}

// appDone is the completion rule shared by all tuners, matching the paper's
// finish-time semantics (§2.1, §5.2): an app finishes when the best model
// has been identified and trained to its target — that is, when the first of
// its trials trains to completion. Trials the tuner terminated early never
// complete, so exploration only ends the app once a surviving trial
// finishes.
func appDone(app *workload.App) bool {
	for _, j := range app.Jobs {
		if j.DoneAt != workload.NotFinished {
			return true
		}
	}
	return false
}

// Single is the tuner for apps with exactly one trial (the user already knows
// the hyperparameters). It never kills anything.
type Single struct{}

// NewSingle returns a Single tuner.
func NewSingle() *Single { return &Single{} }

// Update implements Tuner; it is a no-op.
func (*Single) Update(float64, *workload.App) {}

// WorkLeft implements Tuner using the trial's true remaining work.
func (*Single) WorkLeft(j *workload.Job) float64 { return j.RemainingWork() }

// Done implements Tuner.
func (*Single) Done(app *workload.App) bool { return appDone(app) }

// HyperBand implements the successive-halving tuner of Li et al. as the
// paper models it: all trials start with equal priority, and after every
// fixed number of iterations (a "rung") the half with the worst observed
// loss is terminated, until a single trial remains (§5.2).
type HyperBand struct {
	nextRung map[workload.AppID]int
	active   []*workload.Job // Update's snapshot: the loop kills what it ranges over
}

const (
	// rungIterations is the number of iterations between halving decisions.
	rungIterations = 100
	// observationNoise perturbs observed losses (±1%) to model measurement
	// noise.
	observationNoise = 0.01
)

// NewHyperBand returns a HyperBand tuner.
func NewHyperBand() *HyperBand {
	return &HyperBand{nextRung: make(map[workload.AppID]int)}
}

// Update implements Tuner: it processes any rung boundaries all active
// trials have crossed, killing the worse-converging half each time.
func (h *HyperBand) Update(now float64, app *workload.App) {
	for {
		h.active = app.AppendActiveJobs(h.active[:0])
		active := h.active
		if len(active) <= 1 {
			return
		}
		rung := h.nextRung[app.ID]
		boundary := (rung + 1) * rungIterations
		// A rung is evaluated once every active trial has reached it (the
		// synchronous successive-halving the paper describes).
		for _, j := range active {
			if j.IterationsDone() < boundary && j.DoneAt == workload.NotFinished {
				return
			}
		}
		// Rank by observed loss at the boundary; kill the bottom half.
		type scored struct {
			job  *workload.Job
			loss float64
		}
		ranked := make([]scored, 0, len(active))
		for _, j := range active {
			obs := estimator.CurveForJob(j).Observe(boundary, observationNoise, j.Seed+int64(boundary))
			ranked = append(ranked, scored{job: j, loss: obs})
		}
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].loss < ranked[j].loss })
		keep := (len(ranked) + 1) / 2
		for _, r := range ranked[keep:] {
			app.KillJob(r.job, now)
		}
		h.nextRung[app.ID] = rung + 1
	}
}

// WorkLeft implements Tuner using the trial's true remaining work.
func (h *HyperBand) WorkLeft(j *workload.Job) float64 { return j.RemainingWork() }

// Done implements Tuner.
func (h *HyperBand) Done(app *workload.App) bool { return appDone(app) }

// ForApp returns the natural tuner for an app: Single for one-trial apps,
// HyperBand otherwise (the tuner the paper's prototype implements).
func ForApp(app *workload.App) Tuner {
	if len(app.Jobs) == 1 {
		return NewSingle()
	}
	return NewHyperBand()
}
