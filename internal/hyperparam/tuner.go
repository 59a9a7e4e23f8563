// Package hyperparam implements the app-level (top-level) schedulers of
// Themis's two-level architecture: hyperparameter-exploration frameworks
// that decide which of an app's trials to keep running, which to terminate
// early, and how many GPUs each surviving trial may use (§2.3, §5.2).
//
// Two tuners from the paper are provided — HyperBand (successive halving)
// and HyperDrive (good/promising/poor classification) — plus a trivial
// single-job tuner for apps that train one model with known
// hyperparameters. All tuners expose the narrow API the Themis Agent needs:
// per-trial work-left estimates and per-trial maximum parallelism.
package hyperparam

import (
	"math"
	"sort"

	"themis/internal/estimator"
	"themis/internal/workload"
)

// Tuner is the app-internal scheduler. The simulator calls Update at every
// scheduling event; the Themis Agent calls WorkLeft and the app's job fields
// when preparing bids.
type Tuner interface {
	// Name identifies the tuner ("hyperband", "hyperdrive", "single").
	Name() string
	// Update lets the tuner observe progress at simulation time now: it may
	// kill trials and adjust per-trial MaxParallelism, through the app's
	// mutators (App.KillJob, App.SetJobWidth) so the app's stamp moves.
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

// Name implements Tuner.
func (*Single) Name() string { return "single" }

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
	// RungIterations is the number of iterations between halving decisions.
	RungIterations int
	// ObservationNoise perturbs observed losses to model measurement noise.
	ObservationNoise float64

	nextRung map[workload.AppID]int
	active   []*workload.Job // Update's snapshot: the loop kills what it ranges over
}

// NewHyperBand returns a HyperBand tuner with the given rung length in
// iterations. A non-positive rung length uses 100 iterations.
func NewHyperBand(rungIterations int) *HyperBand {
	if rungIterations <= 0 {
		rungIterations = 100
	}
	return &HyperBand{
		RungIterations:   rungIterations,
		ObservationNoise: 0.01,
		nextRung:         make(map[workload.AppID]int),
	}
}

// Name implements Tuner.
func (*HyperBand) Name() string { return "hyperband" }

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
		boundary := (rung + 1) * h.RungIterations
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
			obs := estimator.CurveForJob(j).Observe(boundary, h.ObservationNoise, j.Seed+int64(boundary))
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

// WorkLeft implements Tuner using the trial's projected remaining work.
func (h *HyperBand) WorkLeft(j *workload.Job) float64 { return j.RemainingWork() }

// Done implements Tuner.
func (h *HyperBand) Done(app *workload.App) bool { return appDone(app) }

// Classification labels used by HyperDrive.
type Classification int

// HyperDrive's trial classes (§5.2): good trials get full parallelism,
// promising trials get reduced parallelism, poor trials are terminated.
const (
	ClassGood Classification = iota
	ClassPromising
	ClassPoor
)

// String returns the class name.
func (c Classification) String() string {
	switch c {
	case ClassGood:
		return "good"
	case ClassPromising:
		return "promising"
	case ClassPoor:
		return "poor"
	default:
		return "unknown"
	}
}

// HyperDrive implements the POP-scheduling tuner of Rasley et al. as the
// paper models it: it continually classifies trials as good, promising or
// poor from their projected final loss, terminating poor trials immediately
// and giving good trials higher execution priority (more parallelism).
type HyperDrive struct {
	// MinIterations is the warm-up before a trial can be classified.
	MinIterations int
	// GoodMargin and PromisingMargin are the relative distances from the
	// best projected loss that bound the good and promising classes.
	GoodMargin      float64
	PromisingMargin float64
	// PromisingParallelismFraction scales a promising trial's maximum
	// parallelism relative to its gang size.
	PromisingParallelismFraction float64

	class  map[workload.JobID]Classification
	active []*workload.Job // Update's snapshot: the loop kills what it ranges over
}

// NewHyperDrive returns a HyperDrive tuner with the defaults used in the
// evaluation.
func NewHyperDrive() *HyperDrive {
	return &HyperDrive{
		MinIterations:                50,
		GoodMargin:                   0.10,
		PromisingMargin:              0.35,
		PromisingParallelismFraction: 0.5,
		class:                        make(map[workload.JobID]Classification),
	}
}

// Name implements Tuner.
func (*HyperDrive) Name() string { return "hyperdrive" }

// Update implements Tuner: it reclassifies every active trial that has run
// long enough, kills poor trials and adjusts parallelism of the rest.
func (h *HyperDrive) Update(now float64, app *workload.App) {
	h.active = app.AppendActiveJobs(h.active[:0])
	active := h.active
	if len(active) <= 1 {
		return
	}
	// Project each trial's final loss by extrapolating its convergence curve
	// well past the trial's iteration budget — the asymptote is what
	// distinguishes good from poor hyperparameters.
	projected := make(map[workload.JobID]float64, len(active))
	best := math.Inf(1)
	for _, j := range active {
		if j.IterationsDone() < h.MinIterations {
			continue
		}
		p := estimator.CurveForJob(j).Loss(5 * j.TotalIterations)
		projected[j.ID] = p
		if p < best {
			best = p
		}
	}
	if math.IsInf(best, 1) {
		return // nothing classifiable yet
	}
	// Classify, then make sure at least the best-projected trial survives:
	// HyperDrive never abandons the exploration entirely.
	classes := make(map[workload.JobID]Classification, len(projected))
	survivors := 0
	var bestJob workload.JobID
	for id, p := range projected {
		classes[id] = h.classOf(p, best)
		if classes[id] != ClassPoor {
			survivors++
		}
		if p == best {
			bestJob = id
		}
	}
	if survivors == 0 {
		classes[bestJob] = ClassGood
	}
	for _, j := range active {
		cls, ok := classes[j.ID]
		if !ok {
			continue
		}
		h.class[j.ID] = cls
		switch cls {
		case ClassGood:
			app.SetJobWidth(j, j.GangSize)
		case ClassPromising:
			mp := int(math.Max(1, math.Round(float64(j.GangSize)*h.PromisingParallelismFraction)))
			app.SetJobWidth(j, mp)
		case ClassPoor:
			app.KillJob(j, now)
		}
	}
}

func (h *HyperDrive) classOf(projected, best float64) Classification {
	switch {
	case projected <= best*(1+h.GoodMargin):
		return ClassGood
	case projected <= best*(1+h.PromisingMargin):
		return ClassPromising
	default:
		return ClassPoor
	}
}

// Class returns the current classification of trial j (defaults to good
// before the first classification).
func (h *HyperDrive) Class(j workload.JobID) Classification {
	if c, ok := h.class[j]; ok {
		return c
	}
	return ClassGood
}

// WorkLeft implements Tuner using the trial's remaining work.
func (h *HyperDrive) WorkLeft(j *workload.Job) float64 { return j.RemainingWork() }

// Done implements Tuner.
func (h *HyperDrive) Done(app *workload.App) bool { return appDone(app) }

// ForApp returns the natural tuner for an app: Single for one-trial apps,
// HyperBand otherwise (the tuner the paper's prototype implements).
func ForApp(app *workload.App) Tuner {
	if len(app.Jobs) == 1 {
		return NewSingle()
	}
	return NewHyperBand(0)
}
