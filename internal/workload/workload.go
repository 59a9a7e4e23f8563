// Package workload models the ML applications a Themis cluster schedules: an
// App is one user's hyperparameter-exploration activity, consisting of one or
// more Jobs (trials) that each train a model with a different hyperparameter
// configuration using a gang of GPUs (§2.1).
//
// The package also generates synthetic traces matching the distributional
// properties the paper reports for its production trace (§8.1): jobs per app
// between 1 and 98 with median 23, gang sizes of mostly 4 (some 2) GPUs,
// short task durations with median 59 minutes and long tasks with median 123
// minutes, Poisson app arrivals with a mean inter-arrival of 20 minutes, and
// a 60:40 mix of compute- vs network-intensive model families.
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"themis/internal/cluster"
	"themis/internal/placement"
)

// AppID identifies an application (one user's training activity).
type AppID string

// JobID identifies a single hyperparameter trial within an app.
type JobID string

// NotFinished is the sentinel completion time for jobs and apps that have
// not finished yet.
const NotFinished = -1

// Job is one hyperparameter trial: a gang-scheduled set of tasks that
// collectively process minibatches using synchronous SGD. Work is measured
// in serial GPU-minutes: the time the job would take on a single GPU with
// ideal placement.
type Job struct {
	ID    JobID
	App   AppID
	Index int

	// TotalWork is the serial work (GPU-minutes) needed to train this trial
	// to its target accuracy, assuming it is not killed early by the tuner.
	TotalWork float64
	// GangSize is the number of GPUs the job's tasks need simultaneously
	// (all-or-nothing gang scheduling). From the trace this is mostly 4,
	// sometimes 2.
	GangSize int
	// MaxParallelism is the largest number of GPUs the job can exploit
	// (G_ideal in §5.2). The tuner may lower it to deprioritise a job
	// (App.SetJobWidth).
	MaxParallelism int
	// MinGPUsPerMachine is an optional placement constraint (§6): every
	// machine in the job's allocation must contribute at least this many
	// GPUs (e.g. a large model that must fit across co-located GPUs).
	// Allocations violating the constraint cannot make progress, so bids on
	// them value out at an unbounded ρ. Zero means unconstrained.
	MinGPUsPerMachine int
	// MaxMachines is the companion spread constraint (trace v2's placement
	// block): the job's gang may span at most this many machines (e.g. a
	// model whose gradient exchange only scales over NVLink/PCIe). Like
	// MinGPUsPerMachine, violating allocations make no progress. Zero means
	// unconstrained.
	MaxMachines int
	// DomainAffinity names the fabric domain the job must run inside (trace
	// v2 placement block; matched against Topology.DomainName). Empty means
	// any domain. Names unresolvable on the run's topology make the job
	// infeasible — the simulator rejects it at arrival.
	DomainAffinity string
	// FlavorAffinity names the GPU model (cluster.GPUType) the job requires;
	// empty means any flavor.
	FlavorAffinity string
	// TotalIterations is the number of SGD iterations TotalWork corresponds
	// to; used by the tuners' rung boundaries and the loss-curve estimator.
	TotalIterations int
	// Quality is the latent goodness of this trial's hyperparameters; lower
	// is better. The trial with the lowest Quality among an app's jobs is
	// the one that ultimately trains the best model.
	Quality float64
	// Seed derives this job's synthetic loss curve deterministically.
	Seed int64

	// Runtime state, owned by the simulator.

	// DoneWork is the serial-equivalent work completed so far.
	DoneWork float64
	// GPUTime is the GPU-minutes actually consumed so far (G × wall time),
	// which exceeds DoneWork when placement is sub-ideal.
	GPUTime float64
	// Killed marks trials terminated early by the app's tuner.
	Killed bool
	// KilledAt is the simulation time the trial was killed, or NotFinished.
	KilledAt float64
	// DoneAt is the simulation time the trial finished, or NotFinished.
	DoneAt float64
}

// NewJob returns a Job with runtime fields initialised. Its ID is
// "<app>/j<index>".
func NewJob(app AppID, index int, totalWork float64, gangSize int) *Job {
	j := newJob(JobID(string(app)+"/j"+strconv.Itoa(index)), app, index, totalWork, gangSize)
	return &j
}

func newJob(id JobID, app AppID, index int, totalWork float64, gangSize int) Job {
	return Job{
		ID:              id,
		App:             app,
		Index:           index,
		TotalWork:       totalWork,
		GangSize:        gangSize,
		MaxParallelism:  gangSize,
		TotalIterations: defaultIterations,
		KilledAt:        NotFinished,
		DoneAt:          NotFinished,
	}
}

// JobSlab makes the n jobs of one app in two allocations, whatever n is: one
// slice of Jobs, and one string of which every job's ID is a slice.
type JobSlab struct {
	app  AppID
	ids  string // every job's ID, back to back in index order
	jobs []Job
}

// NewJobSlab returns a slab for jobs 0 … n-1 of app.
func NewJobSlab(app AppID, n int) JobSlab {
	var b strings.Builder
	b.Grow(idOffset(app, n))
	var digits [20]byte
	for i := range n {
		b.WriteString(string(app))
		b.WriteString("/j")
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	}
	return JobSlab{app: app, ids: b.String(), jobs: make([]Job, n)}
}

// Job returns job index of the slab, field for field what NewJob(app, index,
// totalWork, gangSize) returns. Each index is the slab's one job: asking
// twice returns the same job, made afresh.
func (s JobSlab) Job(index int, totalWork float64, gangSize int) *Job {
	id := JobID(s.ids[idOffset(s.app, index):idOffset(s.app, index+1)])
	s.jobs[index] = newJob(id, s.app, index, totalWork, gangSize)
	return &s.jobs[index]
}

// idOffset returns where job i's ID starts in a slab's ID string: the length
// of the IDs of jobs 0 … i-1, each "<app>/j" and its index's digits.
func idOffset(app AppID, i int) int {
	n := i * (len(app) + len("/j"))
	for d, lo, hi := 1, 0, 10; i > lo; d, lo, hi = d+1, hi, hi*10 {
		n += d * (min(i, hi) - lo) // the indices in [lo, hi) have d digits
	}
	return n
}

// defaultIterations is the iteration count assigned to synthetic jobs when a
// trace does not specify one.
const defaultIterations = 1000

// RemainingWork returns the serial work left before the trial completes.
func (j *Job) RemainingWork() float64 {
	r := j.TotalWork - j.DoneWork
	if r < 0 {
		return 0
	}
	return r
}

// Active reports whether the job still needs GPUs (not done, not killed).
// Once the job's app is being scheduled, what Active and Width report changes
// only through the app's mutators (see App.Stamp).
func (j *Job) Active() bool { return !j.Killed && j.DoneAt == NotFinished }

// PlacementConstraint resolves the job's placement constraints against a
// topology. The boolean is false when DomainAffinity names a domain the
// topology does not have — such a job can never run on this cluster and
// should be rejected rather than scheduled.
func (j *Job) PlacementConstraint(topo *cluster.Topology) (placement.Constraint, bool) {
	c := placement.Constraint{
		MinGPUsPerMachine: j.MinGPUsPerMachine,
		MaxMachines:       j.MaxMachines,
		Flavor:            cluster.GPUType(j.FlavorAffinity),
	}
	if j.DomainAffinity != "" {
		d, ok := topo.DomainByName(j.DomainAffinity)
		if !ok {
			return c, false
		}
		c.Domain, c.HasDomain = d, true
	}
	return c, true
}

// SplitJob describes the job to the app-level job split
// (placement.Picker.Split): how many GPUs it can use, its constraint resolved
// against topo, and workLeft — the caller's estimate — as its place in the
// queue. A finished or killed job takes no part.
func (j *Job) SplitJob(topo *cluster.Topology, workLeft float64) placement.SplitJob {
	if !j.Active() {
		return placement.SplitJob{}
	}
	c, ok := j.PlacementConstraint(topo)
	return placement.SplitJob{Want: j.Width(), WorkLeft: workLeft, Constraint: c, Unresolvable: !ok}
}

// Width is how many GPUs the job can use at once: MaxParallelism, or GangSize.
func (j *Job) Width() int {
	if j.MaxParallelism > 0 {
		return j.MaxParallelism
	}
	return j.GangSize
}

// Progress returns the fraction of the trial's work completed, in [0, 1].
func (j *Job) Progress() float64 {
	if j.TotalWork <= 0 {
		return 1
	}
	p := j.DoneWork / j.TotalWork
	if p > 1 {
		return 1
	}
	return p
}

// IterationsDone returns the number of SGD iterations completed, derived
// from work progress.
func (j *Job) IterationsDone() int {
	return int(j.Progress() * float64(j.TotalIterations))
}

// Advance accrues work for running dt minutes on g GPUs with placement
// slowdown s, marking the job done at time now+dt' if it finishes within the
// interval. It returns the wall-clock minutes actually consumed (≤ dt) and
// whether the job completed. A job whose app is being scheduled advances
// through App.AdvanceJob.
func (j *Job) Advance(now, dt float64, g int, s float64) (elapsed float64, done bool) {
	if !j.Active() || g <= 0 || dt <= 0 {
		return 0, false
	}
	rate := float64(g) * s // serial work per minute
	if rate <= 0 {
		return 0, false
	}
	needed := j.RemainingWork() / rate
	elapsed = dt
	if needed <= dt {
		elapsed = needed
		done = true
	}
	j.DoneWork += rate * elapsed
	j.GPUTime += float64(g) * elapsed
	if done {
		j.DoneWork = j.TotalWork
		j.DoneAt = now + elapsed
	}
	return elapsed, done
}

// Kill marks the trial as terminated early by its tuner at time now. A job
// whose app is being scheduled is killed through App.KillJob.
func (j *Job) Kill(now float64) {
	if !j.Active() {
		return
	}
	j.Killed = true
	j.KilledAt = now
}

// App is one ML application: a set of trials plus the model family whose
// placement sensitivity they share (§5.2 notes all jobs in an app have
// correlated placement sensitivity, so a single S_i per app suffices).
type App struct {
	ID         AppID
	SubmitTime float64
	Profile    placement.Profile
	Jobs       []*Job

	// FinishedAt is the simulation time the app identified and finished
	// training its best model, or NotFinished while running.
	FinishedAt float64

	// TIdeal caches the app's ideal (dedicated-cluster) running time in
	// minutes, computed by IdealRunningTime against a topology.
	TIdeal float64

	// stamp counts the changes to which jobs are active (Stamp); progress
	// counts the AdvanceJob calls that integrated work (Progress).
	stamp, progress uint64
}

// Stamp returns the app's job stamp. It moves whenever one of the app's jobs
// stops being active, which is done through the app's mutators: AdvanceJob
// (a completion) and KillJob.
// Whatever is derived from the active jobs, their widths, gang sizes and
// constraints — core's job context — stays valid while the stamp does, so a
// reader revalidates it in O(1) rather than by walking the jobs. A job's
// Killed, DoneAt, MaxParallelism and GangSize fields, and its constraints,
// may be written directly only before the app is first scheduled.
//
// Its companion, the progress counter (Progress), moves whenever AdvanceJob
// integrates work. Whatever is derived from the jobs' DoneWork — core's
// work-left order — stays valid while the stamp and the counter both do.
// Once the app is scheduled, DoneWork moves only through AdvanceJob; a test
// that sets it after an agent has valued the app calls AdvanceJob instead of
// writing it.
func (a *App) Stamp() uint64 { return a.stamp }

// Progress returns the app's progress counter (see Stamp).
func (a *App) Progress() uint64 { return a.progress }

// AdvanceJob is j.Advance for one of the app's jobs, moving the progress
// counter when it integrates work and the stamp when j completes.
func (a *App) AdvanceJob(j *Job, now, dt float64, g int, s float64) (elapsed float64, done bool) {
	elapsed, done = j.Advance(now, dt, g, s)
	if elapsed > 0 || done {
		a.progress++
	}
	if done {
		a.stamp++
	}
	return elapsed, done
}

// KillJob is j.Kill for one of the app's jobs, moving the stamp when j was
// active.
func (a *App) KillJob(j *Job, now float64) {
	if !j.Active() {
		return
	}
	j.Kill(now)
	a.stamp++
}

// NewApp constructs an app with the given trials.
func NewApp(id AppID, submit float64, profile placement.Profile, jobs []*Job) *App {
	return &App{ID: id, SubmitTime: submit, Profile: profile, Jobs: jobs, FinishedAt: NotFinished}
}

// AppendActiveJobs appends the active jobs to buf (in Jobs order) and returns
// it.
func (a *App) AppendActiveJobs(buf []*Job) []*Job {
	for _, j := range a.Jobs {
		if j.Active() {
			buf = append(buf, j)
		}
	}
	return buf
}

// NumActiveJobs returns the number of active jobs without allocating.
func (a *App) NumActiveJobs() int {
	n := 0
	for _, j := range a.Jobs {
		if j.Active() {
			n++
		}
	}
	return n
}

// Finished reports whether the app has completed.
func (a *App) Finished() bool { return a.FinishedAt != NotFinished }

// TotalWork returns the total serial work across all trials (including
// already-killed ones' completed portions).
func (a *App) TotalWork() float64 {
	var w float64
	for _, j := range a.Jobs {
		w += j.TotalWork
	}
	return w
}

// GPUTime returns the GPU-minutes consumed by all trials so far.
func (a *App) GPUTime() float64 {
	var g float64
	for _, j := range a.Jobs {
		g += j.GPUTime
	}
	return g
}

// MaxParallelism returns the total GPUs the app can use at once: the sum of
// its active trials' per-trial limits.
func (a *App) MaxParallelism() int {
	p := 0
	for _, j := range a.Jobs {
		if j.Active() {
			p += j.MaxParallelism
		}
	}
	return p
}

// UnmetWidth returns how many more GPUs than held the app's active jobs could
// use at once (the sum of their widths), or 0 when held covers them.
func (a *App) UnmetWidth(held int) int {
	want := 0
	for _, j := range a.Jobs {
		if j.Active() {
			want += j.Width()
		}
	}
	return max(want-held, 0)
}

// CompletionTime returns the app's completion time (finish − submit), or
// NotFinished if still running.
func (a *App) CompletionTime() float64 {
	if !a.Finished() {
		return NotFinished
	}
	return a.FinishedAt - a.SubmitTime
}

// Validate checks structural invariants of the app description.
func (a *App) Validate() error {
	if len(a.Jobs) == 0 {
		return fmt.Errorf("app %s has no jobs", a.ID)
	}
	for _, j := range a.Jobs {
		if j.App != a.ID {
			return fmt.Errorf("app %s contains job %s belonging to %s", a.ID, j.ID, j.App)
		}
		if j.TotalWork <= 0 {
			return fmt.Errorf("job %s has non-positive work %v", j.ID, j.TotalWork)
		}
		if j.GangSize <= 0 {
			return fmt.Errorf("job %s has non-positive gang size %d", j.ID, j.GangSize)
		}
		if j.MaxParallelism < 0 {
			return fmt.Errorf("job %s has negative max parallelism", j.ID)
		}
		if j.MinGPUsPerMachine < 0 {
			return fmt.Errorf("job %s has negative min GPUs per machine", j.ID)
		}
		if j.MaxMachines < 0 {
			return fmt.Errorf("job %s has negative max machines", j.ID)
		}
	}
	return nil
}
