package sim

import (
	"math"
	"slices"

	"themis/internal/cluster"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/workload"
)

// AppState is the simulator's runtime record for one app. Policies receive
// AppStates through the View; the exported fields are safe to read, and the
// job objects may be inspected (but not mutated) for policy decisions.
type AppState struct {
	App   *workload.App
	Tuner hyperparam.Tuner
	// Held is the app's current allocation, refilled in place on every
	// allocation change. Policies must treat it as read-only and must not
	// keep it past the Allocate call that saw it.
	Held cluster.Alloc
	// TIdealAtArrival is the app's dedicated-cluster running time estimate
	// frozen at submission (min over jobs of work / gang size), used for the
	// realised finish-time fairness metric.
	TIdealAtArrival float64

	topo *cluster.Topology
	// shares and takes are the app's copy of its current job split: per job
	// (indexed like App.Jobs; empty until the first allocation change) what
	// it drew and where its run of takes lies, and the split's log of takes.
	// Both are the app's own and refilled in place on every allocation
	// change.
	shares      []jobShare
	takes       []placement.Take
	split       *splitScratch
	pausedUntil float64

	// runnable caches the jobs that can make progress under the current job
	// split, with their GPU counts and placement slowdowns. Allocation,
	// placement and the min-GPUs-per-machine check are all constant between
	// allocation changes, so per-event integration and completion projection
	// touch only these entries instead of rescanning every job.
	runnable []runnableJob
	// proj is the incrementally maintained projection of the app's next job
	// completion time (+Inf when no job is runnable). It is recomputed from
	// the runnable cache on every allocation change and after every progress
	// integration, with the same floating-point expression a full rescan
	// evaluates (the tests' scan oracle), so cached and rescanned projections
	// are bit-identical.
	proj float64

	// heldTotal caches Held.Total(), refreshed on every allocation change.
	heldTotal int
	// scoreVal/scoreWeight cache the app's GPU-weighted placement score
	// (Figure 7's per-interval sample), which is constant while the job
	// split is unchanged; scoreDirty forces recomputation after a job
	// completes mid-split.
	scoreVal    float64
	scoreWeight float64
	scoreDirty  bool

	// Heap entries owned by this app (see events.go).
	arrivalEv    event
	completionEv event
	// heldGPUTime, scoreSum and scoreWeightSum accrue the app's Result
	// record over the intervals it holds GPUs: GPU-minutes held, and the
	// time- and GPU-weighted placement-score sum and its weight.
	heldGPUTime    float64
	scoreSum       float64
	scoreWeightSum float64
	// tunerDirty marks that the app progressed, changed allocation or had
	// trials killed since its tuner last observed it. Tuner decisions are
	// pure functions of job progress, so Update/Done on a clean app is a
	// no-op and is skipped.
	tunerDirty bool
	// constrained caches whether any job carries placement constraints.
	// Unconstrained apps (the overwhelmingly common case) skip the
	// grant-repair machinery entirely.
	constrained bool
}

// runnableJob is one cached (job, GPUs, slowdown) triple of the runnable set.
type runnableJob struct {
	job *workload.Job
	g   int
	s   float64
}

// jobShare is one job's part of an app's job split: the GPUs it drew, the
// locality they span, and its run takes[lo:hi] of the app's log.
type jobShare struct {
	lo, hi, gpus int32
	loc          int8
}

// splitScratch is the working set of the job split. One simulation's apps
// share it (the simulator is single-goroutine; sweep workers each own a
// Simulator), so what an app keeps between allocation changes is its copy of
// its split alone. The picker's pool is what the split in progress divides,
// and the queue's log what it drew; a what-if split (usableWith, repairGrant)
// reads the queue and leaves the app's copy alone.
type splitScratch struct {
	picker placement.Picker
	queue  placement.SplitQueue // Jobs: the splitting app's, like App.Jobs
}

func newAppState(app *workload.App, tuner hyperparam.Tuner, topo *cluster.Topology, split *splitScratch) *AppState {
	st := &AppState{
		App:        app,
		Tuner:      tuner,
		Held:       cluster.NewAlloc(),
		topo:       topo,
		split:      split,
		proj:       math.Inf(1),
		scoreDirty: true,
		tunerDirty: true,
	}
	st.arrivalEv = event{kind: evArrival, time: app.SubmitTime, index: -1}
	st.completionEv = event{kind: evCompletion, index: -1}
	st.TIdealAtArrival = idealRunningTime(app)
	app.TIdeal = st.TIdealAtArrival
	for _, j := range app.Jobs {
		if c, ok := j.PlacementConstraint(topo); !ok || !c.IsZero() {
			st.constrained = true
			break
		}
	}
	return st
}

// rejectInfeasible kills, at arrival time, every job whose placement
// constraints no allocation on this topology can ever satisfy (per-machine
// floor above the largest machine, unknown domain name, absent GPU flavor).
// Left alive, such jobs would starve forever while their app's leases churn —
// the tiresias infinite-loop bug on constrained traces. It reports whether
// any job was killed.
func (st *AppState) rejectInfeasible(now float64) bool {
	if !st.constrained {
		return false
	}
	killed := false
	for _, j := range st.App.Jobs {
		if !j.Active() {
			continue
		}
		c, ok := j.PlacementConstraint(st.topo)
		if !ok || !c.Feasible(st.topo) {
			st.App.KillJob(j, now)
			killed = true
		}
	}
	return killed
}

// idealRunningTime is the paper's T_ID estimate (§5.2 step 5): the minimum
// over the app's jobs of serial work divided by ideal parallelism, with
// perfect placement.
func idealRunningTime(app *workload.App) float64 {
	best := math.Inf(1)
	for _, j := range app.Jobs {
		g := j.GangSize
		if j.MaxParallelism > g {
			g = j.MaxParallelism
		}
		if g <= 0 {
			continue
		}
		if t := j.TotalWork / float64(g); t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) || best <= 0 {
		return 1e-6
	}
	return best
}

// AttainedService returns the GPU-minutes the app has consumed so far — the
// quantity Tiresias's least-attained-service policy schedules on.
func (st *AppState) AttainedService() float64 { return st.App.GPUTime() }

// UnmetDemand returns how many additional GPUs the app can still use.
func (st *AppState) UnmetDemand() int { return st.App.UnmetWidth(st.heldTotal) }

// onAllocationChange re-splits the app's (new) total allocation across its
// active jobs, applies the checkpoint/restart pause, and rebuilds the
// runnable cache and completion projection.
func (st *AppState) onAllocationChange(now float64, held cluster.Alloc, overhead float64) {
	st.Held = held
	st.heldTotal = held.Total()
	st.scoreDirty = true
	st.resplit()
	if overhead > 0 {
		until := now + overhead
		if until > st.pausedUntil {
			st.pausedUntil = until
		}
	}
	st.refreshRunnable(now)
}

// placementScore returns the app's GPU-weighted mean placement score and its
// weight (GPUs), recomputing the cached value only when the job split or a
// job completion invalidated it. Scoring is per job (the paper's Figure 7
// metric), falling back to the app-level allocation when no job currently
// holds GPUs.
func (st *AppState) placementScore() (score, weight float64) {
	if st.scoreDirty {
		st.scoreDirty = false
		var sum, gpus float64
		for i, sh := range st.shares {
			if sh.gpus == 0 || !st.App.Jobs[i].Active() {
				continue
			}
			g := float64(sh.gpus)
			sum += cluster.LocalityScore(cluster.Locality(sh.loc)) * g
			gpus += g
		}
		if gpus > 0 {
			st.scoreVal, st.scoreWeight = sum/gpus, gpus
		} else {
			st.scoreVal, st.scoreWeight = cluster.PlacementScore(st.topo, st.Held), float64(st.heldTotal)
		}
	}
	return st.scoreVal, st.scoreWeight
}

// refreshRunnable rebuilds the cached runnable-job set from the current job
// split and re-projects the app's completion time at now. Every share the
// split serves satisfies its job's placement constraint (Picker.Split), so a
// job that drew GPUs can run; its slowdown is Profile.SOf of its share, read
// off the split's record.
func (st *AppState) refreshRunnable(now float64) {
	st.runnable = slices.Grow(st.runnable[:0], len(st.takes)) // a job fed has a take
	for i, sh := range st.shares {
		j := st.App.Jobs[i]
		if sh.gpus == 0 || !j.Active() {
			continue
		}
		s := 1.0 // a single GPU never synchronises over the network
		if sh.gpus > 1 {
			s = st.App.Profile.S(cluster.Locality(sh.loc))
		}
		st.runnable = append(st.runnable, runnableJob{job: j, g: int(sh.gpus), s: s})
	}
	st.project(now)
}

// project recomputes the cached completion projection at time now from the
// runnable cache. The expression mirrors the per-job term of the tests' scan
// oracle exactly, so the cached projection is bit-identical to a full rescan.
func (st *AppState) project(now float64) {
	start := now
	if st.pausedUntil > start {
		start = st.pausedUntil
	}
	best := math.Inf(1)
	for _, r := range st.runnable {
		if !r.job.Active() {
			continue
		}
		if t := start + r.job.RemainingWork()/(float64(r.g)*r.s); t < best {
			best = t
		}
	}
	st.proj = best
}

// resplit assigns the app's held GPUs to its active jobs greedily and
// placement-sensitively, honouring per-job parallelism limits, and copies the
// split into the app's own record, job by job. Jobs nearest completion are
// placed first (they determine the app's finish time).
func (st *AppState) resplit() {
	st.split.picker.Load(st.topo, st.Held)
	q := st.splitLoaded(st.heldTotal)
	if len(st.shares) != len(q.Jobs) {
		st.shares = make([]jobShare, len(q.Jobs))
	}
	st.takes = slices.Grow(st.takes[:0], len(q.Takes))
	for i := range q.Jobs {
		g, loc := q.Jobs[i].Drawn()
		lo := len(st.takes)
		st.takes = append(st.takes, q.Run(i)...)
		st.shares[i] = jobShare{lo: int32(lo), hi: int32(len(st.takes)), gpus: int32(g), loc: int8(loc)}
	}
}

// splitLoaded runs the job split (placement.Picker.Split, §5.2 step 4) of the
// pool loaded into the split scratch's picker over the app's jobs, least true
// remaining work first, handing out at most budget GPUs, and returns the
// queue: its Jobs, indexed like App.Jobs, and their runs are what the split
// drew, valid until the next split.
func (st *AppState) splitLoaded(budget int) *placement.SplitQueue {
	sc, q := st.split, &st.split.queue
	q.Jobs = slices.Grow(q.Jobs[:0], len(st.App.Jobs))
	for _, j := range st.App.Jobs {
		q.Jobs = append(q.Jobs, j.SplitJob(st.topo, j.RemainingWork()))
	}
	q.Reset()
	sc.picker.Split(budget, q, nil)
	return q
}

// usableWith reports whether granting extra on top of the app's current
// holding would leave at least one job runnable under its placement
// constraints: whether the split of the two feeds any job, as every share the
// split serves satisfies its job's constraint (Picker.Split). schedule uses it
// to detect grants a constrained app cannot convert into progress.
func (st *AppState) usableWith(extra cluster.Alloc) bool {
	st.split.picker.Load(st.topo, st.Held)
	st.split.picker.Credit(extra)
	return len(st.splitLoaded(st.split.picker.Total()).Takes) > 0
}

// packConstraint derives the app-level constraint handed to a Packer when
// re-materialising this app's grant. Per-job floors and caps are enforced by
// the job split, not here; but domain and flavor affinities shared by every
// active job admit or reject whole machines, so surfacing them lets the
// packer avoid machines none of the app's jobs may use. When the app has
// exactly one active job, its full constraint set applies.
func (st *AppState) packConstraint() placement.Constraint {
	var shared placement.Constraint
	active := 0
	for _, j := range st.App.Jobs {
		if !j.Active() {
			continue
		}
		c, ok := j.PlacementConstraint(st.topo)
		active++
		if active == 1 {
			if !ok {
				return placement.Constraint{}
			}
			shared = c // while it is the only active job, all of its constraint
			continue
		}
		if active == 2 {
			// From the second job on only affinities can be common ground.
			shared = placement.Constraint{Domain: shared.Domain, HasDomain: shared.HasDomain, Flavor: shared.Flavor}
		}
		if !ok {
			c = placement.Constraint{}
		}
		if c.HasDomain != shared.HasDomain || c.Domain != shared.Domain {
			shared.HasDomain = false
			shared.Domain = 0
		}
		if c.Flavor != shared.Flavor {
			shared.Flavor = ""
		}
	}
	return shared
}

// advance integrates all runnable jobs' progress over [from, to] and, when
// any integration occurred, re-projects the app's completion time. It
// reports whether the app made progress (and therefore whether its
// completion event needs re-aiming).
func (st *AppState) advance(from, to float64) bool {
	start := from
	if st.pausedUntil > start {
		start = st.pausedUntil
	}
	if start >= to || len(st.runnable) == 0 {
		return false
	}
	dt := to - start
	for _, r := range st.runnable {
		if _, done := st.App.AdvanceJob(r.job, start, dt, r.g, r.s); done {
			// A completed job leaves the active set, changing the app's
			// placement-score sample.
			st.scoreDirty = true
		}
	}
	st.tunerDirty = true
	st.project(to)
	return true
}

// View is the read-only snapshot of simulator state a Policy sees when asked
// to allocate free GPUs.
type View struct {
	Topo    *cluster.Topology
	Cluster *cluster.State
	Now     float64
	// Apps lists the active (arrived, unfinished) apps in ID order, with
	// Held current. The slice's backing array is reused between scheduling
	// rounds, and each Held map is refilled in place on the app's next
	// allocation change: both are only valid for the duration of the
	// Allocate call, so a policy that needs to retain an app list or a
	// holding must copy it.
	Apps []*AppState
}

// anyDemand reports whether any active app can still use more GPUs.
func (v *View) anyDemand() bool {
	for _, st := range v.Apps {
		if st.UnmetDemand() > 0 {
			return true
		}
	}
	return false
}
