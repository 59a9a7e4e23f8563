// Package sim is the event-driven cluster simulator used by the paper's
// evaluation (§8.1): it replays a trace of ML apps against a GPU cluster
// topology under a pluggable cross-app scheduling policy, modelling gang
// placement sensitivity, GPU leases, hyperparameter-tuner kill decisions and
// checkpoint/restart overheads, and records the fairness and efficiency
// metrics the paper's figures report.
//
// The simulator advances between decision points — app arrivals, lease
// expiries, job completions and machine failures — integrating every running
// job's progress exactly between events (progress rate G·S is constant while
// allocations are unchanged). Decision points are scheduled through an
// indexed min-heap of typed events (see events.go) with incrementally
// maintained per-app completion projections, so a scheduling round costs
// O(log n) to aim instead of rescanning every app and lease.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/workload"
)

// Policy is a cross-app scheduling discipline: given the GPUs currently free
// it decides which apps receive them. Implementations include the Themis
// auction policy and the Gandiva/Tiresias/SLAQ baselines.
type Policy interface {
	// Name identifies the policy in results and logs.
	Name() string
	// Allocate returns the GPUs to grant to each app. Grants must be
	// disjoint, lie within free, and only name apps present in the view.
	// A non-nil error aborts the simulation run.
	//
	// free, the view and every AppState.Held in it belong to the simulator
	// and are valid only for the duration of the call: the simulator refills
	// the same maps in place on later rounds and allocation changes, so a
	// policy reads them and must not change or keep them. The returned maps
	// are the simulator's from then on; it reads them before the next call.
	Allocate(now float64, free cluster.Alloc, view *View) (map[workload.AppID]cluster.Alloc, error)
}

// Packer re-materialises policy grants onto concrete GPUs in a
// topology-aware way. Policies decide *how many* GPUs each app receives;
// when a Packer is configured, it decides *which* GPUs, drawing from the
// app's grant plus whatever free capacity no app was granted this round.
// pack.Engine.Place implements this contract with the deterministic
// pack-to-empty heuristic over the hierarchical topology.
type Packer interface {
	// Place selects up to want GPUs from free for an app anchored at anchor
	// under constraint c. The result must lie within free, never violate c
	// when combined with anchor, and be deterministic in its inputs. It is a
	// map of the packer's own: free and anchor are the simulator's, valid
	// during the call only and changed in place once it returns.
	Place(free, anchor cluster.Alloc, want int, c placement.Constraint) cluster.Alloc
}

// Config describes one simulation run.
type Config struct {
	Topology *cluster.Topology
	// Apps are the apps to replay; their IDs must be unique.
	Apps   []*workload.App
	Policy Policy
	// LeaseDuration is the GPU lease length in minutes (paper default 20).
	LeaseDuration float64
	// RestartOverhead is the wall-clock pause (minutes) an app's jobs suffer
	// whenever its allocation changes, modelling checkpoint + container
	// churn (§8.3.2 reports 35–50 s plus 5–10 s; 0.75 min by default).
	RestartOverhead float64
	// Horizon caps simulated time (minutes); 0 means no cap.
	Horizon float64
	// Failures optionally injects machine failures (§6 of the paper leaves
	// failure-aware scheduling to future work; the injector lets schedulers
	// be studied under failures anyway).
	Failures []Failure
	// Packer optionally re-materialises each policy grant onto concrete GPUs
	// (see the Packer interface). Nil keeps the policy's own placement — the
	// flat model's behaviour.
	Packer Packer
}

// DefaultLeaseDuration is the lease Config.LeaseDuration's zero value means.
const DefaultLeaseDuration = 20.0

// maxIdleRounds aborts the run if this many consecutive scheduling rounds
// must force the clock forward without a real event (a safety net against
// policy or projection bugs).
const maxIdleRounds = 10000

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Topology == nil {
		return fmt.Errorf("sim: nil topology")
	}
	if len(c.Apps) == 0 {
		return fmt.Errorf("sim: no apps")
	}
	if c.Policy == nil {
		return fmt.Errorf("sim: nil policy")
	}
	if c.LeaseDuration < 0 || c.RestartOverhead < 0 || c.Horizon < 0 {
		return fmt.Errorf("sim: negative durations")
	}
	for _, f := range c.Failures {
		if f.Machine < 0 || int(f.Machine) >= c.Topology.NumMachines() {
			return fmt.Errorf("sim: failure on machine %d, outside the topology's %d machines", f.Machine, c.Topology.NumMachines())
		}
		// The comparisons are false for NaN as well as out of range.
		if !(f.Time >= 0 && f.Time <= math.MaxFloat64 && f.Duration >= 0 && f.Duration <= math.MaxFloat64) {
			return fmt.Errorf("sim: failure on machine %d: time %v and duration %v must be finite and non-negative", f.Machine, f.Time, f.Duration)
		}
	}
	seen := make(map[workload.AppID]bool, len(c.Apps))
	for _, a := range c.Apps {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if seen[a.ID] {
			return fmt.Errorf("sim: two apps share the ID %q", a.ID)
		}
		seen[a.ID] = true
	}
	return nil
}

// Simulator runs one configured simulation.
type Simulator struct {
	cfg  Config
	cs   *cluster.State
	apps []*AppState // all apps in arrival order
	// active holds the arrived, unfinished apps in ID order — the View's
	// order — and is searched by ID (lookup). Every pass over it skips the
	// apps it has nothing to do for: tuners those not tunerDirty, progress
	// those with nothing runnable, interval accounting those holding no GPU.
	active  []*AppState
	viewBuf []*AppState // reused backing array for View.Apps
	pending []*AppState // not yet arrived, in arrival order

	events     eventHeap
	failures   []*failureRec  // pending failures, in time order
	recoveries []*recoveryRec // pending recoveries, in time order
	// leases holds every outstanding lease; leaseEv is the one heap entry
	// that stands for them all, aimed at the book's earliest expiry.
	leases  core.LeaseBook
	leaseEv event

	// Hot-loop scratch buffers. The event core runs once per decision point;
	// without these, every round allocated fresh slices (stale/ids) and a
	// View struct, all of it garbage by the next round. They are owned by
	// the Simulator (no sync.Pool: the simulator is single-threaded, and
	// sweep workers each own a Simulator), so reuse is deterministic and
	// race-free. TestEventCoreZeroAlloc pins steady-state rounds at 0
	// allocs/op.
	staleScratch []*event // heapEventTimes re-push buffer
	idsScratch   []workload.AppID
	viewStruct   View         // reused policy-facing view (valid during Allocate only)
	split        splitScratch // the job split's working set, shared by every app
	// free is the round's free vector and leftover the round's pool of free
	// GPUs no app was granted, both refilled in place each round.
	free, leftover cluster.Alloc

	now    float64
	result *Result
}

// New constructs a Simulator. The apps in cfg are used directly (their
// runtime state is mutated); callers wanting to reuse a trace across runs
// should regenerate or deep-copy it.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LeaseDuration == 0 {
		cfg.LeaseDuration = DefaultLeaseDuration
	}
	s := &Simulator{
		cfg:     cfg,
		cs:      cluster.NewState(cfg.Topology),
		leaseEv: event{kind: evLeaseExpiry, index: -1},
		result:  newResult(cfg),
	}
	apps := make([]*workload.App, len(cfg.Apps))
	copy(apps, cfg.Apps)
	sort.SliceStable(apps, func(i, j int) bool { return apps[i].SubmitTime < apps[j].SubmitTime })
	for _, a := range apps {
		st := newAppState(a, hyperparam.ForApp(a), cfg.Topology, &s.split)
		s.apps = append(s.apps, st)
		s.pending = append(s.pending, st)
		s.events.push(&st.arrivalEv)
	}
	s.initFailures()
	return s, nil
}

// Run executes the simulation to completion (all apps finished, the horizon
// reached, or no further events) and returns the collected results. The
// context is checked between decision points, so cancelling it aborts the
// run promptly with the context's error.
func (s *Simulator) Run(ctx context.Context) (*Result, error) {
	forcedRounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.cfg.Horizon > 0 && s.now >= s.cfg.Horizon {
			break
		}
		s.processArrivals()
		s.processFailures()
		if err := s.expireLeases(s.leases.Expire(s.now + timeEps)); err != nil {
			return nil, err
		}
		s.runTuners()
		s.finishApps()
		if _, err := s.schedule(); err != nil {
			return nil, err
		}

		if s.done() {
			break
		}
		next, forced, ok := s.nextEventTime()
		if !ok {
			// Nothing will ever happen again (no arrivals, no running jobs,
			// no leases): avoid spinning forever.
			break
		}
		if forced {
			forcedRounds++
			if forcedRounds > maxIdleRounds {
				return nil, fmt.Errorf("sim: no progress after %d forced rounds at t=%.2f under policy %s", forcedRounds, s.now, s.cfg.Policy.Name())
			}
		} else {
			forcedRounds = 0
		}
		s.advanceTo(next)
	}
	s.finalize()
	return s.result, nil
}

// done reports whether every app has finished.
func (s *Simulator) done() bool {
	if len(s.pending) > 0 {
		return false
	}
	return len(s.active) == 0
}

// processArrivals registers apps whose submit time has been reached.
func (s *Simulator) processArrivals() {
	for len(s.pending) > 0 && s.pending[0].App.SubmitTime <= s.now+timeEps {
		st := s.pending[0]
		s.pending = s.pending[1:]
		s.events.remove(&st.arrivalEv)
		i, _ := s.search(st.App.ID)
		s.active = slices.Insert(s.active, i, st)
		s.result.noteArrival(s.now, st)
		// Jobs whose constraints no allocation on this topology can satisfy
		// are rejected now rather than starved forever; the app's tuner then
		// observes the kills (and finishes the app if nothing is left).
		if st.rejectInfeasible(s.now) {
			st.tunerDirty = true
		}
	}
}

// search returns the position of the active app with the given ID, or where
// it would be inserted, and whether it is there.
func (s *Simulator) search(id workload.AppID) (int, bool) {
	return slices.BinarySearchFunc(s.active, id, func(st *AppState, id workload.AppID) int {
		return cmp.Compare(st.App.ID, id)
	})
}

// lookup returns the active app with the given ID, or nil.
func (s *Simulator) lookup(id workload.AppID) *AppState {
	if i, ok := s.search(id); ok {
		return s.active[i]
	}
	return nil
}

// appStateChanged re-aims st's completion event after an allocation change
// and marks it for its tuner.
func (s *Simulator) appStateChanged(st *AppState) {
	s.refreshCompletion(st)
	st.tunerDirty = true
}

// expireLeases returns the GPUs of the due leases — the book's Expire at now,
// soonest expiry first and in grant order among ties — to the free pool.
func (s *Simulator) expireLeases(due []core.Lease) error {
	for _, l := range due {
		st := s.lookup(l.App)
		if st == nil {
			return fmt.Errorf("sim: lease outlived its app %s", l.App)
		}
		if err := s.cs.Release(string(l.App), l.Alloc); err != nil {
			return fmt.Errorf("sim: lease release inconsistency: %w", err)
		}
		st.onAllocationChange(s.now, s.cs.HeldInto(st.Held, string(l.App)), s.cfg.RestartOverhead)
		s.appStateChanged(st)
		s.result.noteAllocation(s.now, st, st.Held)
	}
	s.aimLeaseExpiry()
	return nil
}

// aimLeaseExpiry re-aims the lease-expiry event at the book's earliest
// expiry, or takes it off the heap when no lease is outstanding.
func (s *Simulator) aimLeaseExpiry() {
	if t, ok := s.leases.Next(); ok {
		s.events.update(&s.leaseEv, t)
	} else {
		s.events.remove(&s.leaseEv)
	}
}

// runTuners lets every active app's tuner observe progress and kill trials.
func (s *Simulator) runTuners() {
	for _, st := range s.active {
		if !st.tunerDirty {
			// Tuner decisions are pure functions of job progress; an app
			// that has not progressed or changed allocation since the last
			// observation cannot trigger new kills.
			continue
		}
		before := st.App.NumActiveJobs()
		st.Tuner.Update(s.now, st.App)
		if st.App.NumActiveJobs() != before {
			// Killed trials vacate their share; re-split the app's GPUs.
			st.onAllocationChange(s.now, s.cs.HeldInto(st.Held, string(st.App.ID)), 0)
			s.appStateChanged(st)
		}
	}
}

// finishApps completes apps whose tuner declares them done, releasing GPUs
// and detaching every event the app still owns.
func (s *Simulator) finishApps() {
	kept := s.active[:0]
	for _, st := range s.active {
		if st.tunerDirty {
			st.tunerDirty = false
			if st.Tuner.Done(st.App) {
				st.App.FinishedAt = s.now
				s.cs.ReleaseAll(string(st.App.ID))
				s.leases.Drop(st.App.ID)
				s.aimLeaseExpiry()
				s.events.remove(&st.completionEv)
				s.result.noteFinish(s.now, st)
				continue
			}
		}
		kept = append(kept, st)
	}
	clear(s.active[len(kept):])
	s.active = kept
}

// schedule invokes the policy over the free pool and applies its decisions.
// It reports whether any allocation changed.
func (s *Simulator) schedule() (bool, error) {
	// TotalFree avoids building the free-vector map on the (frequent)
	// rounds where the cluster is saturated and there is nothing to offer.
	if s.cs.TotalFree() == 0 || len(s.active) == 0 {
		return false, nil
	}
	s.free = s.cs.FreeVectorInto(s.free)
	free := s.free
	view := s.view()
	if !view.anyDemand() {
		return false, nil
	}
	grants, err := s.cfg.Policy.Allocate(s.now, free, view)
	if err != nil {
		return false, fmt.Errorf("sim: policy %s at t=%.2f: %w", s.cfg.Policy.Name(), s.now, err)
	}
	changed := false
	ids := s.idsScratch[:0]
	for id := range grants {
		ids = append(ids, id)
	}
	if len(ids) > 1 {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	s.idsScratch = ids
	// leftover tracks the free GPUs no app was granted this round; the packer
	// and the constrained-grant repair draw replacement GPUs from it. It is
	// filled lazily, into the simulator's own map: rounds without a packer or
	// constrained grantee (the common case) never fill it.
	var leftover cluster.Alloc
	takeLeftover := func() (cluster.Alloc, error) {
		if leftover == nil {
			s.leftover = s.leftover.Reset()
			s.leftover.Credit(free)
			leftover = s.leftover
			for _, id := range ids {
				if err := leftover.Debit(grants[id]); err != nil {
					return nil, fmt.Errorf("sim: policy %s grants exceed the free pool: %w", s.cfg.Policy.Name(), err)
				}
			}
		}
		return leftover, nil
	}
	for _, id := range ids {
		alloc := grants[id]
		if alloc.Total() == 0 {
			continue
		}
		st := s.lookup(id)
		if st == nil {
			return changed, fmt.Errorf("sim: policy %s allocated to unknown app %s", s.cfg.Policy.Name(), id)
		}
		if s.cfg.Packer != nil {
			l, err := takeLeftover()
			if err != nil {
				return changed, err
			}
			alloc, leftover = s.repack(st, alloc, l)
		}
		// A grant a constrained app cannot convert into a single runnable job
		// would hold GPUs without progress until the lease lapses, and a
		// policy that keeps offering the same shape would churn leases forever
		// (the tiresias loop on constrained traces). Re-pick such grants
		// constraint-aware from the grant plus the round's leftover pool; if
		// no usable shape exists, skip the grant and leave the GPUs free.
		if st.constrained && alloc.Total() > 0 && !st.usableWith(alloc) {
			l, err := takeLeftover()
			if err != nil {
				return changed, err
			}
			alloc, leftover = s.repairGrant(st, alloc, l)
		}
		if alloc.Total() == 0 {
			continue
		}
		if err := s.cs.Grant(string(id), alloc); err != nil {
			return changed, fmt.Errorf("sim: policy %s produced an infeasible allocation for %s: %w", s.cfg.Policy.Name(), id, err)
		}
		s.leases.Grant(id, alloc, s.now, s.cfg.LeaseDuration)
		st.onAllocationChange(s.now, s.cs.HeldInto(st.Held, string(id)), s.cfg.RestartOverhead)
		s.appStateChanged(st)
		s.result.noteAllocation(s.now, st, st.Held)
		changed = true
	}
	s.aimLeaseExpiry()
	return changed, nil
}

// repack lets the configured Packer re-materialise an app's grant onto
// concrete GPUs, drawing from the grant plus the round's leftover free pool.
// It returns the placed allocation (never more GPUs than the policy granted)
// and the updated leftover pool: leftover itself, which the grant is credited
// into and the placement debited from.
func (s *Simulator) repack(st *AppState, alloc, leftover cluster.Alloc) (cluster.Alloc, cluster.Alloc) {
	leftover.Credit(alloc)
	placed := s.cfg.Packer.Place(leftover, st.Held, alloc.Total(), st.packConstraint())
	if err := leftover.Debit(placed); err != nil {
		// The Packer contract (placed within free) was violated; fall back to
		// the policy's own placement rather than corrupting the pool. Debit
		// checks before it changes anything, so taking the grant back out
		// restores the pool.
		_ = leftover.Debit(alloc)
		return alloc, leftover
	}
	return placed, leftover
}

// repairGrant re-picks a grant a constrained app cannot use: it runs the job
// split over the grant plus the leftover pool, capped at the granted GPU
// budget, so every job draws a shape its constraint admits. It returns the
// repaired allocation — possibly empty when no usable shape exists — and the
// updated leftover pool.
func (s *Simulator) repairGrant(st *AppState, alloc, leftover cluster.Alloc) (cluster.Alloc, cluster.Alloc) {
	picker := &st.split.picker
	picker.Load(st.topo, alloc)
	picker.Credit(leftover)
	repaired := cluster.NewAlloc()
	for _, t := range st.splitLoaded(alloc.Total()).Takes {
		repaired[t.Machine] += t.GPUs
	}
	// Read back before usableWith reloads the picker.
	rest := picker.Remaining(nil)
	if repaired.Total() > 0 && !st.usableWith(repaired) {
		// The repair did not produce a usable shape either (the app-level
		// split can interleave jobs differently); granting it would only
		// churn leases, so leave everything in the free pool.
		return cluster.NewAlloc(), alloc.Add(leftover)
	}
	return repaired, rest
}

// refreshCompletion re-aims st's completion event at its cached projection.
func (s *Simulator) refreshCompletion(st *AppState) {
	if math.IsInf(st.proj, 1) {
		s.events.remove(&st.completionEv)
		return
	}
	s.events.update(&st.completionEv, st.proj)
}

// nextEventTime returns the time the simulation should advance to: the
// earliest scheduled event, or — when the earliest projections have rounded
// to "now" — a forced step of at most minTimeStep, clamped so it can never
// jump over a strictly-future event. It reports whether the step was forced
// and whether any event remains at all.
func (s *Simulator) nextEventTime() (t float64, forced, ok bool) {
	best, future := s.heapEventTimes()
	if math.IsInf(best, 1) {
		return 0, false, false
	}
	if best <= s.now {
		// Events that project to "now" (e.g. a completion whose remaining
		// work has rounded to zero) must still move time forward, or the run
		// would spin without ever re-integrating job progress. The forced
		// step is clamped to the next strictly-future event so it can never
		// jump over a lease expiry or arrival landing inside the step.
		best = math.Min(s.now+minTimeStep, future)
		forced = true
	}
	if s.cfg.Horizon > 0 && best > s.cfg.Horizon {
		best = s.cfg.Horizon
	}
	return best, forced, true
}

// heapEventTimes reads the earliest event (and earliest strictly-future
// event) from the event heap. Entries at or behind now — only completion
// projections can be there — are momentarily popped to uncover the first
// future entry, then re-inserted so they keep forcing progress.
func (s *Simulator) heapEventTimes() (best, future float64) {
	best, future = math.Inf(1), math.Inf(1)
	stale := s.staleScratch[:0]
	for {
		e := s.events.peek()
		if e == nil {
			break
		}
		if e.time > s.now {
			future = e.time
			break
		}
		if e.time < best {
			best = e.time
		}
		stale = append(stale, e)
		s.events.pop()
	}
	for _, e := range stale {
		s.events.push(e)
	}
	s.staleScratch = stale
	if future < best {
		best = future
	}
	return best, future
}

// advanceTo integrates every running job's progress up to time t, re-aiming
// the completion events of apps that made progress.
func (s *Simulator) advanceTo(t float64) {
	if t <= s.now {
		return
	}
	for _, st := range s.active {
		if st.advance(s.now, t) {
			s.refreshCompletion(st)
		}
	}
	s.result.noteInterval(s.now, t, s.cs, s.active)
	s.now = t
}

// view builds the policy-facing view of the current state.
func (s *Simulator) view() *View {
	// Held is maintained on every allocation change (grant, lease expiry,
	// kill re-split, failure revocation), so the view needs no per-app
	// refresh against the cluster state. Both the View struct and its Apps
	// backing array are reused across rounds: the view is only valid for the
	// duration of the policy's Allocate call, which is the contract
	// documented on View.
	v := &s.viewStruct
	v.Topo, v.Cluster, v.Now = s.cfg.Topology, s.cs, s.now
	v.Apps = append(s.viewBuf[:0], s.active...)
	s.viewBuf = v.Apps
	return v
}

// finalize closes out per-app records for apps still unfinished at the end
// of the run (horizon reached).
func (s *Simulator) finalize() {
	s.result.finalize(s.now, s.apps)
}

// timeEps is the tolerance used when comparing event times; minTimeStep is
// the smallest amount the clock moves between decision points.
const (
	timeEps     = 1e-9
	minTimeStep = 1e-6
)
