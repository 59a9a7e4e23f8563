package sim

// Tests pinning the heap event core to a full-rescan oracle: at every decision
// point the leases the lease book expires and the event times the heap reports
// must equal what scanning every app and lease finds, and the forced-step
// (spin-guard) clamp must never jump over a real event.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/placement"
	"themis/internal/workload"
)

// equivalenceWorkload builds a moderately contended randomized trace.
func equivalenceWorkload(t *testing.T, seed int64, apps int) []*workload.App {
	t.Helper()
	cfg := workload.DefaultGeneratorConfig()
	cfg.Seed = seed
	cfg.NumApps = apps
	cfg.MeanInterArrival = 4
	cfg.JobsPerAppMedian = 4
	cfg.MaxJobsPerApp = 10
	cfg.DurationScale = 0.2
	out, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Renamed in reverse arrival order, so the simulator's ID-ordered active
	// list is not in the order the apps arrive.
	for i, a := range out {
		a.ID = workload.AppID(fmt.Sprintf("rev-%03d", len(out)-1-i))
		for _, j := range a.Jobs {
			j.App = a.ID
		}
	}
	return out
}

// The scan oracle: the pre-heap event core, which rediscovered the due leases
// and the next decision point each round with full scans over pending
// arrivals, failures, every outstanding lease and every active app's
// completion projection recomputed from scratch. It was the simulator's
// second core until the heap core had earned its keep; it lives on here as
// what the heap core is checked against.

// bookLeases returns a copy of the book's outstanding leases in its (expiry,
// grant) order. The book exports no view of them, and the scan oracles here
// read them without disturbing it, so the copy is read through reflection.
func bookLeases(b *core.LeaseBook) []core.Lease {
	v := reflect.ValueOf(b).Elem().FieldByName("leases")
	out := make([]core.Lease, v.Len())
	for i := range out {
		l := v.Index(i)
		alloc := cluster.NewAlloc()
		for it := l.FieldByName("Alloc").MapRange(); it.Next(); {
			alloc[cluster.MachineID(it.Key().Int())] = int(it.Value().Int())
		}
		out[i] = core.Lease{App: workload.AppID(l.FieldByName("App").String()), Alloc: alloc, Expiry: l.FieldByName("Expiry").Float()}
	}
	return out
}

// scanDueLeases returns the leases whose expiry time has been reached, found
// by scanning every outstanding lease in the book's view rather than reading
// its due prefix, soonest expiry first and in view order among ties.
func scanDueLeases(s *Simulator) []core.Lease {
	var due []core.Lease
	for _, l := range bookLeases(&s.leases) {
		if l.Expiry <= s.now+timeEps {
			due = append(due, l)
		}
	}
	sort.SliceStable(due, func(i, j int) bool { return due[i].Expiry < due[j].Expiry })
	return due
}

// jobAlloc returns the GPUs currently assigned to job id within st's app, in
// a map of the caller's.
func jobAlloc(st *AppState, id workload.JobID) cluster.Alloc {
	out := cluster.NewAlloc()
	for i, j := range st.App.Jobs {
		if j.ID == id && i < len(st.shares) {
			sh := st.shares[i]
			for _, t := range st.takes[sh.lo:sh.hi] {
				out[t.Machine] += t.GPUs
			}
			break
		}
	}
	return out
}

// scanNextCompletion returns the projected completion time of the app's
// fastest-finishing running job, if any job is running, recomputed from each
// job's share of the job split.
func scanNextCompletion(st *AppState, now float64) (float64, bool) {
	start := now
	if st.pausedUntil > start {
		start = st.pausedUntil
	}
	best := math.Inf(1)
	for _, j := range st.App.Jobs {
		alloc := jobAlloc(st, j.ID)
		g := alloc.Total()
		if !j.Active() || g == 0 || !jobCanRun(st, j, alloc) {
			continue
		}
		s := st.App.Profile.SOf(st.topo, alloc)
		t := start + j.RemainingWork()/(float64(g)*s)
		if t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// jobCanRun reports whether alloc lets j make progress: the full §6 / trace
// v2 constraint set (per-machine floor, spread cap, domain and flavor
// affinity) must hold.
func jobCanRun(st *AppState, j *workload.Job, alloc cluster.Alloc) bool {
	c, ok := j.PlacementConstraint(st.topo)
	return ok && placement.Satisfies(st.topo, alloc, c)
}

// scanEventTimes returns the earliest event time and the earliest
// strictly-future event time.
func scanEventTimes(s *Simulator) (best, future float64) {
	best, future = math.Inf(1), math.Inf(1)
	note := func(t float64) {
		best = math.Min(best, t)
		if t > s.now {
			future = math.Min(future, t)
		}
	}
	if len(s.pending) > 0 {
		note(s.pending[0].App.SubmitTime)
	}
	// The earliest pending failure or recovery.
	next := math.Inf(1)
	if len(s.failures) > 0 {
		next = math.Min(next, s.failures[0].f.Time)
	}
	if len(s.recoveries) > 0 {
		next = math.Min(next, s.recoveries[0].time)
	}
	if !math.IsInf(next, 1) && next > s.now {
		note(next)
	}
	for _, l := range bookLeases(&s.leases) {
		if l.Expiry > s.now {
			note(l.Expiry)
		}
	}
	for _, st := range s.active {
		if t, ok := scanNextCompletion(st, s.now); ok {
			note(t)
		}
	}
	return best, future
}

// checkActive requires s.active, the simulator's one list of live apps, to be
// strictly ID-ordered, to hold exactly the arrived, unfinished apps, and to
// hold every app the cluster state reports holding GPUs.
func checkActive(t *testing.T, s *Simulator) {
	t.Helper()
	for i := 1; i < len(s.active); i++ {
		if s.active[i-1].App.ID >= s.active[i].App.ID {
			t.Fatalf("t=%v: active apps %s and %s are out of ID order", s.now, s.active[i-1].App.ID, s.active[i].App.ID)
		}
	}
	var live []*AppState
	for _, st := range s.apps[:len(s.apps)-len(s.pending)] {
		if !st.App.Finished() {
			live = append(live, st)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].App.ID < live[j].App.ID })
	if !slices.Equal(s.active, live) {
		t.Fatalf("t=%v: the active list holds %d apps, %d have arrived and not finished", s.now, len(s.active), len(live))
	}
	for _, app := range s.cs.Apps() {
		if !slices.ContainsFunc(s.active, func(st *AppState) bool { return st.App.ID == workload.AppID(app) }) {
			t.Fatalf("t=%v: %s holds GPUs but is not in the active list", s.now, app)
		}
	}
}

// runAgainstScan drives s the way Run does and, at every decision point,
// checks the lease book's due leases and the heap's event times against the
// scan oracle, that no lease outlives its app, and the active list's
// invariant (checkActive).
func runAgainstScan(t *testing.T, s *Simulator) *Result {
	t.Helper()
	for round := 0; ; round++ {
		if round > 1_000_000 {
			t.Fatal("no end in sight")
		}
		if s.cfg.Horizon > 0 && s.now >= s.cfg.Horizon {
			break
		}
		s.processArrivals()
		s.processFailures()
		want := scanDueLeases(s)
		due := s.leases.Expire(s.now + timeEps)
		if len(due)+len(want) > 0 && !reflect.DeepEqual(due, want) {
			t.Fatalf("t=%v: the book expires leases %v, the scan finds %v due", s.now, due, want)
		}
		if err := s.expireLeases(due); err != nil {
			t.Fatal(err)
		}
		s.runTuners()
		s.finishApps()
		for _, l := range bookLeases(&s.leases) {
			if s.lookup(l.App) == nil {
				t.Fatalf("t=%v: the book holds a lease of %s, which is not active", s.now, l.App)
			}
		}
		if _, err := s.schedule(); err != nil {
			t.Fatal(err)
		}
		checkActive(t, s)
		if s.done() {
			break
		}
		wantBest, wantFuture := scanEventTimes(s)
		if best, future := s.heapEventTimes(); best != wantBest || future != wantFuture {
			t.Fatalf("t=%v: heap sees (next, next future) event at (%v, %v), the scan at (%v, %v)",
				s.now, best, future, wantBest, wantFuture)
		}
		next, _, ok := s.nextEventTime()
		if !ok {
			break
		}
		s.advanceTo(next)
	}
	s.finalize()
	return s.result
}

// assertSameRun requires two Results — per-app records, the complete
// allocation timeline and the aggregate metrics — to be equal to the last bit.
func assertSameRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Apps, want.Apps) {
		t.Errorf("%s: per-app records differ", label)
	}
	if !reflect.DeepEqual(got.Timeline, want.Timeline) {
		t.Errorf("%s: allocation timelines differ", label)
	}
	if got.Makespan != want.Makespan || got.ClusterGPUTime != want.ClusterGPUTime || got.PeakContention != want.PeakContention {
		t.Errorf("%s: aggregates differ: (%v,%v,%v) vs (%v,%v,%v)", label,
			got.Makespan, got.ClusterGPUTime, got.PeakContention,
			want.Makespan, want.ClusterGPUTime, want.PeakContention)
	}
}

// TestHeapCoreMatchesScanCoreExactly replays seeded traces and requires the
// heap core to agree with the scan oracle at every decision point. The
// completion projections the heap caches are recomputed with the same
// floating-point expressions the scan evaluates, so any divergence, even one
// ulp, is a bookkeeping bug in the heap core. The checked replay must also
// produce the very Result a plain Run does: the observation perturbs nothing
// and runAgainstScan's loop is Run's.
func TestHeapCoreMatchesScanCoreExactly(t *testing.T) {
	topo := simTopo(t, 6, 4, 3)
	for _, seed := range []int64{1, 7, 23, 99} {
		build := func() *Simulator {
			s, err := New(Config{
				Topology:        topo,
				Apps:            equivalenceWorkload(t, seed, 10),
				Policy:          fifoPolicy{},
				LeaseDuration:   10,
				RestartOverhead: 0.5,
				Horizon:         5000,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		plain, err := build().Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		assertSameRun(t, "checked vs plain run", runAgainstScan(t, build()), plain)
	}
}

// TestHeapCoreMatchesScanCoreUnderFailures exercises the revocation path —
// lease trimming, machine offlining and recovery — against the scan oracle.
func TestHeapCoreMatchesScanCoreUnderFailures(t *testing.T) {
	topo := simTopo(t, 4, 4, 2)
	build := func() *Simulator {
		s, err := New(Config{
			Topology:        topo,
			Apps:            equivalenceWorkload(t, 5, 6),
			Policy:          fifoPolicy{},
			LeaseDuration:   10,
			RestartOverhead: 0.5,
			Horizon:         5000,
			Failures: []Failure{
				{Time: 8, Machine: 1, Duration: 15},
				{Time: 20, Machine: 2, Duration: 0}, // permanent
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain, err := build().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "checked vs plain run under failures", runAgainstScan(t, build()), plain)
}

// TestCachedProjectionMatchesScanOracle runs the heap core and, at every
// policy invocation, recomputes each app's completion projection from
// scratch (the scan oracle) and compares it with the cached value.
func TestCachedProjectionMatchesScanOracle(t *testing.T) {
	topo := simTopo(t, 4, 4, 2)
	check := projectionCheckPolicy{t: t}
	s, err := New(Config{
		Topology:        topo,
		Apps:            equivalenceWorkload(t, 11, 8),
		Policy:          check,
		LeaseDuration:   10,
		RestartOverhead: 0.5,
		Horizon:         5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// projectionCheckPolicy delegates to fifoPolicy and asserts, for every app
// in every view, that the cached completion projection equals a fresh
// full-rescan recomputation bit-for-bit.
type projectionCheckPolicy struct{ t *testing.T }

func (projectionCheckPolicy) Name() string { return "projection-check" }

func (p projectionCheckPolicy) Allocate(now float64, free cluster.Alloc, view *View) (map[workload.AppID]cluster.Alloc, error) {
	for _, st := range view.Apps {
		scan, ok := scanNextCompletion(st, now)
		switch {
		case !ok && !math.IsInf(st.proj, 1):
			p.t.Errorf("t=%v app %s: cached projection %v but scan sees no completion", now, st.App.ID, st.proj)
		case ok && scan != st.proj:
			p.t.Errorf("t=%v app %s: cached projection %v != scanned %v", now, st.App.ID, st.proj, scan)
		}
	}
	return fifoPolicy{}.Allocate(now, free, view)
}

// TestForcedStepClampsToNextEvent is the regression test for the spin-guard
// edge case: when a completion projection has collapsed onto "now" the clock
// must still move, but the forced step may not jump over a real event (here
// a lease expiry) that lands inside the minimum step.
func TestForcedStepClampsToNextEvent(t *testing.T) {
	topo := simTopo(t, 2, 4, 2)
	app := simApp("a", 0, placement.ResNet50, 1, 100)
	s, err := New(Config{Topology: topo, Apps: []*workload.App{app}, Policy: fifoPolicy{}, LeaseDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Arrange the edge case by hand: the app is active with a stale
	// completion projection at exactly now, and a lease expires within the
	// minimum time step.
	s.now = 100
	s.processArrivals()
	st := s.apps[0]
	st.proj = s.now
	s.refreshCompletion(st)
	expiry := s.now + minTimeStep/2
	s.leases.Grant(st.App.ID, cluster.Alloc{0: 1}, s.now, minTimeStep/2)
	s.aimLeaseExpiry()

	next, forced, ok := s.nextEventTime()
	if !ok || !forced {
		t.Fatalf("nextEventTime = (%v, forced=%v, ok=%v), want a forced step", next, forced, ok)
	}
	if next != expiry {
		t.Errorf("forced step = %v, want clamped to the lease expiry %v (minTimeStep step would skip it)", next, expiry)
	}

	// Without the nearby expiry the forced step falls back to minTimeStep.
	s.leases.Drop(st.App.ID)
	s.aimLeaseExpiry()
	next, forced, ok = s.nextEventTime()
	if !ok || !forced {
		t.Fatalf("nextEventTime = (%v, forced=%v, ok=%v), want a forced step", next, forced, ok)
	}
	if next != s.now+minTimeStep {
		t.Errorf("forced step = %v, want now+minTimeStep = %v", next, s.now+minTimeStep)
	}

	// A projection strictly inside (now, now+minTimeStep) is a real event:
	// it must be advanced to exactly, not rounded up to the minimum step.
	st.proj = s.now + minTimeStep/4
	s.refreshCompletion(st)
	next, forced, ok = s.nextEventTime()
	if !ok || forced {
		t.Fatalf("nextEventTime = (%v, forced=%v, ok=%v), want an unforced step", next, forced, ok)
	}
	if next != st.proj {
		t.Errorf("next = %v, want the sub-step projection %v", next, st.proj)
	}
}
