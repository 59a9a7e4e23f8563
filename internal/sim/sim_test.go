package sim

import (
	"context"
	"math"
	"sort"
	"testing"

	"themis/internal/cluster"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/workload"
)

// fifoPolicy is a minimal test policy: it grants each app (in arrival order)
// as many GPUs as it can use, packed placement-sensitively.
type fifoPolicy struct{}

func (fifoPolicy) Name() string { return "fifo-test" }

func (fifoPolicy) Allocate(now float64, free cluster.Alloc, view *View) (map[workload.AppID]cluster.Alloc, error) {
	out := make(map[workload.AppID]cluster.Alloc)
	remaining := free.Clone()
	var picker placement.Picker
	apps := make([]*AppState, len(view.Apps))
	copy(apps, view.Apps)
	sort.Slice(apps, func(i, j int) bool { return apps[i].App.SubmitTime < apps[j].App.SubmitTime })
	for _, st := range apps {
		want := st.UnmetDemand()
		if want <= 0 || remaining.Total() == 0 {
			continue
		}
		alloc := picker.PickInto(nil, view.Topo, remaining, st.Held, want)
		if alloc.Total() == 0 {
			continue
		}
		out[st.App.ID] = alloc
		if err := remaining.Debit(alloc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// starvePolicy never allocates anything; used to exercise the no-progress path.
type starvePolicy struct{}

func (starvePolicy) Name() string { return "starve-test" }
func (starvePolicy) Allocate(float64, cluster.Alloc, *View) (map[workload.AppID]cluster.Alloc, error) {
	return nil, nil
}

func simTopo(t *testing.T, machines, gpus, perRack int) *cluster.Topology {
	t.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: machines, GPUs: gpus, SlotSize: 2}},
		MachinesPerRack: perRack,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func simApp(id string, submit float64, profile placement.Profile, nJobs int, work float64) *workload.App {
	jobs := make([]*workload.Job, nJobs)
	for i := 0; i < nJobs; i++ {
		j := workload.NewJob(workload.AppID(id), i, work, 4)
		j.Quality = float64(i) / float64(nJobs+1)
		j.Seed = int64(i*37 + 11)
		jobs[i] = j
	}
	return workload.NewApp(workload.AppID(id), submit, profile, jobs)
}

func TestConfigValidation(t *testing.T) {
	topo := simTopo(t, 2, 4, 2)
	good := Config{Topology: topo, Apps: []*workload.App{simApp("a", 0, placement.ResNet50, 1, 10)}, Policy: fifoPolicy{}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Apps: good.Apps, Policy: good.Policy},
		{Topology: topo, Policy: good.Policy},
		{Topology: topo, Apps: good.Apps},
		{Topology: topo, Apps: good.Apps, Policy: good.Policy, LeaseDuration: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New should reject invalid config")
	}
}

func TestSingleAppRunsToCompletion(t *testing.T) {
	topo := simTopo(t, 2, 4, 2)
	app := simApp("a", 0, placement.ResNet50, 1, 120) // 120 serial min, gang 4 → 30 min ideal
	s, err := New(Config{
		Topology:      topo,
		Apps:          []*workload.App{app},
		Policy:        fifoPolicy{},
		LeaseDuration: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 1 {
		t.Fatalf("got %d app records", len(res.Apps))
	}
	rec := res.Apps[0]
	if rec.FinishTime == workload.NotFinished {
		t.Fatal("app did not finish")
	}
	// Alone on the cluster with enough GPUs, completion ≈ ideal time (30 min).
	if rec.CompletionTime < 29 || rec.CompletionTime > 40 {
		t.Errorf("completion time = %v, want ≈30", rec.CompletionTime)
	}
	if rec.FinishTimeFairness < 0.95 || rec.FinishTimeFairness > 1.4 {
		t.Errorf("rho = %v, want ≈1 for a dedicated cluster", rec.FinishTimeFairness)
	}
	if rec.PlacementScore < 0.9 {
		t.Errorf("placement score = %v, want ≥0.9 (packed)", rec.PlacementScore)
	}
	if rec.BusyGPUTime < 119 || rec.BusyGPUTime > 125 {
		t.Errorf("busy GPU time = %v, want ≈120", rec.BusyGPUTime)
	}
	if res.ClusterGPUTime < rec.BusyGPUTime-1e-6 {
		t.Errorf("cluster GPU time %v below app busy time %v", res.ClusterGPUTime, rec.BusyGPUTime)
	}
	if res.Makespan < 29 {
		t.Errorf("makespan = %v", res.Makespan)
	}
}

func TestRestartOverheadDelaysCompletion(t *testing.T) {
	topo := simTopo(t, 2, 4, 2)
	mk := func() []*workload.App { return []*workload.App{simApp("a", 0, placement.ResNet50, 1, 120)} }
	run := func(overhead float64) float64 {
		s, err := New(Config{Topology: topo, Apps: mk(), Policy: fifoPolicy{}, LeaseDuration: 20, RestartOverhead: overhead})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Apps[0].CompletionTime
	}
	fast := run(0)
	slow := run(2.0)
	if slow <= fast {
		t.Errorf("restart overhead should delay completion: %v vs %v", slow, fast)
	}
}

func TestMultipleAppsShareCluster(t *testing.T) {
	topo := simTopo(t, 4, 4, 2)
	apps := []*workload.App{
		simApp("a", 0, placement.VGG16, 2, 200),
		simApp("b", 5, placement.ResNet50, 2, 200),
		simApp("c", 10, placement.ResNet50, 1, 100),
	}
	s, err := New(Config{Topology: topo, Apps: apps, Policy: fifoPolicy{}, LeaseDuration: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished()) != 3 {
		t.Fatalf("only %d of 3 apps finished", len(res.Finished()))
	}
	for _, rec := range res.Apps {
		if rec.FinishTimeFairness <= 0 {
			t.Errorf("app %s has non-positive rho %v", rec.App, rec.FinishTimeFairness)
		}
		if rec.CompletionTime < rec.TIdeal-1e-6 {
			t.Errorf("app %s finished faster (%v) than its ideal time (%v)", rec.App, rec.CompletionTime, rec.TIdeal)
		}
		if rec.JobsTotal != len(appByID(apps, rec.App).Jobs) {
			t.Errorf("app %s job count mismatch", rec.App)
		}
	}
	// Timeline events exist for every app and are time-ordered.
	for _, a := range apps {
		tl := res.TimelineFor(a.ID)
		if len(tl) < 2 {
			t.Errorf("timeline for %s too short: %v", a.ID, tl)
		}
		for i := 1; i < len(tl); i++ {
			if tl[i].Time < tl[i-1].Time {
				t.Errorf("timeline for %s not ordered", a.ID)
			}
		}
	}
	if res.PeakContention <= 0 || res.PeakContention > 1 {
		t.Errorf("peak contention = %v, want in (0,1]", res.PeakContention)
	}
}

func appByID(apps []*workload.App, id workload.AppID) *workload.App {
	for _, a := range apps {
		if a.ID == id {
			return a
		}
	}
	return nil
}

func TestHorizonCapsSimulation(t *testing.T) {
	topo := simTopo(t, 1, 4, 1)
	app := simApp("a", 0, placement.ResNet50, 1, 1e6) // effectively endless
	s, err := New(Config{Topology: topo, Apps: []*workload.App{app}, Policy: fifoPolicy{}, LeaseDuration: 20, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > 100+1e-6 {
		t.Errorf("makespan %v exceeds horizon", res.Makespan)
	}
	if len(res.Finished()) != 0 {
		t.Error("endless app should not finish within the horizon")
	}
	if res.Apps[0].CompletionTime != workload.NotFinished {
		t.Errorf("unfinished app should have CompletionTime = NotFinished")
	}
}

func TestStarvationPolicyDoesNotHang(t *testing.T) {
	topo := simTopo(t, 2, 4, 2)
	app := simApp("a", 0, placement.ResNet50, 1, 100)
	s, err := New(Config{Topology: topo, Apps: []*workload.App{app}, Policy: starvePolicy{}, LeaseDuration: 20, Horizon: 500})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished()) != 0 {
		t.Error("app finished despite never receiving GPUs")
	}
}

func TestLeaseExpiryReassignsGPUs(t *testing.T) {
	// One 4-GPU machine, two single-job apps arriving together: under FIFO
	// with finite leases both must eventually run and finish.
	topo := simTopo(t, 1, 4, 1)
	apps := []*workload.App{
		simApp("a", 0, placement.ResNet50, 1, 80),
		simApp("b", 0, placement.ResNet50, 1, 80),
	}
	s, err := New(Config{Topology: topo, Apps: apps, Policy: fifoPolicy{}, LeaseDuration: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished()) != 2 {
		t.Fatalf("both apps should finish, got %d", len(res.Finished()))
	}
	// Total busy GPU time is the serial work (placement is perfect here).
	var busy float64
	for _, rec := range res.Apps {
		busy += rec.BusyGPUTime
	}
	if math.Abs(busy-160) > 2 {
		t.Errorf("total busy GPU time = %v, want ≈160", busy)
	}
}

func TestTunerKillsReduceWork(t *testing.T) {
	// Enough GPUs for all trials to run in parallel, so HyperBand's rungs
	// (at 10% of the iteration budget) fire well before any trial finishes.
	topo := simTopo(t, 8, 4, 4)
	app := simApp("a", 0, placement.ResNet50, 8, 400)
	s, err := New(Config{Topology: topo, Apps: []*workload.App{app}, Policy: fifoPolicy{}, LeaseDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Apps[0]
	if rec.FinishTime == workload.NotFinished {
		t.Fatal("app did not finish")
	}
	if rec.JobsKilled == 0 {
		t.Error("HyperBand should have killed some trials")
	}
	if rec.JobsKilled >= rec.JobsTotal {
		t.Error("at least one trial must run to completion")
	}
}

// tunerSpy is fifoPolicy that records the tuner of every app it sees.
type tunerSpy struct {
	fifoPolicy
	tuners map[workload.AppID]hyperparam.Tuner
}

func (p *tunerSpy) Allocate(now float64, free cluster.Alloc, view *View) (map[workload.AppID]cluster.Alloc, error) {
	for _, st := range view.Apps {
		p.tuners[st.App.ID] = st.Tuner
	}
	return p.fifoPolicy.Allocate(now, free, view)
}

// TestTunerChoicePerApp pins the simulator's tuner choice: a one-trial app
// runs under Single, a multi-trial app under HyperBand.
func TestTunerChoicePerApp(t *testing.T) {
	topo := simTopo(t, 4, 4, 2)
	apps := []*workload.App{
		simApp("one", 0, placement.ResNet50, 1, 40),
		simApp("many", 0, placement.ResNet50, 4, 40),
	}
	spy := &tunerSpy{tuners: make(map[workload.AppID]hyperparam.Tuner)}
	s, err := New(Config{Topology: topo, Apps: apps, Policy: spy, LeaseDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := spy.tuners["one"].(*hyperparam.Single); !ok {
		t.Errorf("one-trial app runs under %T, want *hyperparam.Single", spy.tuners["one"])
	}
	if _, ok := spy.tuners["many"].(*hyperparam.HyperBand); !ok {
		t.Errorf("multi-trial app runs under %T, want *hyperparam.HyperBand", spy.tuners["many"])
	}
}

func TestAppStateAccounting(t *testing.T) {
	topo := simTopo(t, 2, 4, 2)
	app := simApp("a", 0, placement.VGG16, 2, 100)
	st := newAppState(app, fifoTuner{}, topo, &splitScratch{})
	if st.TIdealAtArrival != 25 {
		t.Errorf("TIdeal = %v, want 25", st.TIdealAtArrival)
	}
	if st.UnmetDemand() != 8 {
		t.Errorf("UnmetDemand = %d, want 8", st.UnmetDemand())
	}
	st.onAllocationChange(0, cluster.Alloc{0: 4, 1: 4}, 0.5)
	if st.UnmetDemand() != 0 {
		t.Errorf("UnmetDemand after full grant = %d, want 0", st.UnmetDemand())
	}
	if st.pausedUntil != 0.5 {
		t.Errorf("pausedUntil = %v, want 0.5", st.pausedUntil)
	}
	// Each job gets one packed machine.
	for _, j := range app.Jobs {
		a := jobAlloc(st, j.ID)
		if a.Total() != 4 || len(a.Machines()) != 1 {
			t.Errorf("job %s alloc %v, want one full machine", j.ID, a)
		}
	}
	// During the pause no progress accrues.
	st.advance(0, 0.5)
	if app.Jobs[0].DoneWork != 0 {
		t.Error("work accrued during restart pause")
	}
	st.advance(0.5, 10.5)
	if app.Jobs[0].DoneWork <= 0 {
		t.Error("no work accrued after pause")
	}
	if math.IsInf(st.proj, 1) {
		t.Error("a completion should be projected while jobs run")
	}
}

// fifoTuner is a minimal tuner for AppState unit tests.
type fifoTuner struct{}

func (fifoTuner) Update(float64, *workload.App)    {}
func (fifoTuner) WorkLeft(j *workload.Job) float64 { return j.RemainingWork() }
func (fifoTuner) Done(a *workload.App) bool        { return a.NumActiveJobs() == 0 }

// TestTimelineKeepsRecordingOrder pins how the timeline breaks ties: it is
// ordered by time, then app, and an app's events at one instant stay in the
// order they were recorded. An app's arrival is recorded before the grant of
// the round it arrives in, so every app's first event is its 0-GPU arrival at
// its submit time. On this run the sort used to put rev-005's 6-GPU grant at
// t = 15.38 before its arrival, so a reader taking an instant's last event
// saw the app at 0 GPUs.
func TestTimelineKeepsRecordingOrder(t *testing.T) {
	apps := equivalenceWorkload(t, 1, 10)
	s, err := New(Config{
		Topology:        simTopo(t, 6, 4, 3),
		Apps:            apps,
		Policy:          fifoPolicy{},
		LeaseDuration:   10,
		RestartOverhead: 0.5,
		Horizon:         5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first := make(map[workload.AppID]AllocationEvent)
	ties := 0
	for i, e := range res.Timeline {
		if _, ok := first[e.App]; !ok {
			first[e.App] = e
		}
		if i > 0 && res.Timeline[i-1].Time == e.Time && res.Timeline[i-1].App == e.App {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no app has two events at one instant: the run does not exercise the tie")
	}
	for _, a := range apps {
		if e := first[a.ID]; e.Time != a.SubmitTime || e.GPUs != 0 {
			t.Errorf("%s's first timeline event is %+v, want its 0-GPU arrival at %v", a.ID, e, a.SubmitTime)
		}
	}
}
