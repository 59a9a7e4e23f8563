package sim

import (
	"context"
	"math"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/workload"
)

func TestFailureRevokesGPUsAndRecovers(t *testing.T) {
	// A single machine that fails at t=10 for 30 minutes while the only app
	// runs on it: the app must lose its GPUs, wait out the failure, and
	// still finish once the machine recovers.
	topo := simTopo(t, 1, 4, 1)
	app := simApp("a", 0, placement.ResNet50, 1, 200)
	s, err := New(Config{
		Topology:      topo,
		Apps:          []*workload.App{app},
		Policy:        fifoPolicy{},
		LeaseDuration: 20,
		Failures:      []Failure{{Time: 10, Machine: 0, Duration: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished()) != 1 {
		t.Fatal("app did not finish despite machine recovery")
	}
	// The failure must show up as an allocation drop in the timeline at t=10.
	sawDrop := false
	for _, e := range res.TimelineFor("a") {
		if e.Time >= 10 && e.Time < 11 && e.GPUs < 4 {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Errorf("timeline shows no allocation drop at the failure: %v", res.TimelineFor("a"))
	}
	// Completion is delayed by roughly the 30-minute outage beyond the
	// unfailed ideal of 50 minutes on 4 GPUs.
	if res.Apps[0].CompletionTime <= 75 {
		t.Errorf("completion %v should be delayed by the 30-minute outage", res.Apps[0].CompletionTime)
	}
}

// fixedPolicy grants each app its allocation whenever it is asked.
type fixedPolicy map[workload.AppID]cluster.Alloc

func (fixedPolicy) Name() string { return "fixed-test" }

func (p fixedPolicy) Allocate(float64, cluster.Alloc, *View) (map[workload.AppID]cluster.Alloc, error) {
	out := make(map[workload.AppID]cluster.Alloc, len(p))
	for id, a := range p {
		out[id] = a.Clone()
	}
	return out, nil
}

// TestFailureRevokesEveryAppOnTheMachine fails a machine holding GPUs of two
// apps: each loses exactly its GPUs there, its Held matches the cluster state
// and the sum of its leases left in the book, and the timeline records one
// event per revoked app at the failure time. An app holding GPUs only on
// another machine keeps them.
func TestFailureRevokesEveryAppOnTheMachine(t *testing.T) {
	const failAt = 5
	var apps []*workload.App
	for _, id := range []string{"a", "b", "c"} {
		apps = append(apps, simApp(id, 0, placement.ResNet50, 1, 1000))
	}
	s, err := New(Config{
		Topology:      simTopo(t, 2, 4, 2),
		Apps:          apps,
		Policy:        fixedPolicy{"a": {0: 2}, "b": {0: 2, 1: 1}, "c": {1: 2}},
		LeaseDuration: 20,
		Failures:      []Failure{{Time: failAt, Machine: 0, Duration: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.processArrivals()
	if _, err := s.schedule(); err != nil {
		t.Fatal(err)
	}
	var revoked []string
	for _, app := range s.cs.Apps() {
		if s.cs.Held(app)[0] > 0 {
			revoked = append(revoked, app)
		}
	}
	if len(revoked) < 2 {
		t.Fatalf("machine 0 holds GPUs of %v; the fixture needs two apps or more there", revoked)
	}
	s.advanceTo(failAt)
	s.processFailures()
	for _, app := range revoked {
		st := s.lookup(workload.AppID(app))
		leased := cluster.NewAlloc()
		for _, l := range bookLeases(&s.leases) {
			if l.App == st.App.ID {
				leased.Credit(l.Alloc)
			}
		}
		if held := s.cs.Held(app); held[0] != 0 || !st.Held.Equal(held) || !leased.Equal(held) {
			t.Errorf("%s after the failure: Held %v, cluster state %v, leases %v", app, st.Held, held, leased)
		}
	}
	if held := s.cs.Held("c"); !held.Equal(cluster.Alloc{1: 2}) {
		t.Errorf("c holds %v after machine 0 failed, want its GPUs on machine 1", held)
	}
	events := map[workload.AppID]int{}
	for _, e := range s.result.Timeline {
		if e.Time == failAt {
			events[e.App]++
		}
	}
	if len(events) != len(revoked) {
		t.Errorf("timeline events at the failure: %v, want one for each of %v", events, revoked)
	}
	for _, app := range revoked {
		if n := events[workload.AppID(app)]; n != 1 {
			t.Errorf("%d timeline events for %s at the failure, want 1", n, app)
		}
	}
}

func TestFailureOfIdleMachineIsHarmless(t *testing.T) {
	topo := simTopo(t, 2, 4, 2)
	app := simApp("a", 0, placement.ResNet50, 1, 40)
	s, err := New(Config{
		Topology:      topo,
		Apps:          []*workload.App{app},
		Policy:        fifoPolicy{},
		LeaseDuration: 20,
		Failures:      []Failure{{Time: 1, Machine: 1, Duration: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished()) != 1 {
		t.Error("failure of an unused machine should not block completion")
	}
}

func TestPermanentFailureShrinksCluster(t *testing.T) {
	// Single machine fails permanently while the only app runs: the app can
	// never finish, and the run must still terminate at the horizon.
	topo := simTopo(t, 1, 4, 1)
	app := simApp("a", 0, placement.ResNet50, 1, 200)
	s, err := New(Config{
		Topology:      topo,
		Apps:          []*workload.App{app},
		Policy:        fifoPolicy{},
		LeaseDuration: 10,
		Horizon:       300,
		Failures:      []Failure{{Time: 5, Machine: 0, Duration: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished()) != 0 {
		t.Error("app finished despite its only machine failing permanently")
	}
}

func TestConfigRejectsMalformedFailures(t *testing.T) {
	topo := simTopo(t, 2, 4, 2)
	cases := []struct {
		name string
		f    Failure
		ok   bool
	}{
		{"valid", Failure{Time: 5, Machine: 1, Duration: 10}, true},
		{"permanent", Failure{Time: 5, Machine: 0, Duration: 0}, true},
		{"at time zero", Failure{Time: 0, Machine: 0, Duration: 10}, true},
		{"machine past the topology", Failure{Time: 5, Machine: 9999, Duration: 10}, false},
		{"machine just past the topology", Failure{Time: 5, Machine: 2, Duration: 10}, false},
		{"negative machine", Failure{Time: 5, Machine: -1, Duration: 10}, false},
		{"NaN time", Failure{Time: math.NaN(), Machine: 0, Duration: 10}, false},
		{"infinite time", Failure{Time: math.Inf(1), Machine: 0, Duration: 10}, false},
		{"negative time", Failure{Time: -1, Machine: 0, Duration: 10}, false},
		{"NaN duration", Failure{Time: 5, Machine: 0, Duration: math.NaN()}, false},
		{"infinite duration", Failure{Time: 5, Machine: 0, Duration: math.Inf(1)}, false},
		{"negative duration", Failure{Time: 5, Machine: 0, Duration: -10}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(Config{
				Topology: topo,
				Apps:     []*workload.App{simApp("a", 0, placement.ResNet50, 1, 40)},
				Policy:   fifoPolicy{},
				Failures: []Failure{tc.f},
			})
			if (err == nil) != tc.ok {
				t.Errorf("New with %+v: err = %v, want ok = %v", tc.f, err, tc.ok)
			}
		})
	}
}

func TestClusterOfflineAccounting(t *testing.T) {
	topo := simTopo(t, 2, 4, 2)
	cs := cluster.NewState(topo)
	if err := cs.Grant("a", cluster.Alloc{0: 2}); err != nil {
		t.Fatal(err)
	}
	cs.SetOffline(0, true)
	if cs.FreeOn(0) != 0 {
		t.Errorf("offline machine should offer no GPUs, got %d", cs.FreeOn(0))
	}
	if cs.TotalFree() != 4 {
		t.Errorf("TotalFree = %d, want 4 (only machine 1)", cs.TotalFree())
	}
	if got := cs.FreeVector(); got[0] != 0 || got[1] != 4 {
		t.Errorf("FreeVector = %v", got)
	}
	// Used GPUs are still accounted even while offline.
	if cs.TotalUsed() != 2 {
		t.Errorf("TotalUsed = %d, want 2", cs.TotalUsed())
	}
	if err := cs.Grant("b", cluster.Alloc{0: 1}); err == nil {
		t.Error("granting on an offline machine should fail")
	}
	cs.SetOffline(0, false)
	if cs.FreeOn(0) != 2 {
		t.Errorf("after recovery FreeOn(0) = %d, want 2", cs.FreeOn(0))
	}
	// Unknown machines are ignored.
	cs.SetOffline(99, true)
	if cs.FreeOn(0) != 2 || cs.FreeOn(1) != 4 {
		t.Error("marking an unknown machine offline changed a known one")
	}
}

func TestPlacementConstraintBlocksSpreadAllocations(t *testing.T) {
	// A job that needs at least 4 co-located GPUs makes no progress on a
	// 2+2 split but runs fine on a single machine.
	topo := simTopo(t, 2, 4, 2)
	app := simApp("a", 0, placement.ResNet50, 1, 100)
	app.Jobs[0].MinGPUsPerMachine = 4
	st := newAppState(app, fifoTuner{}, topo, &splitScratch{})

	st.onAllocationChange(0, cluster.Alloc{0: 2, 1: 2}, 0)
	st.advance(0, 10)
	if app.Jobs[0].DoneWork != 0 {
		t.Errorf("constrained job progressed on a violating allocation: %v", app.Jobs[0].DoneWork)
	}
	if !math.IsInf(st.proj, 1) {
		t.Error("violating allocation should not produce a completion event")
	}

	st.onAllocationChange(10, cluster.Alloc{0: 4}, 0)
	st.advance(10, 20)
	if app.Jobs[0].DoneWork == 0 {
		t.Error("constrained job should progress on a machine-local allocation")
	}
}

func TestSatisfiesMinPerMachine(t *testing.T) {
	cases := []struct {
		alloc cluster.Alloc
		min   int
		want  bool
	}{
		{cluster.Alloc{0: 4}, 4, true},
		{cluster.Alloc{0: 2, 1: 2}, 4, false},
		{cluster.Alloc{0: 4, 1: 4}, 4, true},
		{cluster.Alloc{0: 1}, 0, true},
		{cluster.NewAlloc(), 4, true},
	}
	for _, c := range cases {
		if got := placement.Satisfies(nil, c.alloc, placement.Constraint{MinGPUsPerMachine: c.min}); got != c.want {
			t.Errorf("Satisfies(%v, floor %d) = %v, want %v", c.alloc, c.min, got, c.want)
		}
	}
}
