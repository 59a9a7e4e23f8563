package sim

import (
	"fmt"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/race"
	"themis/internal/workload"
)

// allocProbeSim builds a simulator in the steady state the zero-alloc
// contract covers: every app has arrived, the cluster is saturated (the
// policy has nothing to offer, so rounds skip straight through scheduling),
// leases are effectively eternal, and every job has enough remaining work
// that nothing completes during the measurement. What is left per round is
// the pure event-core machinery: event-heap maintenance, due-lease and
// next-event discovery, tuner dirty checks, progress integration and interval
// accounting.
func allocProbeSim(t testing.TB) *Simulator {
	t.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 16, GPUs: 4, SlotSize: 2, GPU: cluster.GPUTypeP100}},
		MachinesPerRack: 8,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	apps := make([]*workload.App, n)
	for i := 0; i < n; i++ {
		id := workload.AppID(fmt.Sprintf("alloc-%05d", i))
		j := workload.NewJob(id, 0, 1e9, 4) // never completes within the probe
		j.Seed = int64(i)
		apps[i] = workload.NewApp(id, 0, placement.ResNet50, []*workload.Job{j})
	}
	s, err := New(Config{
		Topology:        topo,
		Apps:            apps,
		Policy:          benchPolicy{},
		LeaseDuration:   1e9, // no expiries during the probe
		RestartOverhead: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// probeRound runs one full decision-point round, exactly as Run's loop does.
func probeRound(t testing.TB, s *Simulator) {
	s.processArrivals()
	s.processFailures()
	if err := s.expireLeases(s.leases.Expire(s.now + timeEps)); err != nil {
		t.Fatal(err)
	}
	s.runTuners()
	s.finishApps()
	if _, err := s.schedule(); err != nil {
		t.Fatal(err)
	}
	s.advanceTo(s.now + 1e-3)
}

// Steady-state event processing must not allocate: once the active set is
// established and the cluster saturated, a decision-point round is 0
// allocs/op. This is the sim half of the PR's allocation contract
// (TestBinaryDecodeZeroAlloc in internal/trace is the other half); CI runs
// both as a distinct step so a regression names the hot path it landed in.
func TestEventCoreZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	s := allocProbeSim(t)
	// Warm up: arrivals, the saturating scheduling round, and enough further
	// rounds for every scratch buffer and the interval accounting's cached
	// fragmentation snapshot to reach steady-state capacity.
	for i := 0; i < 64; i++ {
		probeRound(t, s)
	}
	if free := s.cs.TotalFree(); free != 0 {
		t.Fatalf("probe cluster not saturated after warmup: %d GPUs free", free)
	}
	if len(s.active) == 0 {
		t.Fatal("probe has no active apps after warmup")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		probeRound(t, s)
	})
	if allocs != 0 {
		t.Errorf("steady-state event round allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFragSnapshotZeroAlloc pins the fragmentation snapshot an interval takes
// after an allocation change: the per-level free counts live on the Result
// and are cleared per snapshot, so a dirty interval allocates nothing once
// they have seen every rack and domain.
func TestFragSnapshotZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	topo := twoDomainSimTopo(t)
	cs := cluster.NewState(topo)
	if err := cs.Grant("a", cluster.Alloc{0: 1, 2: 4}); err != nil {
		t.Fatal(err)
	}
	r := newResult(Config{Topology: topo, Policy: fifoPolicy{}})
	now := 0.0
	dirtyInterval := func() {
		r.fragDirty = true
		r.noteInterval(now, now+1, cs, nil)
		now++
	}
	dirtyInterval()
	if allocs := testing.AllocsPerRun(100, dirtyInterval); allocs != 0 {
		t.Errorf("a dirty interval's fragmentation snapshot allocates %.1f objects/op, want 0", allocs)
	}
	if want := topo.TotalGPUs() - 5; r.frag.freeGPUs != want {
		t.Errorf("snapshot free GPUs = %d, want %d", r.frag.freeGPUs, want)
	}
}

// TestGrantPathZeroAlloc pins the simulator's side of a grant: an allocation
// change refills the app's Held through HeldInto and each round refills the
// simulator's free vector through FreeVectorInto, so once both maps have held
// the largest vector they see, neither allocates. A grant onto the app's
// holding and its release, each followed by the change's re-split, run at 0
// allocs/op together with the round's free vector.
func TestGrantPathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	topo := simTopo(t, 8, 4, 4)
	cs := cluster.NewState(topo)
	var scratch splitScratch
	st := newAppState(simApp("a", 0, placement.VGG16, 6, 100), fifoTuner{}, topo, &scratch)
	if err := cs.Grant("a", cluster.Alloc{0: 4, 5: 3}); err != nil {
		t.Fatal(err)
	}
	extra := cluster.Alloc{1: 4, 2: 3, 3: 1, 4: 4, 6: 2, 7: 4}
	var free cluster.Alloc
	change := func() {
		if err := cs.Grant("a", extra); err != nil {
			t.Fatal(err)
		}
		st.onAllocationChange(1, cs.HeldInto(st.Held, "a"), 0.5)
		free = cs.FreeVectorInto(free)
		if err := cs.Release("a", extra); err != nil {
			t.Fatal(err)
		}
		st.onAllocationChange(2, cs.HeldInto(st.Held, "a"), 0.5)
		free = cs.FreeVectorInto(free)
	}
	change()
	if allocs := testing.AllocsPerRun(200, change); allocs != 0 {
		t.Errorf("a warmed grant, release and free vector allocate %.1f objects/op, want 0", allocs)
	}
	if want := (cluster.Alloc{0: 4, 5: 3}); !st.Held.Equal(want) || len(st.Held) != len(want) || st.heldTotal != 7 {
		t.Errorf("Held = %v (total %d), want %v", st.Held, st.heldTotal, want)
	}
	if want := cs.FreeVector(); !free.Equal(want) || len(free) != len(want) {
		t.Errorf("free vector = %v, want %v", free, want)
	}
}
