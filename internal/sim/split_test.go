package sim

// Tests pinning the simulator's use of the shared job split
// (placement.Picker.Split): it must assign what the simulator's own split
// assigned before there was a shared one, retain nothing between allocation
// changes but the split itself, and allocate nothing once warm.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/race"
	"themis/internal/workload"
)

// refSplitHeld is AppState.splitHeld as it was before the job split moved
// behind internal/placement, verbatim: its own exchange sort over
// RemainingWork, a clone of the holding debited by value, a fresh map per job.
func refSplitHeld(st *AppState, held cluster.Alloc) map[workload.JobID]cluster.Alloc {
	split := make(map[workload.JobID]cluster.Alloc)
	active := st.App.AppendActiveJobs(nil)
	if len(active) == 0 || held.Total() == 0 {
		return split
	}
	order := make([]*workload.Job, len(active))
	copy(order, active)
	for i := 0; i < len(order); i++ {
		for k := i + 1; k < len(order); k++ {
			if order[k].RemainingWork() < order[i].RemainingWork() {
				order[i], order[k] = order[k], order[i]
			}
		}
	}
	remaining := held.Clone()
	var picker placement.Picker
	for _, j := range order {
		want := j.MaxParallelism
		if want <= 0 {
			want = j.GangSize
		}
		c, ok := j.PlacementConstraint(st.topo)
		if !ok {
			// Unresolvable domain affinity: the job can never run here and is
			// rejected at arrival; assign it nothing meanwhile.
			continue
		}
		picked := picker.PickInto(nil, st.topo, remaining, nil, want)
		if !c.IsZero() && !placement.Satisfies(st.topo, picked, c) {
			picked = placement.PickConstrained(st.topo, remaining, cluster.NewAlloc(), want, c)
		}
		if picked.Total() == 0 {
			continue
		}
		split[j.ID] = picked
		if err := remaining.Debit(picked); err != nil {
			panic("sim: resplit internal inconsistency: " + err.Error())
		}
	}
	return split
}

// refUsableWith is AppState.usableWith over refSplitHeld, verbatim.
func refUsableWith(st *AppState, extra cluster.Alloc) bool {
	split := refSplitHeld(st, st.Held.Add(extra))
	for _, j := range st.App.AppendActiveJobs(nil) {
		alloc := split[j.ID]
		if alloc.Total() == 0 {
			continue
		}
		c, ok := j.PlacementConstraint(st.topo)
		if !ok {
			continue
		}
		if placement.Satisfies(st.topo, alloc, c) {
			return true
		}
	}
	return false
}

// fabricSimTopo builds 3 fabric domains × 2 racks × 2 machines, 4 GPUs each,
// one domain on a second GPU flavor.
func fabricSimTopo(t *testing.T) *cluster.Topology {
	t.Helper()
	var machines []cluster.Machine
	for i := 0; i < 12; i++ {
		gpu := cluster.GPUTypeP100
		if i/4 == 2 {
			gpu = cluster.GPUTypeV100
		}
		machines = append(machines, cluster.Machine{
			ID: cluster.MachineID(i), Rack: cluster.RackID(i / 2), Domain: cluster.DomainID(i / 4),
			NumGPUs: 4, SlotSize: 2, GPU: gpu,
		})
	}
	topo, err := cluster.NewTopology(machines)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// randomSplitApp builds an app of 1–9 jobs with mixed gangs, parallelism
// limits, progress (work left ties included), finished and killed jobs, and
// every kind of placement constraint — one in eight domain affinities names a
// domain the topology does not have.
func randomSplitApp(rng *rand.Rand, id string) *workload.App {
	app := simApp(id, 0, placement.VGG16, 1+rng.Intn(9), 100)
	for _, j := range app.Jobs {
		j.GangSize = 1 << rng.Intn(3)
		j.MaxParallelism = j.GangSize * rng.Intn(3) // 0 falls back to the gang size
		j.DoneWork = float64(rng.Intn(4)) * 20
		switch rng.Intn(8) {
		case 0:
			j.Killed = true
		case 1:
			j.DoneAt = 1
		}
		if rng.Intn(3) == 0 {
			j.MinGPUsPerMachine = 1 + rng.Intn(3)
		}
		if rng.Intn(3) == 0 {
			j.MaxMachines = 1 + rng.Intn(2)
		}
		if rng.Intn(4) == 0 {
			j.DomainAffinity = fmt.Sprintf("domain-%d", rng.Intn(3))
			if rng.Intn(8) == 0 {
				j.DomainAffinity = "no-such-domain"
			}
		}
		if rng.Intn(5) == 0 {
			j.FlavorAffinity = string([]cluster.GPUType{cluster.GPUTypeP100, cluster.GPUTypeV100}[rng.Intn(2)])
		}
	}
	return app
}

// randomHolding draws an allocation over topo.
func randomHolding(rng *rand.Rand, topo *cluster.Topology, density int) cluster.Alloc {
	held := cluster.NewAlloc()
	for m := 0; m < topo.NumMachines(); m++ {
		if rng.Intn(density) == 0 {
			held[cluster.MachineID(m)] = 1 + rng.Intn(topo.Machine(cluster.MachineID(m)).NumGPUs)
		}
	}
	return held
}

// TestSharedSplitMatchesSimulatorSplit compares resplit and usableWith, over
// seeded random apps, holdings and constraint sets on a flat and a fabric
// topology, with the simulator's pre-change splitHeld. One simulator-wide
// scratch serves every app in turn, as in a run.
func TestSharedSplitMatchesSimulatorSplit(t *testing.T) {
	for name, topo := range map[string]*cluster.Topology{"flat": simTopo(t, 12, 4, 4), "fabric": fabricSimTopo(t)} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			var scratch splitScratch
			for trial := 0; trial < 3000; trial++ {
				app := randomSplitApp(rng, fmt.Sprintf("a%d", trial))
				st := newAppState(app, fifoTuner{}, topo, &scratch)
				// Two allocation changes per app: the second refills the
				// app's own share maps in place.
				for change := 0; change < 2; change++ {
					held := randomHolding(rng, topo, 2+rng.Intn(3))
					st.onAllocationChange(0, held, 0)
					want := refSplitHeld(st, held)
					for _, j := range app.Jobs {
						if got := jobAlloc(st, j.ID); !got.Equal(want[j.ID]) {
							t.Fatalf("trial %d: job %s holds %v, the simulator's split gave %v (held %v)", trial, j.ID, got, want[j.ID], held)
						}
					}
					extra := randomHolding(rng, topo, 4)
					if got, want := st.usableWith(extra), refUsableWith(st, extra); got != want {
						t.Fatalf("trial %d: usableWith(%v) = %t, the simulator's split says %t (held %v)", trial, extra, got, want, held)
					}
					for _, j := range app.Jobs {
						if !jobAlloc(st, j.ID).Equal(want[j.ID]) {
							t.Fatalf("trial %d: the what-if split disturbed job %s's share", trial, j.ID)
						}
					}
				}
			}
		})
	}
}

// TestResplitZeroAlloc: once an app's share maps and the simulator's split
// scratch are warm, an allocation change re-splits without allocating.
func TestResplitZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	topo := simTopo(t, 8, 4, 4)
	app := simApp("a", 0, placement.VGG16, 6, 100)
	for i, j := range app.Jobs {
		j.DoneWork = float64(i%3) * 10
		if i%2 == 0 {
			j.MinGPUsPerMachine = 2
		} else {
			j.MaxMachines = 1
		}
	}
	var scratch splitScratch
	st := newAppState(app, fifoTuner{}, topo, &scratch)
	small, large := cluster.Alloc{0: 4, 1: 1, 5: 3}, cluster.Alloc{0: 4, 1: 4, 2: 3, 3: 1, 4: 4, 6: 2, 7: 4}
	change := func() {
		st.onAllocationChange(1, large, 0.5)
		st.onAllocationChange(2, small, 0.5)
	}
	change()
	if allocs := testing.AllocsPerRun(200, change); allocs != 0 {
		t.Errorf("a warmed allocation change allocates %.1f objects/op, want 0", allocs)
	}
}

// TestResplitAllocsPerApp: an app's first allocation change allocates its
// copy of the split (the per-job records and the log) and the runnable cache,
// three objects whatever the app's job count — no map or object per job. The
// simulator-wide scratch is warmed on the largest app first, as a run's
// earlier apps warm it; each measured change is a fresh app's first, holding
// the same 16 GPUs, with a third of its jobs under a per-machine floor.
func TestResplitAllocsPerApp(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; the allocation contract is checked without -race")
	}
	const (
		runs   = 20
		bound  = 3 // the records, the log and the runnable cache
		unfeed = 2 // the floor's jobs need 2 GPUs per machine
	)
	topo := simTopo(t, 8, 4, 4)
	held := cluster.Alloc{0: 4, 1: 3, 4: 4, 6: 1, 7: 4}
	var scratch splitScratch
	newState := func(n int) *AppState {
		app := simApp(fmt.Sprintf("a%d", n), 0, placement.VGG16, n, 100)
		for i, j := range app.Jobs {
			j.DoneWork = float64(i%7) * 10
			if i%3 == 0 {
				j.MinGPUsPerMachine = unfeed
			}
		}
		return newAppState(app, fifoTuner{}, topo, &scratch)
	}
	newState(1024).onAllocationChange(0, held, 0)
	counts := map[int]float64{}
	for _, n := range []int{16, 128, 1024} {
		states := make([]*AppState, runs+1)
		for k := range states {
			states[k] = newState(n)
		}
		next := 0
		counts[n] = testing.AllocsPerRun(runs, func() {
			states[next].onAllocationChange(0, held, 0)
			next++
		})
		if len(states[0].runnable) == 0 {
			t.Fatalf("%d jobs: no job runs on %v", n, held)
		}
	}
	t.Logf("objects per first allocation change, by job count: %v", counts)
	for n, c := range counts {
		if c > bound || c != counts[16] {
			t.Errorf("an app of %d jobs allocates %.0f objects on its first allocation change; want at most %d, and as many as an app of 16 jobs (%.0f)",
				n, c, bound, counts[16])
		}
	}
}

// TestResultRetainsNoAppState: the Result a finished run returns holds records
// and a timeline, not the run's working state — no AppState (with its job
// split and heap entries) may stay reachable from it.
func TestResultRetainsNoAppState(t *testing.T) {
	s, err := New(Config{
		Topology: simTopo(t, 4, 4, 2),
		Apps:     equivalenceWorkload(t, 3, 6),
		Policy:   fifoPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A cleanup, not a finalizer: a cleanup still runs if the AppState sits
	// in a reference cycle, where a finalizer never would.
	collected := make(chan struct{})
	runtime.AddCleanup(s.apps[0], func(done chan struct{}) { close(done) }, collected)
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s = nil
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(res)
			return
		case <-deadline:
			t.Fatalf("an AppState is still reachable from the returned Result (%d app records)", len(res.Apps))
		case <-time.After(10 * time.Millisecond):
		}
	}
}
