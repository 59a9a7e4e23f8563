package schedulers

import (
	"context"
	"fmt"
	"testing"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/placement"
	"themis/internal/race"
	"themis/internal/sim"
	"themis/internal/workload"
)

// TestBaselineAllocateAllocs pins the baselines' grant path: a warmed
// Allocate call allocates its result and nothing else. Each policy is warmed
// on the view, then offered a 4-chunk and a 64-chunk pool. The 4-chunk call,
// whose grants each sit on one machine, may spend only resultMap objects on
// its result map and perSmallGrant on each app it grants to (two each on Go
// 1.24): so no per-call picker, demand or service map, anchor copy, memo or
// app slice fits. Beyond that count, the 64-chunk call may spend at most
// perGrantedApp objects on each app it grants to (the growth of the app's
// result map as it spans up to 16 machines, 6 objects on Go 1.24), never one
// per chunk.
func TestBaselineAllocateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; the allocation contract is checked without -race")
	}
	const (
		gang          = 4
		resultMap     = 2
		perSmallGrant = 2
		perGrantedApp = 8
	)
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 16, GPUs: 16, SlotSize: 8}},
		MachinesPerRack: 4,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Four apps, each able to absorb the whole cluster, one already holding
	// GPUs so Gandiva's anchors start from a holding.
	view := &sim.View{Topo: topo}
	for a := 0; a < 4; a++ {
		id := workload.AppID(fmt.Sprintf("app%d", a))
		j := workload.NewJob(id, 0, 1000, gang)
		j.MaxParallelism = topo.TotalGPUs()
		j.TotalIterations = 1000
		held := cluster.NewAlloc()
		if a == 0 {
			held[0] = gang
		}
		app := workload.NewApp(id, float64(a), placement.ResNet50, []*workload.Job{j})
		view.Apps = append(view.Apps, &sim.AppState{App: app, Held: held})
	}
	pool := func(chunks int) cluster.Alloc {
		free := cluster.NewAlloc()
		for m := 0; chunks*gang > free.Total(); m++ {
			free[cluster.MachineID(m)] = min(16, chunks*gang-free.Total())
		}
		return free
	}
	small, large := pool(4), pool(64)
	for _, p := range []sim.Policy{NewGandiva(), NewTiresias(), NewSLAQ(), NewResourceFair()} {
		var apps [2]int
		var allocs [2]float64
		for k, free := range []cluster.Alloc{small, large} {
			grants, err := p.Allocate(0, free, view) // warm
			if err != nil {
				t.Fatal(err)
			}
			if got := sumGrants(grants); got != free.Total() {
				t.Fatalf("%s granted %d of a %d-GPU pool", p.Name(), got, free.Total())
			}
			apps[k] = len(grants)
			allocs[k] = testing.AllocsPerRun(20, func() {
				if _, err := p.Allocate(0, free, view); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s: %.0f objects granting 4 chunks to %d apps, %.0f granting 64 chunks to %d apps", p.Name(), allocs[0], apps[0], allocs[1], apps[1])
		if bound := float64(resultMap + perSmallGrant*apps[0]); allocs[0] > bound {
			t.Errorf("%s: %.0f objects granting 4 chunks to %d apps, over %.0f (the result map's %d plus %d per granted app): the call allocates scratch",
				p.Name(), allocs[0], apps[0], bound, resultMap, perSmallGrant)
		}
		if bound := allocs[0] + float64(perGrantedApp*apps[1]); allocs[1] > bound {
			t.Errorf("%s: %.0f objects granting 64 chunks to %d apps, over %.0f (the 4-chunk call's %.0f plus %d per granted app)",
				p.Name(), allocs[1], apps[1], bound, allocs[0], perGrantedApp)
		}
	}
}

func sumGrants(grants map[workload.AppID]cluster.Alloc) int {
	n := 0
	for _, a := range grants {
		n += a.Total()
	}
	return n
}

// TestSimulationAllocsPerJob is the whole-run allocation pin: a small seeded
// simulation — generating its 24 apps (243 jobs), building the simulator and
// running it to the end under each policy — allocates at most perJob objects
// per job. The bounds give about 1.5× headroom over what it measures on Go
// 1.24 (themis 9.6, the baselines 4.4–4.5 per job); with a map per job split
// share, per-call policy scratch and three objects per generated job it
// measured 16.3, and 10.5–11.7 for the baselines. It is what stops per-job or per-call scratch
// from coming back on any path of a run; the finer pins say where.
func TestSimulationAllocsPerJob(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; the allocation contract is checked without -race")
	}
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 16, GPUs: 4, SlotSize: 2}},
		MachinesPerRack: 4,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultGeneratorConfig()
	cfg.Seed, cfg.NumApps = 5, 24
	cfg.JobsPerAppMedian, cfg.MaxJobsPerApp = 8, 30
	cfg.DurationScale = 0.2
	apps, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for _, a := range apps {
		jobs += len(a.Jobs)
	}
	for _, pc := range []struct {
		name   string
		perJob float64
		policy func() sim.Policy
	}{
		{"themis", 15, func() sim.Policy { return mustThemis(t, core.DefaultConfig()) }},
		{"gandiva", 7, func() sim.Policy { return NewGandiva() }},
		{"tiresias", 7, func() sim.Policy { return NewTiresias() }},
		{"slaq", 7, func() sim.Policy { return NewSLAQ() }},
		{"resource-fair", 7, func() sim.Policy { return NewResourceFair() }},
	} {
		run := func() {
			apps, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sim.New(sim.Config{Topology: topo, Apps: apps, Policy: pc.policy()})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		perJob := testing.AllocsPerRun(3, run) / float64(jobs)
		t.Logf("%s: %.1f objects per job over %d jobs", pc.name, perJob, jobs)
		if perJob > pc.perJob {
			t.Errorf("%s: a run allocates %.1f objects per job, over %.0f", pc.name, perJob, pc.perJob)
		}
	}
}
