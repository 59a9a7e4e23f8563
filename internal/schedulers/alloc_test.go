package schedulers

import (
	"fmt"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/race"
	"themis/internal/sim"
	"themis/internal/workload"
)

// TestBaselineAllocateAllocs pins the baselines' grant path: the objects one
// Allocate call allocates do not grow with the number of chunks it grants.
// Each policy is warmed on the view, then offered a 4-chunk and a 64-chunk
// pool; beyond the smaller pool's count, the larger may spend at most
// perGrantedApp objects on each app it grants to (the app's result map and
// the growth of that map as it spans up to 16 machines, 6 objects on Go
// 1.24), never one per chunk.
func TestBaselineAllocateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; the allocation contract is checked without -race")
	}
	const (
		gang          = 4
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
