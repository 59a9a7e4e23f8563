package placement

import (
	"fmt"
	"math/rand"
	"testing"

	"themis/internal/cluster"
)

// BenchmarkDraw measures one locality-best draw on a reused Picker — PickInto,
// so each op loads the same partly busy free vector afresh and draws — on
// sim and sim-fabric, unanchored and anchored in one rack, at 1, 4, 16 and 64
// GPUs.
func BenchmarkDraw(b *testing.B) {
	for _, nt := range []namedTopo{{"sim", cluster.SimulationCluster()}, {"sim-fabric", simFabricTopo(b)}} {
		topo := nt.topo
		rng := rand.New(rand.NewSource(1))
		free := cluster.NewAlloc()
		for m := range cluster.MachineID(topo.NumMachines()) {
			free[m] = rng.Intn(topo.Machine(m).NumGPUs + 1)
		}
		for _, anchor := range []struct {
			name  string
			alloc cluster.Alloc
		}{{"empty", nil}, {"anchored", cluster.Alloc{20: 2, 21: 1}}} {
			for _, size := range []int{1, 4, 16, 64} {
				b.Run(fmt.Sprintf("%s/%s/%d", nt.name, anchor.name, size), func(b *testing.B) {
					var p Picker
					dst := cluster.NewAlloc()
					b.ReportAllocs()
					for b.Loop() {
						p.PickInto(dst, topo, free, anchor.alloc, size)
					}
				})
			}
		}
	}
}

// BenchmarkSplit measures one job split as a bid row runs it: order a 98-job
// app's jobs (few distinct work-left values, a fifth of the jobs finished)
// and split a partly busy sim-cluster pool, loaded afresh, among them, for a
// 4-GPU and a 48-GPU budget.
func BenchmarkSplit(b *testing.B) {
	topo := cluster.SimulationCluster()
	rng := rand.New(rand.NewSource(1))
	free := cluster.NewAlloc()
	for m := range cluster.MachineID(topo.NumMachines()) {
		free[m] = rng.Intn(topo.Machine(m).NumGPUs + 1)
	}
	jobs := make([]SplitJob, 98)
	for i := range jobs {
		if rng.Intn(5) > 0 {
			jobs[i] = SplitJob{Want: 1 << rng.Intn(4), WorkLeft: 50 * float64(1+rng.Intn(6))}
		}
	}
	for _, budget := range []int{4, 48} {
		b.Run(fmt.Sprint(budget), func(b *testing.B) {
			var p Picker
			q := SplitQueue{Jobs: jobs}
			b.ReportAllocs()
			for b.Loop() {
				q.Reset()
				p.Load(topo, free)
				p.Split(budget, &q, nil)
			}
		})
	}
}
