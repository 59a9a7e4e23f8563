package placement

import (
	"fmt"
	"math/rand"
	"testing"

	"themis/internal/cluster"
)

// BenchmarkDraw measures one locality-best draw on a reused Picker — PickInto,
// so each op draws from a fresh copy of the same partly busy free vector — on
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
