package sim

import (
	"context"
	"testing"

	"themis/internal/cluster"
	"themis/internal/pack"
	"themis/internal/placement"
	"themis/internal/topology"
	"themis/internal/workload"
)

// spreadPolicy grants the first app with demand one GPU per machine,
// round-robin — the tiresias-style shape that strands min-per-machine jobs.
type spreadPolicy struct{}

func (spreadPolicy) Name() string { return "spread-test" }

func (spreadPolicy) Allocate(now float64, free cluster.Alloc, view *View) (map[workload.AppID]cluster.Alloc, error) {
	for _, st := range view.Apps {
		want := st.UnmetDemand()
		if want <= 0 {
			continue
		}
		alloc := cluster.NewAlloc()
		for _, m := range free.Machines() {
			if want == 0 {
				break
			}
			if free[m] > 0 {
				alloc[m]++
				want--
			}
		}
		if alloc.Total() == 0 {
			continue
		}
		return map[workload.AppID]cluster.Alloc{st.App.ID: alloc}, nil
	}
	return nil, nil
}

// twoDomainSimTopo builds 2 fabric domains × 2 machines × 4 GPUs.
func twoDomainSimTopo(t *testing.T) *cluster.Topology {
	t.Helper()
	var machines []cluster.Machine
	for i := 0; i < 4; i++ {
		machines = append(machines, cluster.Machine{
			ID:       cluster.MachineID(i),
			Rack:     cluster.RackID(i / 2),
			Domain:   cluster.DomainID(i / 2),
			NumGPUs:  4,
			SlotSize: 2,
			GPU:      cluster.GPUTypeP100,
		})
	}
	topo, err := cluster.NewTopology(machines)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestConstrainedGrantRepaired: a policy that offers a min-2-per-machine job
// one GPU per machine would, before the grant repair, strand the app forever
// (the tiresias loop). The repair must re-pick a usable shape so the
// horizonless run terminates with the app finished.
func TestConstrainedGrantRepaired(t *testing.T) {
	topo := simTopo(t, 4, 4, 2)
	job := workload.NewJob("a", 0, 40, 2)
	job.MinGPUsPerMachine = 2
	app := workload.NewApp("a", 0, placement.ResNet50, []*workload.Job{job})
	s, err := New(Config{Topology: topo, Apps: []*workload.App{app}, Policy: spreadPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].FinishTime == workload.NotFinished {
		t.Error("constrained app never finished; grant repair did not produce a usable shape")
	}
}

// TestInfeasibleJobsRejectedAtArrival: constraints no allocation on the
// topology can satisfy (floor above machine capacity, unknown domain name)
// must kill the job at arrival instead of scheduling it forever.
func TestInfeasibleJobsRejectedAtArrival(t *testing.T) {
	topo := simTopo(t, 2, 4, 2)
	tooBig := workload.NewJob("a", 0, 40, 2)
	tooBig.MinGPUsPerMachine = 8 // machines have 4 GPUs
	noDomain := workload.NewJob("b", 0, 40, 2)
	noDomain.DomainAffinity = "nonexistent-pod"
	apps := []*workload.App{
		workload.NewApp("a", 0, placement.ResNet50, []*workload.Job{tooBig}),
		workload.NewApp("b", 0, placement.ResNet50, []*workload.Job{noDomain}),
	}
	s, err := New(Config{Topology: topo, Apps: apps, Policy: fifoPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Apps {
		if rec.JobsKilled != 1 {
			t.Errorf("app %s: %d jobs killed, want 1 (infeasible constraint rejected at arrival)", rec.App, rec.JobsKilled)
		}
	}
}

// TestPackerRematerialisesGrants: with the pack engine configured, a policy
// that scatters an app's GPUs across domains is re-materialised onto a packed
// shape, which shows up as a much better placement score.
func TestPackerRematerialisesGrants(t *testing.T) {
	run := func(packer Packer) AppRecord {
		topo := twoDomainSimTopo(t)
		app := simApp("a", 0, placement.VGG16, 1, 60)
		s, err := New(Config{Topology: topo, Apps: []*workload.App{app}, Policy: spreadPolicy{}, Packer: packer})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Apps[0]
	}
	spread := run(nil)
	packed := run(pack.New(topology.Lift(twoDomainSimTopo(t))))
	if packed.FinishTime == workload.NotFinished {
		t.Fatal("packed run did not finish")
	}
	if packed.PlacementScore <= spread.PlacementScore {
		t.Errorf("packer placement score %v not better than policy's own spread %v",
			packed.PlacementScore, spread.PlacementScore)
	}
	if packed.PlacementScore < 0.9 {
		t.Errorf("packer placement score = %v, want ≥0.9 (gang packed onto one machine)", packed.PlacementScore)
	}
}

// TestFragmentationStatsPopulated: every run must surface the time-weighted
// free-pool fragmentation summary, with the per-level largest blocks ordered
// machine ≤ rack ≤ domain.
func TestFragmentationStatsPopulated(t *testing.T) {
	topo := twoDomainSimTopo(t)
	apps := []*workload.App{
		simApp("a", 0, placement.ResNet50, 2, 60),
		simApp("b", 5, placement.VGG16, 1, 40),
	}
	s, err := New(Config{Topology: topo, Apps: apps, Policy: fifoPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Fragmentation
	if fr.MeanFreeGPUs <= 0 {
		t.Errorf("mean free GPUs = %v, want > 0 (16-GPU cluster is never fully busy here)", fr.MeanFreeGPUs)
	}
	if fr.MeanLargestMachineBlock <= 0 || fr.MeanLargestRackBlock < fr.MeanLargestMachineBlock ||
		fr.MeanLargestDomainBlock < fr.MeanLargestRackBlock {
		t.Errorf("per-level largest blocks not ordered: machine=%v rack=%v domain=%v",
			fr.MeanLargestMachineBlock, fr.MeanLargestRackBlock, fr.MeanLargestDomainBlock)
	}
	if fr.MeanScore < 0 || fr.MeanScore > 1 || fr.PeakScore < fr.MeanScore {
		t.Errorf("fragmentation score out of range: mean=%v peak=%v", fr.MeanScore, fr.PeakScore)
	}
}

// TestFragSnapshotLevels pins the snapshot's per-level arithmetic on a fleet
// where racks and domains differ: domain 0 holds racks 0 (machines 0, 1) and
// 1 (machine 2), domain 1 holds rack 2 (machine 3); 4 GPUs each.
func TestFragSnapshotLevels(t *testing.T) {
	racks, domains := []cluster.RackID{0, 0, 1, 2}, []cluster.DomainID{0, 0, 0, 1}
	var machines []cluster.Machine
	for i := range racks {
		machines = append(machines, cluster.Machine{
			ID: cluster.MachineID(i), Rack: racks[i], Domain: domains[i], NumGPUs: 4, SlotSize: 2,
		})
	}
	topo, err := cluster.NewTopology(machines)
	if err != nil {
		t.Fatal(err)
	}
	cs := cluster.NewState(topo)
	r := newResult(Config{Topology: topo, Policy: fifoPolicy{}})
	// Free {0:1, 1:3, 2:2, 3:4}: racks 4/2/4, domains 6/4.
	if err := cs.Grant("a", cluster.Alloc{0: 3, 1: 1, 2: 2}); err != nil {
		t.Fatal(err)
	}
	want := fragSnapshot{freeGPUs: 10, largestMachine: 4, largestRack: 4, largestDomain: 6, score: 1 - 4.0/10}
	if got := r.snapshotFrag(cs); got != want {
		t.Errorf("snapshot = %+v, want %+v", got, want)
	}
}

// TestFragSnapshotBusyCluster pins that a fully busy cluster is not
// fragmented, including after a snapshot that was.
func TestFragSnapshotBusyCluster(t *testing.T) {
	topo := cluster.TestbedCluster()
	cs := cluster.NewState(topo)
	r := newResult(Config{Topology: topo, Policy: fifoPolicy{}})
	if got := r.snapshotFrag(cs); got.freeGPUs != topo.TotalGPUs() || got.largestMachine == 0 {
		t.Fatalf("idle snapshot = %+v, want all %d GPUs free", got, topo.TotalGPUs())
	}
	if err := cs.Grant("a", cs.FreeVector()); err != nil {
		t.Fatal(err)
	}
	if got := r.snapshotFrag(cs); got != (fragSnapshot{}) {
		t.Errorf("busy-cluster snapshot = %+v, want zero", got)
	}
}
