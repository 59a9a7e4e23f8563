package shard

import (
	"testing"

	"themis/internal/cluster"
)

func buildTopo(t *testing.T, specs []cluster.MachineSpec, perRack int) *cluster.Topology {
	t.Helper()
	topo, err := cluster.Config{MachineSpecs: specs, MachinesPerRack: perRack}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestSplitCoversClusterExactly(t *testing.T) {
	// 8 racks of 4 machines x 4 GPUs = 128 GPUs over 4 shards.
	topo := buildTopo(t, []cluster.MachineSpec{{Count: 32, GPUs: 4, SlotSize: 2}}, 4)
	parts, err := Split(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("got %d partitions, want 4", len(parts))
	}
	seen := make(map[cluster.MachineID]int)
	gpus := 0
	for i, p := range parts {
		if p.Index != i {
			t.Errorf("partition %d has Index %d", i, p.Index)
		}
		gpus += p.Topo.TotalGPUs()
		for local := 0; local < p.Machines(); local++ {
			gid, err := p.GlobalID(cluster.MachineID(local))
			if err != nil {
				t.Fatal(err)
			}
			seen[gid]++
			// Machine attributes must survive the re-numbering.
			if p.Topo.Machine(cluster.MachineID(local)).NumGPUs != topo.Machine(gid).NumGPUs {
				t.Errorf("partition %d machine %d lost its GPU count", i, local)
			}
		}
	}
	if gpus != topo.TotalGPUs() {
		t.Errorf("partition GPUs sum to %d, want %d", gpus, topo.TotalGPUs())
	}
	if len(seen) != topo.NumMachines() {
		t.Errorf("partitions cover %d machines, want %d", len(seen), topo.NumMachines())
	}
	for gid, n := range seen {
		if n != 1 {
			t.Errorf("machine %d appears in %d partitions", gid, n)
		}
	}
	// With whole racks per shard, GPU balance should be perfect here.
	for i, p := range parts {
		if p.Topo.TotalGPUs() != 32 {
			t.Errorf("partition %d has %d GPUs, want 32", i, p.Topo.TotalGPUs())
		}
	}
}

func TestSplitKeepsRacksTogether(t *testing.T) {
	topo := buildTopo(t, []cluster.MachineSpec{{Count: 12, GPUs: 8, SlotSize: 4}}, 3)
	parts, err := Split(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[cluster.RackID]int)
	for i, p := range parts {
		for local := 0; local < p.Machines(); local++ {
			gid, _ := p.GlobalID(cluster.MachineID(local))
			rack := topo.Machine(gid).Rack
			if prev, ok := owner[rack]; ok && prev != i {
				t.Errorf("rack %d split across partitions %d and %d", rack, prev, i)
			}
			owner[rack] = i
		}
	}
}

func TestSplitMachineGranularityFallback(t *testing.T) {
	// One rack, four machines, four shards: rack granularity cannot work, so
	// Split must fall back to assigning single machines.
	topo := buildTopo(t, []cluster.MachineSpec{{Count: 4, GPUs: 4, SlotSize: 2}}, 16)
	parts, err := Split(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if p.Machines() != 1 || p.Topo.TotalGPUs() != 4 {
			t.Errorf("partition %d: %d machines / %d GPUs, want 1 / 4", i, p.Machines(), p.Topo.TotalGPUs())
		}
	}
}

func TestSplitErrors(t *testing.T) {
	topo := buildTopo(t, []cluster.MachineSpec{{Count: 2, GPUs: 4, SlotSize: 2}}, 16)
	if _, err := Split(nil, 2); err == nil {
		t.Error("nil topology should error")
	}
	if _, err := Split(topo, 0); err == nil {
		t.Error("zero shards should error")
	}
	if _, err := Split(topo, 3); err == nil {
		t.Error("more shards than machines should error")
	}
}

func TestPartitionTranslation(t *testing.T) {
	topo := buildTopo(t, []cluster.MachineSpec{{Count: 8, GPUs: 4, SlotSize: 2}}, 2)
	parts, err := Split(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := parts[1]
	local := cluster.Alloc{0: 2, 1: 4}
	global := p.ToGlobal(local)
	if global.Total() != 6 {
		t.Fatalf("ToGlobal lost GPUs: %v", global)
	}
	for m, n := range local {
		g, err := p.GlobalID(m)
		if err != nil {
			t.Fatal(err)
		}
		if back, ok := p.LocalID(g); !ok || back != m || global[g] != n {
			t.Errorf("local %d -> global %d (%d GPUs) -> local %d, %v", m, g, global[g], back, ok)
		}
	}
	// A global machine owned by the other partition is not this one's.
	foreign, _ := parts[0].GlobalID(0)
	if _, ok := p.LocalID(foreign); ok {
		t.Error("LocalID should reject machines outside the partition")
	}
	if _, err := p.GlobalID(cluster.MachineID(p.Machines())); err == nil {
		t.Error("GlobalID should reject out-of-range local IDs")
	}
	// Translating an allocation with an unknown local ID is a programming
	// error and must panic rather than mis-attribute GPUs.
	defer func() {
		if recover() == nil {
			t.Error("ToGlobal should panic on unknown local machine")
		}
	}()
	p.ToGlobal(cluster.Alloc{cluster.MachineID(99): 1})
}
