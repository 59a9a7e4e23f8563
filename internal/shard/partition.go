package shard

import (
	"fmt"
	"sort"

	"themis/internal/cluster"
)

// Partition is one shard's slice of the cluster: a self-contained Topology
// whose machine IDs are shard-local (dense, starting at 0, in the order of
// their global IDs) plus the mapping back to the global IDs of the full
// topology. Racks and fabric domains keep their global IDs, so locality
// structure inside the partition — slots, racks, domains — prices exactly as
// it does in the full cluster.
type Partition struct {
	// Index is the shard's position in the Split result.
	Index int
	// Topo is the shard-local topology the shard's Arbiter schedules.
	Topo *cluster.Topology

	global  []cluster.MachineID                     // local ID -> global ID
	toLocal map[cluster.MachineID]cluster.MachineID // global ID -> local ID
}

// GlobalID maps a shard-local machine ID to the full topology's ID.
func (p *Partition) GlobalID(local cluster.MachineID) (cluster.MachineID, error) {
	if int(local) < 0 || int(local) >= len(p.global) {
		return 0, fmt.Errorf("shard: no local machine %d in partition %d", local, p.Index)
	}
	return p.global[local], nil
}

// ToGlobal translates an allocation from shard-local machine IDs to global
// ones. Machines outside the partition are impossible by construction for
// allocations produced against Topo; unknown IDs panic loudly rather than
// silently mis-attributing GPUs.
func (p *Partition) ToGlobal(a cluster.Alloc) cluster.Alloc {
	out := cluster.NewAlloc()
	for m, n := range a {
		if n == 0 {
			continue
		}
		g, err := p.GlobalID(m)
		if err != nil {
			panic("shard: " + err.Error())
		}
		out[g] += n
	}
	return out
}

// LocalID maps a global machine ID to this partition's local one; ok is
// false for a machine the partition does not own.
func (p *Partition) LocalID(global cluster.MachineID) (local cluster.MachineID, ok bool) {
	local, ok = p.toLocal[global]
	return local, ok
}

// Split carves a topology into n capacity partitions of roughly equal GPU
// capacity. Whole racks are assigned greedily to the least-loaded shard
// (racks in ID order, ties to the lowest shard index) so rack locality
// survives sharding; when the cluster has fewer racks than shards the split
// falls back to machine granularity. Every shard receives at least one
// machine, otherwise Split errors.
func Split(topo *cluster.Topology, n int) ([]*Partition, error) {
	if topo == nil {
		return nil, fmt.Errorf("shard: nil topology")
	}
	if n <= 0 {
		return nil, fmt.Errorf("shard: shard count %d must be positive", n)
	}
	if n > topo.NumMachines() {
		return nil, fmt.Errorf("shard: cannot split %d machines into %d shards", topo.NumMachines(), n)
	}

	// Group assignment units: whole racks when there are enough, single
	// machines otherwise.
	var groups [][]cluster.MachineID
	if topo.NumRacks() >= n {
		for _, r := range topo.Racks() {
			groups = append(groups, topo.MachinesInRack(r))
		}
	} else {
		for _, m := range topo.Machines() {
			groups = append(groups, []cluster.MachineID{m.ID})
		}
	}

	gpus := func(ids []cluster.MachineID) int {
		total := 0
		for _, id := range ids {
			total += topo.Machine(id).NumGPUs
		}
		return total
	}
	// Largest groups first tightens the balance; ties keep ID order for
	// determinism.
	sort.SliceStable(groups, func(i, j int) bool { return gpus(groups[i]) > gpus(groups[j]) })

	assigned := make([][]cluster.MachineID, n)
	load := make([]int, n)
	for _, g := range groups {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assigned[best] = append(assigned[best], g...)
		load[best] += gpus(g)
	}

	parts := make([]*Partition, n)
	for s := 0; s < n; s++ {
		if len(assigned[s]) == 0 {
			return nil, fmt.Errorf("shard: partition %d received no machines (%d machines over %d shards)", s, topo.NumMachines(), n)
		}
		sort.Slice(assigned[s], func(i, j int) bool { return assigned[s][i] < assigned[s][j] })
		machines := make([]cluster.Machine, 0, len(assigned[s]))
		global := make([]cluster.MachineID, 0, len(assigned[s]))
		toLocal := make(map[cluster.MachineID]cluster.MachineID, len(assigned[s]))
		for local, gid := range assigned[s] {
			m := topo.Machine(gid)
			m.ID = cluster.MachineID(local)
			machines = append(machines, m)
			global = append(global, gid)
			toLocal[gid] = cluster.MachineID(local)
		}
		sub, err := cluster.NewTopology(machines)
		if err != nil {
			return nil, fmt.Errorf("shard: building partition %d: %w", s, err)
		}
		parts[s] = &Partition{Index: s, Topo: sub, global: global, toLocal: toLocal}
	}
	return parts, nil
}
