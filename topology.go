package themis

import (
	"themis/internal/cluster"
	"themis/internal/topology"
)

// Built-in cluster names accepted by Cluster and WithCluster.
const (
	// ClusterSim is the paper's 256-GPU heterogeneous simulated cluster.
	ClusterSim = "sim"
	// ClusterTestbed is the paper's 50-GPU Azure testbed topology.
	ClusterTestbed = "testbed"
	// ClusterSimFabric is the simulated fleet re-homed into three fabric
	// domains (pods): the same 256 GPUs as ClusterSim, but with a hierarchy
	// the pack-to-empty engine and the domain locality level can exploit.
	ClusterSimFabric = "sim-fabric"
)

// clusters builds the paper's clusters (§8.1) and the hierarchical variant.
var clusters = newRegistry("cluster", map[string]func() (*Topology, error){
	ClusterSim:       func() (*Topology, error) { return cluster.SimulationCluster(), nil },
	ClusterTestbed:   func() (*Topology, error) { return cluster.TestbedCluster(), nil },
	ClusterSimFabric: func() (*Topology, error) { return simFabricSpec().Build() },
})

// Clusters lists the built-in cluster names, sorted.
func Clusters() []string { return clusters.names() }

// Cluster builds a built-in topology by name: ClusterSim ("sim"),
// ClusterTestbed ("testbed") or ClusterSimFabric ("sim-fabric"). Other
// topologies are built with ClusterConfig.Build, or with TopologySpec.Build
// for a hierarchy of named fabric domains, and passed to WithTopology.
func Cluster(name string) (*Topology, error) {
	build, err := clusters.lookup(name)
	if err != nil {
		return nil, err
	}
	return build()
}

// simFabricSpec lays the ClusterSim fleet out into three named fabric
// domains: two homogeneous P100 training pods and one mixed pod holding the
// V100 and K80 fleets.
func simFabricSpec() TopologySpec {
	p100Rack := topology.RackSpec{Machines: []topology.MachineGroup{
		{Count: 12, GPUs: 4, SlotSize: 2, Flavor: cluster.GPUTypeP100},
	}}
	return TopologySpec{
		Name: ClusterSimFabric,
		Regions: []topology.RegionSpec{{
			Name: "default",
			Domains: []topology.DomainSpec{
				{Name: "pod-a", Racks: []topology.RackSpec{p100Rack, p100Rack}}, // 96 GPUs
				{Name: "pod-b", Racks: []topology.RackSpec{p100Rack, p100Rack}}, // 96 GPUs
				{Name: "pod-c", Racks: []topology.RackSpec{ // 64 GPUs
					{Machines: []topology.MachineGroup{{Count: 24, GPUs: 2, SlotSize: 2, Flavor: cluster.GPUTypeV100}}},
					{Machines: []topology.MachineGroup{{Count: 16, GPUs: 1, SlotSize: 1, Flavor: cluster.GPUTypeK80}}},
				}},
			},
		}},
	}
}
