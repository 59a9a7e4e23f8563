package themis

import (
	"fmt"

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

// ClusterFactory builds a fresh topology for a registered cluster name.
// Topologies are immutable, so the factory may return a shared instance.
type ClusterFactory func() (*Topology, error)

type clusterEntry struct {
	description string
	factory     ClusterFactory
}

var clusters = newRegistry[clusterEntry]("cluster")

// RegisterCluster adds a named topology to the registry, making it available
// to Cluster, WithCluster, the Grid's Clusters axis and cmd/themis-sim's
// -cluster flag. The description is surfaced by DescribeCluster. Registering
// a name twice is an error.
func RegisterCluster(name, description string, factory ClusterFactory) error {
	return clusters.register(name, clusterEntry{description: description, factory: factory}, factory != nil)
}

// Clusters lists the registered cluster names, sorted.
func Clusters() []string { return clusters.names() }

// DescribeCluster returns a registered cluster's one-line description.
func DescribeCluster(name string) (string, error) {
	entry, err := clusters.lookup(name)
	return entry.description, err
}

// Cluster builds a registered topology by name: ClusterSim ("sim"),
// ClusterTestbed ("testbed"), ClusterSimFabric ("sim-fabric") or anything
// added via RegisterCluster. Custom one-off topologies are built with
// ClusterConfig.Build or BuildTopology.
func Cluster(name string) (*Topology, error) {
	entry, err := clusters.lookup(name)
	if err != nil {
		return nil, err
	}
	return entry.factory()
}

// BuildTopology constructs a hierarchical topology from a TopologySpec —
// regions of fabric domains of racks of machine groups. Machine, rack and
// domain IDs are assigned densely in declaration order, so the same spec
// always yields the same topology; domain names in the spec become the names
// trace placement blocks and job affinities resolve against, so a name
// another domain already answers to ("domain-<id>" included) is an error.
func BuildTopology(spec TopologySpec) (*Topology, error) {
	topo, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("themis: %w", err)
	}
	return topo, nil
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

// The paper's clusters (and the hierarchical variant) ship pre-registered.
func init() {
	mustRegister := func(name, description string, f ClusterFactory) {
		if err := RegisterCluster(name, description, f); err != nil {
			panic(err)
		}
	}
	mustRegister(ClusterSim, "the paper's 256-GPU heterogeneous simulated cluster (§8.1)",
		func() (*Topology, error) { return cluster.SimulationCluster(), nil })
	mustRegister(ClusterTestbed, "the paper's 50-GPU Azure testbed: 20 K80/M60 machines (§8.1)",
		func() (*Topology, error) { return cluster.TestbedCluster(), nil })
	mustRegister(ClusterSimFabric, "the 256-GPU simulated fleet across three fabric domains (pods)",
		func() (*Topology, error) { return BuildTopology(simFabricSpec()) })
}
