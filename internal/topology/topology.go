// Package topology declares the physical hierarchy of a GPU fleet — region →
// fabric domain → rack → machine → GPU flavor/slot — and builds it into the
// cluster.Topology the scheduler allocates against.
//
// Package cluster stays the one model of the hierarchy every consumer reads
// (Machine, Rack, Domain, DomainByName); this package owns only the
// declarative Spec that assigns the IDs and names.
package topology

import (
	"fmt"

	"themis/internal/cluster"
)

// Spec declaratively describes a hierarchical fleet. Machine, rack and
// domain IDs are assigned densely in declaration order, so a Spec is a
// deterministic recipe: building it twice yields identical topologies.
type Spec struct {
	// Name labels the fleet (used by the cluster registry).
	Name string
	// Regions of the fleet, typically geographic. Most single-site clusters
	// declare exactly one.
	Regions []RegionSpec
}

// RegionSpec is one region: a named group of fabric domains.
type RegionSpec struct {
	Name    string
	Domains []DomainSpec
}

// DomainSpec is one fabric domain: racks sharing a fast interconnect spine.
type DomainSpec struct {
	// Name of the domain; defaults to "domain-<id>" when empty. Trace
	// placement blocks reference domains by this name.
	Name  string
	Racks []RackSpec
}

// RackSpec is one rack: ordered groups of identical machines.
type RackSpec struct {
	Machines []MachineGroup
}

// MachineGroup is a run of identical machines within a rack.
type MachineGroup struct {
	Count    int
	GPUs     int
	SlotSize int // defaults to GPUs when zero
	Flavor   cluster.GPUType
}

// Build constructs the cluster.Topology described by the Spec. Regions shape
// the input — each must hold at least one domain — but the topology does not
// index them.
func (s Spec) Build() (*cluster.Topology, error) {
	if len(s.Regions) == 0 {
		return nil, fmt.Errorf("topology: spec %q has no regions", s.Name)
	}
	var machines []cluster.Machine
	var names []string // per domain ID; "" keeps the "domain-<id>" default
	machineID, rackID := 0, 0
	for _, region := range s.Regions {
		if len(region.Domains) == 0 {
			return nil, fmt.Errorf("topology: region %q has no fabric domains", region.Name)
		}
		for _, dom := range region.Domains {
			domainID := cluster.DomainID(len(names))
			if len(dom.Racks) == 0 {
				return nil, fmt.Errorf("topology: domain %q has no racks", dom.Name)
			}
			names = append(names, dom.Name)
			for _, rack := range dom.Racks {
				if len(rack.Machines) == 0 {
					return nil, fmt.Errorf("topology: domain %q has an empty rack", dom.Name)
				}
				for _, g := range rack.Machines {
					if g.Count <= 0 {
						return nil, fmt.Errorf("topology: machine group count must be positive, got %d", g.Count)
					}
					slot := g.SlotSize
					if slot <= 0 {
						slot = g.GPUs
					}
					for i := 0; i < g.Count; i++ {
						machines = append(machines, cluster.Machine{
							ID:       cluster.MachineID(machineID),
							Rack:     cluster.RackID(rackID),
							Domain:   domainID,
							NumGPUs:  g.GPUs,
							SlotSize: slot,
							GPU:      g.Flavor,
						})
						machineID++
					}
				}
				rackID++
			}
		}
	}
	topo, err := cluster.NewTopology(machines)
	if err != nil {
		return nil, fmt.Errorf("topology: spec %q: %w", s.Name, err)
	}
	for id, name := range names {
		if name != "" {
			if err := topo.SetDomainName(cluster.DomainID(id), name); err != nil {
				return nil, fmt.Errorf("topology: spec %q: %w", s.Name, err)
			}
		}
	}
	return topo, nil
}

// Tree wraps a cluster.Topology. It holds nothing else: everything the
// program reads of the hierarchy comes from the topology itself. It survives
// only because the frozen benchmark module calls pack.New(topology.Lift(topo)).
type Tree struct {
	topo *cluster.Topology
}

// Lift wraps an existing cluster.Topology into a Tree.
func Lift(topo *cluster.Topology) *Tree { return &Tree{topo: topo} }

// Topology returns the wrapped topology.
func (t *Tree) Topology() *cluster.Topology { return t.topo }
