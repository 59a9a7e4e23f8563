// Package cluster models the GPU cluster a Themis deployment schedules:
// racks of machines, each with a number of GPUs grouped into NVLink slots.
//
// The scheduler only ever reasons about GPU counts, their machine/rack
// location and the locality level an allocation achieves, so the model
// exposes exactly those: a Topology describing the hardware, a Cluster
// tracking which app holds which GPUs, and Alloc vectors (GPUs-per-machine
// maps) exchanged between the Arbiter and the Agents.
package cluster

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// MachineID identifies a machine in the cluster. IDs are dense, starting at 0.
type MachineID int

// RackID identifies a rack. IDs are dense, starting at 0.
type RackID int

// DomainID identifies a fabric domain: a group of racks sharing a fast
// interconnect fabric (a pod or NVLink/InfiniBand spine). IDs are dense,
// starting at 0. Flat topologies place every rack in domain 0, so a Topology
// built without explicit domains behaves exactly as it did before domains
// existed — the hierarchy only differentiates once a topology declares more
// than one domain (see the topology package's Spec and Lift).
type DomainID int

// GPUType labels the accelerator model installed in a machine. The scheduler
// treats all GPUs as interchangeable for capacity purposes (as the paper
// does), but the type is carried through for reporting.
type GPUType string

// Common GPU types used by the synthetic clusters. The paper's testbed mixes
// K80 and M60 GPUs; its simulations use an unnamed heterogeneous fleet.
const (
	GPUTypeK80  GPUType = "K80"
	GPUTypeM60  GPUType = "M60"
	GPUTypeP100 GPUType = "P100"
	GPUTypeV100 GPUType = "V100"
)

// Machine describes one server in the cluster.
type Machine struct {
	ID   MachineID
	Rack RackID
	// Domain is the fabric domain housing the machine's rack. The zero value
	// places the machine in domain 0, so flat topologies form a single-domain
	// hierarchy automatically. All machines of one rack must share a domain.
	Domain   DomainID
	NumGPUs  int
	SlotSize int // GPUs per NVLink slot; NumGPUs is a multiple of SlotSize
	GPU      GPUType
}

// Validate reports whether the machine description is internally consistent.
func (m Machine) Validate() error {
	if m.NumGPUs <= 0 {
		return fmt.Errorf("machine %d: NumGPUs must be positive, got %d", m.ID, m.NumGPUs)
	}
	if m.SlotSize <= 0 {
		return fmt.Errorf("machine %d: SlotSize must be positive, got %d", m.ID, m.SlotSize)
	}
	if m.NumGPUs%m.SlotSize != 0 {
		return fmt.Errorf("machine %d: NumGPUs (%d) not a multiple of SlotSize (%d)", m.ID, m.NumGPUs, m.SlotSize)
	}
	return nil
}

// Topology is an immutable description of the cluster hardware.
//
// Besides their IDs, racks and fabric domains carry a dense index — 0..n-1 in
// ascending ID order — so per-rack and per-domain tallies can live in slices
// (RackIndex, DomainIndex, RackAt).
type Topology struct {
	machines     []Machine
	rackOf       []int         // per machine: the dense index of its rack
	racks        []RackID      // ascending; position = dense index
	rackMachines [][]MachineID // per rack index: its machines, ascending
	rackDomain   []int         // per rack index: the dense index of its domain
	domains      []DomainID    // ascending; position = dense index
	domainNames  map[DomainID]string
	total        int
}

// NewTopology builds a Topology from a set of machines. Machine IDs must be
// dense (0..n-1) and unique, domain IDs non-negative, and every rack must lie
// entirely within one fabric domain.
func NewTopology(machines []Machine) (*Topology, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("topology needs at least one machine")
	}
	t := &Topology{
		machines: make([]Machine, len(machines)),
		rackOf:   make([]int, len(machines)),
	}
	seen := make(map[MachineID]bool, len(machines))
	rackDomain := make(map[RackID]DomainID)
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if int(m.ID) < 0 || int(m.ID) >= len(machines) {
			return nil, fmt.Errorf("machine ID %d out of range [0,%d)", m.ID, len(machines))
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("duplicate machine ID %d", m.ID)
		}
		if m.Domain < 0 {
			return nil, fmt.Errorf("machine %d: negative fabric domain %d", m.ID, m.Domain)
		}
		if d, ok := rackDomain[m.Rack]; ok && d != m.Domain {
			return nil, fmt.Errorf("rack %d straddles fabric domains %d and %d", m.Rack, d, m.Domain)
		}
		rackDomain[m.Rack] = m.Domain
		seen[m.ID] = true
		t.machines[m.ID] = m
		t.total += m.NumGPUs
	}
	for r, d := range rackDomain {
		t.racks = append(t.racks, r)
		t.domains = append(t.domains, d)
	}
	slices.Sort(t.racks)
	slices.Sort(t.domains)
	t.domains = slices.Compact(t.domains)
	t.rackDomain = make([]int, len(t.racks))
	for i, r := range t.racks {
		t.rackDomain[i], _ = slices.BinarySearch(t.domains, rackDomain[r])
	}
	t.rackMachines = make([][]MachineID, len(t.racks))
	for _, m := range t.machines { // ascending ID, so every rack's list is sorted
		i, _ := slices.BinarySearch(t.racks, m.Rack)
		t.rackOf[m.ID] = i
		t.rackMachines[i] = append(t.rackMachines[i], m.ID)
	}
	return t, nil
}

// NumMachines returns the number of machines in the cluster.
func (t *Topology) NumMachines() int { return len(t.machines) }

// NumRacks returns the number of racks in the cluster.
func (t *Topology) NumRacks() int { return len(t.racks) }

// NumDomains returns the number of fabric domains in the cluster.
func (t *Topology) NumDomains() int { return len(t.domains) }

// TotalGPUs returns the total GPU capacity of the cluster.
func (t *Topology) TotalGPUs() int { return t.total }

// Machine returns the description of machine id.
func (t *Topology) Machine(id MachineID) Machine { return t.machines[id] }

// Machines returns all machines, ordered by ID. The returned slice is a copy.
func (t *Topology) Machines() []Machine {
	out := make([]Machine, len(t.machines))
	copy(out, t.machines)
	return out
}

// MachinesInRack returns a copy of RackMachines(r).
func (t *Topology) MachinesInRack(r RackID) []MachineID {
	return slices.Clone(t.RackMachines(r))
}

// RackMachines returns the machine IDs in rack r, ordered by ID (nil for a
// rack the topology does not have). The slice is the topology's own and must
// not be modified; MachinesInRack is the copying form.
func (t *Topology) RackMachines(r RackID) []MachineID {
	if i, ok := slices.BinarySearch(t.racks, r); ok {
		return t.rackMachines[i]
	}
	return nil
}

// Racks returns all rack IDs in ascending order.
func (t *Topology) Racks() []RackID { return slices.Clone(t.racks) }

// Rack returns the rack housing machine id.
func (t *Topology) Rack(id MachineID) RackID { return t.machines[id].Rack }

// Domain returns the fabric domain housing machine id.
func (t *Topology) Domain(id MachineID) DomainID { return t.machines[id].Domain }

// RackIndex returns the dense index of the rack housing machine id.
func (t *Topology) RackIndex(id MachineID) int { return t.rackOf[id] }

// DomainIndex returns the dense index of the fabric domain housing machine id.
func (t *Topology) DomainIndex(id MachineID) int { return t.rackDomain[t.rackOf[id]] }

// RackAt returns the ID of the rack with dense index i and the dense index of
// the fabric domain housing it.
func (t *Topology) RackAt(i int) (r RackID, domain int) { return t.racks[i], t.rackDomain[i] }

// hasDomain reports whether some machine sits in fabric domain d.
func (t *Topology) hasDomain(d DomainID) bool {
	_, ok := slices.BinarySearch(t.domains, d)
	return ok
}

// SetDomainName attaches a human-readable name to a fabric domain, used by
// trace placement blocks to target domains by name. Unknown domains are
// rejected so topology builders catch typos early, and so is a name another
// domain already answers to — its assigned name or its "domain-<id>" default
// — so DomainByName never has two answers.
func (t *Topology) SetDomainName(d DomainID, name string) error {
	if !t.hasDomain(d) {
		return fmt.Errorf("cluster: no fabric domain %d", d)
	}
	if owner, ok := t.DomainByName(name); ok && owner != d {
		return fmt.Errorf("cluster: fabric domain name %q already used by domain %d", name, owner)
	}
	if t.domainNames == nil {
		t.domainNames = make(map[DomainID]string)
	}
	t.domainNames[d] = name
	return nil
}

// DomainByName resolves a fabric domain by its name, accepting both assigned
// names and the "domain-<id>" defaults every domain answers to.
func (t *Topology) DomainByName(name string) (DomainID, bool) {
	for d, n := range t.domainNames {
		if n == name {
			return d, true
		}
	}
	// Only the canonical decimal form DomainName prints: no sign, no leading
	// zero.
	digits, ok := strings.CutPrefix(name, "domain-")
	if !ok || digits == "" || digits[0] < '0' || digits[0] > '9' || (digits[0] == '0' && len(digits) > 1) {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || !t.hasDomain(DomainID(n)) {
		return 0, false
	}
	return DomainID(n), true
}

// Config describes a synthetic cluster to construct. It is the programmatic
// equivalent of a cluster spec file.
type Config struct {
	// MachineSpecs lists groups of identical machines.
	MachineSpecs []MachineSpec
	// MachinesPerRack controls how machines are laid out into racks; when
	// zero, DefaultMachinesPerRack is used.
	MachinesPerRack int
}

// MachineSpec is one group of identical machines in a Config.
type MachineSpec struct {
	Count    int
	GPUs     int
	SlotSize int
	GPU      GPUType
}

// DefaultMachinesPerRack is the rack width used when Config.MachinesPerRack
// is zero. It mirrors a common 16-machine rack.
const DefaultMachinesPerRack = 16

// Build constructs the Topology described by the Config. Machines are laid
// out spec group by spec group, filling racks in order.
func (c Config) Build() (*Topology, error) {
	perRack := c.MachinesPerRack
	if perRack <= 0 {
		perRack = DefaultMachinesPerRack
	}
	var machines []Machine
	id := 0
	for _, spec := range c.MachineSpecs {
		if spec.Count <= 0 {
			return nil, fmt.Errorf("machine spec count must be positive, got %d", spec.Count)
		}
		slot := spec.SlotSize
		if slot <= 0 {
			slot = spec.GPUs
		}
		for i := 0; i < spec.Count; i++ {
			machines = append(machines, Machine{
				ID:       MachineID(id),
				Rack:     RackID(id / perRack),
				NumGPUs:  spec.GPUs,
				SlotSize: slot,
				GPU:      spec.GPU,
			})
			id++
		}
	}
	return NewTopology(machines)
}

// SimulationCluster returns the paper's default 256-GPU heterogeneous
// simulated cluster: a mixture of 4-GPU, 2-GPU and 1-GPU machines spread
// across multiple racks (§8.1).
func SimulationCluster() *Topology {
	t, err := Config{
		MachineSpecs: []MachineSpec{
			{Count: 48, GPUs: 4, SlotSize: 2, GPU: GPUTypeP100}, // 192 GPUs
			{Count: 24, GPUs: 2, SlotSize: 2, GPU: GPUTypeV100}, // 48 GPUs
			{Count: 16, GPUs: 1, SlotSize: 1, GPU: GPUTypeK80},  // 16 GPUs
		},
		MachinesPerRack: 16,
	}.Build()
	if err != nil {
		panic("cluster: building default simulation cluster: " + err.Error())
	}
	return t
}

// TestbedCluster returns the paper's 50-GPU Azure testbed: 20 instances with
// 1, 2 or 4 GPUs each (NC- and NV-series, K80 and M60 GPUs) (§8.1).
func TestbedCluster() *Topology {
	t, err := Config{
		MachineSpecs: []MachineSpec{
			{Count: 8, GPUs: 4, SlotSize: 2, GPU: GPUTypeM60}, // 32 GPUs
			{Count: 6, GPUs: 2, SlotSize: 2, GPU: GPUTypeK80}, // 12 GPUs
			{Count: 6, GPUs: 1, SlotSize: 1, GPU: GPUTypeK80}, // 6 GPUs
		},
		MachinesPerRack: 10,
	}.Build()
	if err != nil {
		panic("cluster: building default testbed cluster: " + err.Error())
	}
	return t
}
