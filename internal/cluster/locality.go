package cluster

// Locality is the network boundary an allocation spans. It drives both the
// placement-sensitivity slowdown S (package placement) and the placement
// score reported in the paper's Figure 7. Smaller spans mean higher
// interconnect bandwidth between the GPUs of a job.
type Locality int

const (
	// LocalitySlot: all GPUs within one NVLink slot of one machine.
	LocalitySlot Locality = iota
	// LocalityMachine: all GPUs within one machine (PCIe between slots).
	LocalityMachine
	// LocalityRack: GPUs span machines within one rack.
	LocalityRack
	// LocalityDomain: GPUs span racks within one fabric domain. On flat
	// (single-domain) topologies this is the worst reachable level and keeps
	// the score the pre-hierarchy cross-rack level had, so flat results are
	// unchanged by the domain layer.
	LocalityDomain
	// LocalityNone: GPUs span fabric domains. Only reachable on topologies
	// declaring more than one domain.
	LocalityNone
)

// String returns a human-readable name for the locality level.
func (l Locality) String() string {
	switch l {
	case LocalitySlot:
		return "slot"
	case LocalityMachine:
		return "machine"
	case LocalityRack:
		return "rack"
	case LocalityDomain:
		return "cross-rack"
	case LocalityNone:
		return "cross-domain"
	default:
		return "unknown"
	}
}

// LocalityOf classifies the network boundary spanned by alloc on topo.
// An empty allocation is reported as LocalitySlot (it spans nothing).
//
// The slot level is conservative: the state does not track which physical
// GPU indices an app holds, so an allocation counts as slot-local only when
// it fits entirely within a single machine's slot size. This matches how the
// paper's simulator scores placements (it reasons about counts, not GPU
// serial numbers).
func LocalityOf(topo *Topology, alloc Alloc) Locality {
	// Iterate the map directly instead of materialising a sorted machine
	// slice: the classification ("all in one rack", "any two domains
	// differ") is order-independent, and this sits on the valuation hot
	// path via the sensitivity model's S(l) lookups.
	count := 0
	var first MachineID
	var rack RackID
	var domain DomainID
	sameRack := true
	sameDomain := true
	for m, n := range alloc {
		if n <= 0 {
			continue
		}
		count++
		if count == 1 {
			first, rack, domain = m, topo.Rack(m), topo.Domain(m)
			continue
		}
		if topo.Rack(m) != rack {
			sameRack = false
		}
		if topo.Domain(m) != domain {
			sameDomain = false
		}
	}
	switch {
	case count == 0:
		return LocalitySlot
	case count == 1:
		if alloc[first] <= topo.Machine(first).SlotSize {
			return LocalitySlot
		}
		return LocalityMachine
	case !sameDomain:
		return LocalityNone
	case sameRack:
		return LocalityRack
	default:
		return LocalityDomain
	}
}

// PlacementScore maps an allocation to the paper's placement score (§8.1
// Metrics): 1.0 for slot locality, decreasing for machine, rack, cross-rack
// and cross-domain spreads. A score of 1.0 indicates tightly packed GPUs.
func PlacementScore(topo *Topology, alloc Alloc) float64 {
	return LocalityScore(LocalityOf(topo, alloc))
}

// LocalityScore returns the placement score associated with a locality level.
// LocalityDomain keeps the value the flat model assigned to cross-rack
// spreads; the cross-domain LocalityNone level scores strictly lower.
func LocalityScore(l Locality) float64 {
	switch l {
	case LocalitySlot:
		return 1.0
	case LocalityMachine:
		return 0.9
	case LocalityRack:
		return 0.7
	case LocalityDomain:
		return 0.5
	default:
		return 0.35
	}
}
