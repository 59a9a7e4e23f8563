package placement

import (
	"cmp"
	"slices"
	"sort"

	"themis/internal/cluster"
)

// SatisfiesMinPerMachine reports whether an allocation meets a per-machine
// minimum: every machine used holds at least min GPUs. It implements the
// placement constraints of §6 — allocations that violate a job's constraint
// have placement sensitivity 0 and therefore cannot make progress.
func SatisfiesMinPerMachine(alloc cluster.Alloc, min int) bool {
	if min <= 0 {
		return true
	}
	for _, n := range alloc {
		if n > 0 && n < min {
			return false
		}
	}
	return true
}

// SatisfiesMaxMachines reports whether an allocation meets a machine-spread
// cap: the GPUs span at most max machines. It implements the slot/locality
// placement constraint a trace's placement block can carry — a gang that
// synchronises over NVLink only (or must stay rack-dense) cannot make
// progress when scattered wider, so such allocations value out like a
// violated per-machine minimum. max <= 0 means unconstrained.
func SatisfiesMaxMachines(alloc cluster.Alloc, max int) bool {
	if max <= 0 {
		return true
	}
	used := 0
	for _, n := range alloc {
		if n > 0 {
			used++
			if used > max {
				return false
			}
		}
	}
	return true
}

// SatisfiesConstraints combines the per-machine minimum and machine-spread
// placement checks — the full constraint set a job can carry (§6 and the
// trace v2 placement block). Allocations violating either constraint have
// placement sensitivity 0 and cannot make progress.
func SatisfiesConstraints(alloc cluster.Alloc, minPerMachine, maxMachines int) bool {
	return SatisfiesMinPerMachine(alloc, minPerMachine) && SatisfiesMaxMachines(alloc, maxMachines)
}

// Constraint is the full placement-constraint set a job can carry: the §6
// per-machine GPU floor and machine-spread cap, plus the trace v2 affinity
// constraints binding the job to one fabric domain or GPU flavor. The zero
// value is unconstrained.
type Constraint struct {
	// MinGPUsPerMachine is the per-machine GPU floor; <= 1 means none.
	MinGPUsPerMachine int
	// MaxMachines caps how many machines the GPUs may span; <= 0 means none.
	MaxMachines int
	// Domain restricts the job to machines of one fabric domain when
	// HasDomain is set.
	Domain    cluster.DomainID
	HasDomain bool
	// Flavor restricts the job to machines carrying one GPU model; empty
	// means any.
	Flavor cluster.GPUType
}

// IsZero reports whether the constraint set is fully unconstrained.
func (c Constraint) IsZero() bool {
	return c.MinGPUsPerMachine <= 1 && c.MaxMachines <= 0 && !c.HasDomain && c.Flavor == ""
}

// Admits reports whether machine m may hold any of the job's GPUs under the
// constraint's domain and flavor affinities.
func (c Constraint) Admits(topo *cluster.Topology, m cluster.MachineID) bool {
	if c.HasDomain && topo.Domain(m) != c.Domain {
		return false
	}
	if c.Flavor != "" && topo.Machine(m).GPU != c.Flavor {
		return false
	}
	return true
}

// Feasible reports whether any allocation at all can satisfy the constraint
// on topo: at least one admitted machine exists with capacity for the
// per-machine floor. Jobs with infeasible constraints can never run and must
// be rejected rather than scheduled (they would otherwise starve forever —
// the tiresias-loop bug).
func (c Constraint) Feasible(topo *cluster.Topology) bool {
	min := c.MinGPUsPerMachine
	if min < 1 {
		min = 1
	}
	for _, m := range topo.Machines() {
		if c.Admits(topo, m.ID) && m.NumGPUs >= min {
			return true
		}
	}
	return false
}

// Satisfies reports whether alloc meets the full constraint set on topo.
// An empty allocation trivially satisfies any constraint.
func Satisfies(topo *cluster.Topology, alloc cluster.Alloc, c Constraint) bool {
	if !SatisfiesConstraints(alloc, c.MinGPUsPerMachine, c.MaxMachines) {
		return false
	}
	if c.HasDomain || c.Flavor != "" {
		for m, n := range alloc {
			if n > 0 && !c.Admits(topo, m) {
				return false
			}
		}
	}
	return true
}

// PickConstrained greedily selects up to count GPUs from free like Pick, but
// only produces allocations that keep anchor+picked within the constraint
// set: machines outside the job's domain/flavor affinity are never used, no
// machine ends up under the per-machine GPU floor, and the combined spread
// stays within the machine cap. The result may hold fewer than count GPUs —
// possibly zero — when the constraint admits nothing better; callers decide
// whether a partial gang is worth running.
func PickConstrained(topo *cluster.Topology, free cluster.Alloc, anchor cluster.Alloc, count int, c Constraint) cluster.Alloc {
	if c.IsZero() {
		return Pick(topo, free, anchor, count)
	}
	eligible := cluster.NewAlloc()
	for m, n := range free {
		if n > 0 && c.Admits(topo, m) {
			eligible[m] = n
		}
	}
	minPer := c.MinGPUsPerMachine
	if minPer < 1 {
		minPer = 1
	}
	usedMachines := func(picked cluster.Alloc) int {
		used := make(map[cluster.MachineID]bool)
		for m, n := range anchor {
			if n > 0 {
				used[m] = true
			}
		}
		for m, n := range picked {
			if n > 0 {
				used[m] = true
			}
		}
		return len(used)
	}
	picked := cluster.NewAlloc()
	need := count
	take := func(m cluster.MachineID) {
		if need <= 0 {
			return
		}
		n := eligible[m]
		if n <= 0 {
			return
		}
		if n > need {
			n = need
		}
		base := anchor[m] + picked[m]
		if base+n < minPer {
			return // would leave the machine under the per-machine floor
		}
		if c.MaxMachines > 0 && base == 0 && usedMachines(picked) >= c.MaxMachines {
			return // a fresh machine would exceed the spread cap
		}
		picked[m] += n
		eligible[m] -= n
		need -= n
	}

	// Same preference ladder as Pick: anchor machines, anchor racks, then
	// domain-then-rack packing over the rest.
	for _, m := range sortedMachineIDs(anchor) {
		take(m)
	}
	if need > 0 {
		anchorRacks := make(map[cluster.RackID]bool)
		for _, m := range anchor.Machines() {
			anchorRacks[topo.Rack(m)] = true
		}
		if len(anchorRacks) > 0 {
			for _, m := range machinesByFree(eligible) {
				if anchorRacks[topo.Rack(m)] {
					take(m)
				}
			}
		}
	}
	if need > 0 {
		for _, m := range machinesByFree(eligible) {
			take(m)
		}
	}
	return picked
}

// machinesByFree returns the machines with free GPUs sorted by descending
// free count, then ascending ID.
func machinesByFree(free cluster.Alloc) []cluster.MachineID {
	ids := free.Machines()
	sort.Slice(ids, func(i, j int) bool {
		if free[ids[i]] != free[ids[j]] {
			return free[ids[i]] > free[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Picker is the placement-sensitive greedy picker with caller-owned scratch:
// the remaining vector, the anchor/rack/domain index maps and every ordering
// slice are reused across calls, so a steady-state valuation round picks
// candidates without allocating (TestPickerSteadyStateAllocs). The zero value
// is ready to use.
//
// A Picker is single-goroutine state; each BidValuator/RhoEstimator, and each
// loop that picks repeatedly, owns its own.
type Picker struct {
	remaining     cluster.Alloc
	anchorIDs     []cluster.MachineID
	byFree        []cluster.MachineID
	anchorRacks   map[cluster.RackID]bool
	anchorDomains map[cluster.DomainID]bool
	rackFree      map[cluster.RackID]int
	domainFree    map[cluster.DomainID]int
	domains       []cluster.DomainID
	racks         []cluster.RackID
}

// PickInto greedily selects up to count GPUs from the free vector in a
// placement-sensitive manner, producing the allocation to add.
//
// Preference order:
//  1. machines where anchor (the app's existing allocation) already holds
//     GPUs — extending an allocation in place keeps its locality tight;
//  2. machines in racks the anchor already touches;
//  3. otherwise machines with the most free GPUs, so the picked GPUs pack
//     into as few machines (and racks) as possible.
//
// This is the greedy job-level assignment of §5.2 step 4 and the leftover
// allocation rule of §5.1 step 3. It never picks more than count GPUs and
// never more than free allows; the result may hold fewer than count GPUs if
// the free pool is smaller.
//
// The pick is written into dst (cleared first; allocated when nil) and
// returned; it is valid until the caller reuses dst. free and anchor are only
// read.
func (p *Picker) PickInto(dst cluster.Alloc, topo *cluster.Topology, free, anchor cluster.Alloc, count int) cluster.Alloc {
	if dst == nil {
		dst = cluster.NewAlloc()
	} else {
		clear(dst)
	}
	if count <= 0 {
		return dst
	}
	if p.remaining == nil {
		p.remaining = cluster.NewAlloc()
	}
	clear(p.remaining)
	remaining := p.remaining
	for m, n := range free {
		if n != 0 {
			remaining[m] = n
		}
	}
	need := count

	take := func(m cluster.MachineID) {
		if need <= 0 {
			return
		}
		n := remaining[m]
		if n <= 0 {
			return
		}
		if n > need {
			n = need
		}
		dst[m] += n
		remaining[m] -= n
		need -= n
	}

	// Pass 1: machines the anchor already uses, largest anchor share first.
	for _, m := range p.sortedByCount(anchor) {
		take(m)
		if need == 0 {
			return dst
		}
	}

	// Pass 2: machines in racks the anchor already touches. The by-free
	// order is snapshotted once, before any pass-2 take.
	if p.anchorRacks == nil {
		p.anchorRacks = make(map[cluster.RackID]bool)
	}
	clear(p.anchorRacks)
	for m, n := range anchor {
		if n > 0 {
			p.anchorRacks[topo.Rack(m)] = true
		}
	}
	if len(p.anchorRacks) > 0 {
		for _, m := range p.machinesByFree(remaining) {
			if p.anchorRacks[topo.Rack(m)] {
				take(m)
				if need == 0 {
					return dst
				}
			}
		}
	}

	// Pass 3: pack into as few machines as possible, filling one fabric
	// domain before spilling into the next. Domains the anchor already
	// touches come first, then domains by aggregate free GPUs; within a
	// domain, prefer the rack with the most aggregate free GPUs so
	// multi-machine spills stay rack-local (the by-free order is recomputed
	// per domain and rack). On single-domain (flat) topologies the domain
	// loop is a no-op and the order reduces to plain rack packing.
	if p.anchorDomains == nil {
		p.anchorDomains = make(map[cluster.DomainID]bool)
		p.rackFree = make(map[cluster.RackID]int)
		p.domainFree = make(map[cluster.DomainID]int)
	}
	clear(p.anchorDomains)
	clear(p.rackFree)
	clear(p.domainFree)
	for m, n := range anchor {
		if n > 0 {
			p.anchorDomains[topo.Domain(m)] = true
		}
	}
	for m, n := range remaining {
		if n > 0 {
			p.rackFree[topo.Rack(m)] += n
			p.domainFree[topo.Domain(m)] += n
		}
	}
	domains := p.domains[:0]
	for d := range p.domainFree {
		domains = append(domains, d)
	}
	slices.SortFunc(domains, func(di, dj cluster.DomainID) int {
		if p.anchorDomains[di] != p.anchorDomains[dj] {
			if p.anchorDomains[di] {
				return -1
			}
			return 1
		}
		if p.domainFree[di] != p.domainFree[dj] {
			return cmp.Compare(p.domainFree[dj], p.domainFree[di])
		}
		return cmp.Compare(di, dj)
	})
	p.domains = domains
	racks := p.racks[:0]
	for r := range p.rackFree {
		racks = append(racks, r)
	}
	slices.SortFunc(racks, func(ri, rj cluster.RackID) int {
		if p.rackFree[ri] != p.rackFree[rj] {
			return cmp.Compare(p.rackFree[rj], p.rackFree[ri])
		}
		return cmp.Compare(ri, rj)
	})
	p.racks = racks
	for _, d := range domains {
		for _, r := range racks {
			for _, m := range p.machinesByFree(remaining) {
				if topo.Rack(m) != r || topo.Domain(m) != d {
					continue
				}
				take(m)
				if need == 0 {
					return dst
				}
			}
		}
	}
	return dst
}

// Pick is PickInto on a throwaway Picker, returning a fresh allocation: the
// form for one-off picks. Anything that picks in a loop owns a Picker instead.
func Pick(topo *cluster.Topology, free cluster.Alloc, anchor cluster.Alloc, count int) cluster.Alloc {
	var p Picker
	return p.PickInto(nil, topo, free, anchor, count)
}

// sortedByCount returns alloc's machines ordered by descending count then
// ascending ID (sortedMachineIDs over reused scratch).
func (p *Picker) sortedByCount(alloc cluster.Alloc) []cluster.MachineID {
	ids := p.anchorIDs[:0]
	for m, n := range alloc {
		if n > 0 {
			ids = append(ids, m)
		}
	}
	slices.SortFunc(ids, func(a, b cluster.MachineID) int {
		if alloc[a] != alloc[b] {
			return cmp.Compare(alloc[b], alloc[a])
		}
		return cmp.Compare(a, b)
	})
	p.anchorIDs = ids
	return ids
}

// machinesByFree mirrors the package function over reused scratch.
func (p *Picker) machinesByFree(free cluster.Alloc) []cluster.MachineID {
	ids := p.byFree[:0]
	for m, n := range free {
		if n > 0 {
			ids = append(ids, m)
		}
	}
	slices.SortFunc(ids, func(a, b cluster.MachineID) int {
		if free[a] != free[b] {
			return cmp.Compare(free[b], free[a])
		}
		return cmp.Compare(a, b)
	})
	p.byFree = ids
	return ids
}
