package placement

import (
	"cmp"
	"slices"

	"themis/internal/cluster"
)

// Anchor is an allocation prepared for the ladder to extend: its entries in
// the order pass 1 takes them, and its racks for pass 2 and, through their
// domains, the packing pass. A caller drawing many times against one anchor
// prepares it once. Warmed Loads and Adds allocate nothing.
type Anchor struct {
	topo    *cluster.Topology
	entries []Take // GPUs held per machine, by descending GPUs then ascending ID
	racks   []int  // dense rack indices, ascending, each once
}

// Load makes alloc, which is only read, the anchor on topo.
func (a *Anchor) Load(topo *cluster.Topology, alloc cluster.Alloc) {
	a.topo, a.entries, a.racks = topo, slices.Grow(a.entries[:0], len(alloc)), a.racks[:0]
	for m, n := range alloc {
		if n > 0 {
			a.entries = append(a.entries, Take{Machine: m, GPUs: n})
			a.addRack(m)
		}
	}
	slices.SortFunc(a.entries, byCount)
}

// Add extends the anchor in place by a draw's takes.
func (a *Anchor) Add(takes []Take) {
	for _, t := range takes {
		i := a.find(t.Machine)
		if i < 0 {
			i = len(a.entries)
			a.entries = append(a.entries, Take{Machine: t.Machine})
			a.addRack(t.Machine)
		}
		// Only entry i grew, so moving it forward restores the order.
		for a.entries[i].GPUs += t.GPUs; i > 0 && byCount(a.entries[i], a.entries[i-1]) < 0; i-- {
			a.entries[i], a.entries[i-1] = a.entries[i-1], a.entries[i]
		}
	}
}

// byCount orders entries by descending GPUs, then ascending machine ID.
func byCount(x, y Take) int {
	return cmp.Or(cmp.Compare(y.GPUs, x.GPUs), cmp.Compare(x.Machine, y.Machine))
}

func (a *Anchor) addRack(m cluster.MachineID) {
	r := a.topo.RackIndex(m)
	if i, found := slices.BinarySearch(a.racks, r); !found {
		a.racks = slices.Insert(a.racks, i, r)
	}
}

// find returns the index of machine m's entry, or -1.
func (a *Anchor) find(m cluster.MachineID) int {
	return slices.IndexFunc(a.entries, func(e Take) bool { return e.Machine == m })
}

// Entries returns the anchor's entries, valid until the next Load or Add.
func (a *Anchor) Entries() []Take { return a.entries }

// HasDomain reports whether the anchor holds GPUs in domain index d.
func (a *Anchor) HasDomain(d int) bool {
	return slices.ContainsFunc(a.racks, func(r int) bool { _, rd := a.topo.RackAt(r); return rd == d })
}

// LocalityWith returns cluster.LocalityOf the anchor plus a draw's takes
// without building the sum, classifying every machine against the first.
func (a *Anchor) LocalityWith(takes []Take) cluster.Locality {
	topo, loc, on := a.topo, cluster.LocalitySlot, Take{}
	for _, ts := range [...][]Take{a.entries, takes} {
		for _, t := range ts {
			switch {
			case on.GPUs == 0:
				on = t
			case t.Machine == on.Machine:
				on.GPUs += t.GPUs
			case topo.RackIndex(t.Machine) == topo.RackIndex(on.Machine):
				loc = max(loc, cluster.LocalityRack)
			case topo.DomainIndex(t.Machine) == topo.DomainIndex(on.Machine):
				loc = max(loc, cluster.LocalityDomain)
			default:
				loc = cluster.LocalityNone
			}
		}
	}
	if loc == cluster.LocalitySlot && on.GPUs > topo.Machine(on.Machine).SlotSize {
		loc = cluster.LocalityMachine // one machine, beyond one slot
	}
	return loc
}
