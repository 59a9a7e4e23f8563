// Package pack implements the deterministic pack-to-empty placement engine
// over the hierarchical topology: gang requests fill one fabric domain
// before spilling into the next, cross-domain cuts are taken only when no
// single domain fits, and all choices are resolved by explicit sort orders
// so identical inputs always produce identical placements.
//
// The heuristic follows the jobtree M2 design: among domains that fit a
// request, choose the one with the least residual free capacity (best fit —
// it empties fastest and keeps large domains whole for large gangs),
// preferring domains the requester already occupies; when no domain fits,
// spill across domains by descending free capacity to minimise the number
// of cuts. Within a domain, machines fill by descending free count then
// ascending ID, packing the gang onto as few machines as possible.
package pack

import (
	"cmp"
	"slices"
	"sync"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/topology"
)

// Engine is a deterministic pack-to-empty placer bound to one topology. It
// holds nothing but the immutable topology and a pool of pickers, so one
// Engine is safe for concurrent use.
type Engine struct {
	topo    *cluster.Topology
	pickers sync.Pool // of *placement.Picker, each serving one Place at a time
}

// New returns an Engine packing onto tree's topology. It takes a
// *topology.Tree rather than the topology itself only because the frozen
// benchmark module calls pack.New(topology.Lift(topo)).
func New(tree *topology.Tree) *Engine { return &Engine{topo: tree.Topology()} }

// Place selects up to want GPUs from free for a job anchored at anchor under
// constraint c, implementing the sim.Packer contract. The result never
// exceeds free, never violates c when combined with anchor, and is fully
// determined by its inputs.
func (e *Engine) Place(free cluster.Alloc, anchor cluster.Alloc, want int, c placement.Constraint) cluster.Alloc {
	topo := e.topo
	// The engine's policy is the order machines are offered in; the picker's
	// Take keeps every offer within want and c. One picker per call, from
	// the pool, because an Engine may serve several goroutines.
	p, _ := e.pickers.Get().(*placement.Picker)
	if p == nil {
		p = new(placement.Picker)
	}
	defer e.pickers.Put(p)
	p.Load(topo, free)
	picked := p.Begin(nil, anchor, want, c)
	if want <= 0 {
		return picked
	}

	// Step 1: extend the anchor in place — its machines first (largest share
	// first), then the remaining machines of domains it already occupies, so
	// a growing gang stays inside its fabric. Begin prepared the anchor.
	a := p.Anchor()
	for _, t := range a.Entries() {
		p.Take(t.Machine)
	}
	if p.Need() == 0 {
		return picked
	}
	// Every later offer follows this one descending-free, ascending-ID order
	// of the pool, sorted once: a step that leaves the draw unfinished has
	// drained each machine it offered or left it untouched, so what remains
	// keeps its order (drained machines are no-ops to Take).
	order := p.ByFree()
	// The per-domain slices are indexed by dense domain index, which ascends
	// with the domain ID.
	domainFree := make([]int, topo.NumDomains())
	for _, m := range order {
		if a.HasDomain(topo.DomainIndex(m)) {
			p.Take(m)
		}
	}
	if p.Need() == 0 {
		return picked
	}

	// Free capacity per domain, over what remains on machines c admits.
	for _, m := range order {
		if n := p.Free(m); n > 0 && c.Admits(topo, m) {
			domainFree[topo.DomainIndex(m)] += n
		}
	}
	var domains []int
	for d, n := range domainFree {
		if n > 0 {
			domains = append(domains, d)
		}
	}
	fill := func(d int) {
		for _, m := range order {
			if topo.DomainIndex(m) == d {
				p.Take(m)
			}
		}
	}

	// Step 2: pack to empty — among domains that fit the remaining need
	// whole, pick the one with the least residual free capacity (ties by
	// lowest ID), so small holes fill first and large domains stay whole.
	var fitting []int
	for _, d := range domains {
		if domainFree[d] >= p.Need() {
			fitting = append(fitting, d)
		}
	}
	slices.SortFunc(fitting, func(di, dj int) int {
		return cmp.Or(cmp.Compare(domainFree[di], domainFree[dj]), cmp.Compare(di, dj))
	})
	for _, d := range fitting {
		fill(d)
		if p.Need() == 0 {
			return picked
		}
		// Constraints (floor/cap) may have blocked the fit; try the next
		// fitting domain before falling through to the spill.
	}

	// Step 3: no single domain fits — spill across domains by descending
	// free capacity (ties by lowest ID) to minimise the number of cuts.
	slices.SortFunc(domains, func(di, dj int) int {
		return cmp.Or(cmp.Compare(domainFree[dj], domainFree[di]), cmp.Compare(di, dj))
	})
	for _, d := range domains {
		fill(d)
		if p.Need() == 0 {
			return picked
		}
	}
	return picked
}
