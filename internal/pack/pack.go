// Package pack implements the deterministic pack-to-empty placement engine
// over the hierarchical topology: gang requests fill one fabric domain
// before spilling into the next, cross-domain cuts are taken only when no
// single domain fits, and all choices are resolved by explicit sort orders
// so identical inputs always produce identical plans.
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
	"sort"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/topology"
)

// Request asks the engine for GPUs on behalf of one job.
type Request struct {
	// GPUs is the gang size wanted.
	GPUs int
	// Anchor is the requester's existing allocation; the engine prefers
	// extending it in place.
	Anchor cluster.Alloc
	// Constraint carries the job's placement constraints (per-machine floor,
	// machine cap, domain/flavor affinity). The engine never returns an
	// allocation that, combined with Anchor, violates it.
	Constraint placement.Constraint
}

// Plan is the engine's answer to a Request.
type Plan struct {
	// Alloc is the GPUs to add; it may hold fewer than requested (possibly
	// zero) when capacity or constraints do not admit more.
	Alloc cluster.Alloc
	// Granted is Alloc.Total(), for convenience.
	Granted int
	// Domains is the number of fabric domains Alloc+Anchor spans.
	Domains int
	// Locality classifies Alloc+Anchor on the topology.
	Locality cluster.Locality
}

// Engine is a deterministic pack-to-empty placer bound to one topology tree.
// It is stateless beyond the immutable tree, so one Engine is safe for
// concurrent use.
type Engine struct {
	tree *topology.Tree
}

// New returns an Engine packing onto tree.
func New(tree *topology.Tree) *Engine { return &Engine{tree: tree} }

// Tree returns the topology tree the engine packs onto.
func (e *Engine) Tree() *topology.Tree { return e.tree }

// Pack produces the placement plan for req given the current free vector.
func (e *Engine) Pack(free cluster.Alloc, req Request) Plan {
	alloc := e.Place(free, req.Anchor, req.GPUs, req.Constraint)
	topo := e.tree.Topology()
	combined := alloc.Add(req.Anchor)
	domains := make(map[cluster.DomainID]bool)
	for _, m := range combined.Machines() {
		domains[topo.Domain(m)] = true
	}
	return Plan{
		Alloc:    alloc,
		Granted:  alloc.Total(),
		Domains:  len(domains),
		Locality: cluster.LocalityOf(topo, combined),
	}
}

// Place selects up to want GPUs from free for a job anchored at anchor under
// constraint c, implementing the sim.Packer contract. The result never
// exceeds free, never violates c when combined with anchor, and is fully
// determined by its inputs.
func (e *Engine) Place(free cluster.Alloc, anchor cluster.Alloc, want int, c placement.Constraint) cluster.Alloc {
	topo := e.tree.Topology()
	// The engine's policy is the order machines are offered in; the picker's
	// Take keeps every offer within want and c. One picker per call, because
	// an Engine may serve several goroutines.
	var p placement.Picker
	eligible := p.Scratch(free)
	picked := p.Begin(nil, topo, eligible, anchor, want, c)
	if want <= 0 {
		return picked
	}

	// Step 1: extend the anchor in place — its machines first (largest share
	// first), then the remaining machines of domains it already occupies, so
	// a growing gang stays inside its fabric.
	if anchor.Total() > 0 {
		for _, m := range p.ByCount(anchor) {
			p.Take(m)
		}
		if p.Need() > 0 {
			anchorDomains := make(map[cluster.DomainID]bool)
			for _, m := range anchor.Machines() {
				anchorDomains[topo.Domain(m)] = true
			}
			for _, m := range p.ByCount(eligible) {
				if anchorDomains[topo.Domain(m)] {
					p.Take(m)
				}
			}
		}
		if p.Need() == 0 {
			return picked
		}
	}

	// Free capacity per domain, over what remains on machines c admits.
	domainFree := make(map[cluster.DomainID]int)
	for m, n := range eligible {
		if n > 0 && c.Admits(topo, m) {
			domainFree[topo.Domain(m)] += n
		}
	}
	domains := make([]cluster.DomainID, 0, len(domainFree))
	for d := range domainFree {
		domains = append(domains, d)
	}

	// Step 2: pack to empty — among domains that fit the remaining need
	// whole, pick the one with the least residual free capacity (ties by
	// lowest ID), so small holes fill first and large domains stay whole.
	var fitting []cluster.DomainID
	for _, d := range domains {
		if domainFree[d] >= p.Need() {
			fitting = append(fitting, d)
		}
	}
	if len(fitting) > 0 {
		sort.Slice(fitting, func(i, j int) bool {
			if domainFree[fitting[i]] != domainFree[fitting[j]] {
				return domainFree[fitting[i]] < domainFree[fitting[j]]
			}
			return fitting[i] < fitting[j]
		})
		for _, d := range fitting {
			fillDomain(&p, topo, d, eligible)
			if p.Need() == 0 {
				return picked
			}
			// Constraints (floor/cap) may have blocked the fit; try the next
			// fitting domain before falling through to the spill.
		}
	}

	// Step 3: no single domain fits — spill across domains by descending
	// free capacity (ties by lowest ID) to minimise the number of cuts.
	sort.Slice(domains, func(i, j int) bool {
		if domainFree[domains[i]] != domainFree[domains[j]] {
			return domainFree[domains[i]] > domainFree[domains[j]]
		}
		return domains[i] < domains[j]
	})
	for _, d := range domains {
		fillDomain(&p, topo, d, eligible)
		if p.Need() == 0 {
			return picked
		}
	}
	return picked
}

// fillDomain offers the domain's machines to the draw in descending-free,
// ascending-ID order.
func fillDomain(p *placement.Picker, topo *cluster.Topology, d cluster.DomainID, eligible cluster.Alloc) {
	for _, m := range p.ByCount(eligible) {
		if topo.Domain(m) == d {
			p.Take(m)
		}
	}
}
