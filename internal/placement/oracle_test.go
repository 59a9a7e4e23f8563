package placement

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"themis/internal/cluster"
	"themis/internal/topology"
)

// oracle is the locality-best ladder as it was before the rack walk: ByCount
// sorting with two map lookups per comparison, pass 2 sorting the whole pool,
// and takePacked re-sorting the whole pool once for every (domain, rack)
// pair. The bodies below are verbatim; Begin, Take and Scratch are the
// Picker's own, through the embedding. The differential tests hold the
// Picker to it, dst and debited pool alike.
type oracle struct {
	Picker
	byCount       []cluster.MachineID
	anchorRacks   map[cluster.RackID]bool
	anchorDomains map[cluster.DomainID]bool
	rackFree      map[cluster.RackID]int
	domainFree    map[cluster.DomainID]int
	domains       []cluster.DomainID
	racks         []cluster.RackID
}

func (p *oracle) ByCount(a cluster.Alloc) []cluster.MachineID {
	ids := p.byCount[:0]
	for m, n := range a {
		if n > 0 {
			ids = append(ids, m)
		}
	}
	slices.SortFunc(ids, func(x, y cluster.MachineID) int {
		if a[x] != a[y] {
			return cmp.Compare(a[y], a[x])
		}
		return cmp.Compare(x, y)
	})
	p.byCount = ids
	return ids
}

func (p *oracle) PickInto(dst cluster.Alloc, topo *cluster.Topology, free, anchor cluster.Alloc, count int) cluster.Alloc {
	return p.Draw(dst, topo, p.Scratch(free), anchor, count)
}

func (p *oracle) Draw(dst cluster.Alloc, topo *cluster.Topology, pool, anchor cluster.Alloc, count int) cluster.Alloc {
	dst = p.Begin(dst, topo, pool, anchor, count, Constraint{})
	if p.takeNearAnchor() {
		p.takePacked()
	}
	return dst
}

func (p *oracle) drawConstrained(dst cluster.Alloc, topo *cluster.Topology, pool, anchor cluster.Alloc, count int, c Constraint) cluster.Alloc {
	dst = p.Begin(dst, topo, pool, anchor, count, c)
	if p.takeNearAnchor() {
		for _, m := range p.ByCount(pool) {
			p.Take(m)
		}
	}
	return dst
}

func (p *oracle) takeNearAnchor() bool {
	if p.need == 0 {
		return false
	}
	// Pass 1: machines the anchor already uses, largest anchor share first.
	for _, m := range p.ByCount(p.anchor) {
		p.Take(m)
	}
	if p.need == 0 {
		return false
	}
	// Pass 2: machines in racks the anchor already touches. The by-free
	// order is snapshotted once, before any pass-2 take.
	if p.anchorRacks == nil {
		p.anchorRacks = make(map[cluster.RackID]bool)
	}
	clear(p.anchorRacks)
	for m, n := range p.anchor {
		if n > 0 {
			p.anchorRacks[p.topo.Rack(m)] = true
		}
	}
	if len(p.anchorRacks) > 0 {
		for _, m := range p.ByCount(p.pool) {
			if p.need == 0 {
				return false
			}
			if p.anchorRacks[p.topo.Rack(m)] {
				p.Take(m)
			}
		}
	}
	return p.need > 0
}

func (p *oracle) takePacked() {
	topo, pool := p.topo, p.pool
	if p.anchorDomains == nil {
		p.anchorDomains = make(map[cluster.DomainID]bool)
		p.rackFree = make(map[cluster.RackID]int)
		p.domainFree = make(map[cluster.DomainID]int)
	}
	clear(p.anchorDomains)
	clear(p.rackFree)
	clear(p.domainFree)
	for m, n := range p.anchor {
		if n > 0 {
			p.anchorDomains[topo.Domain(m)] = true
		}
	}
	for m, n := range pool {
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
			for _, m := range p.ByCount(pool) {
				if topo.Rack(m) != r || topo.Domain(m) != d {
					continue
				}
				p.Take(m)
				if p.need == 0 {
					return
				}
			}
		}
	}
}

// splitOrderExchange is the job split's order as it was before SplitQueue
// sorted it lazily, verbatim: the indices of the jobs wanting GPUs, least
// work left first, by an eager exchange sort.
func splitOrderExchange(order []int, jobs []SplitJob) []int {
	order = order[:0]
	for i := range jobs {
		if jobs[i].Want > 0 {
			order = append(order, i)
		}
	}
	// The exchange sort is kept as is: it is not stable, and neither bid
	// tables nor job splits may change with how ties happen to fall.
	for i := 0; i < len(order); i++ {
		for k := i + 1; k < len(order); k++ {
			if jobs[order[k]].WorkLeft < jobs[order[i]].WorkLeft {
				order[i], order[k] = order[k], order[i]
			}
		}
	}
	return order
}

// Split is the job split as it was before it served a SplitQueue, verbatim:
// every share cleared, then the jobs served in the eager order.
func (p *oracle) Split(shares []cluster.Alloc, topo *cluster.Topology, pool cluster.Alloc, budget int, jobs []SplitJob, order []int) {
	for _, share := range shares {
		clear(share)
	}
	for _, i := range order {
		if budget <= 0 || len(pool) == 0 {
			return
		}
		j := &jobs[i]
		if j.Unresolvable {
			continue
		}
		want := min(j.Want, budget)
		got := p.Draw(shares[i], topo, pool, nil, want)
		if !j.Constraint.IsZero() && !Satisfies(topo, got, j.Constraint) {
			for m, n := range got {
				pool[m] += n
			}
			got = p.drawConstrained(got, topo, pool, nil, want, j.Constraint)
		}
		shares[i] = got
		budget -= got.Total()
	}
}

// namedTopo is one topology the differential tests draw on.
type namedTopo struct {
	name string
	topo *cluster.Topology
}

// simFabricTopo is the "sim-fabric" cluster: the simulated fleet in three
// fabric domains, two P100 pods of two 12-machine racks and a mixed pod of a
// V100 and a K80 rack.
func simFabricTopo(tb testing.TB) *cluster.Topology {
	tb.Helper()
	p100Rack := topology.RackSpec{Machines: []topology.MachineGroup{
		{Count: 12, GPUs: 4, SlotSize: 2, Flavor: cluster.GPUTypeP100},
	}}
	topo, err := topology.Spec{
		Name: "sim-fabric",
		Regions: []topology.RegionSpec{{
			Name: "default",
			Domains: []topology.DomainSpec{
				{Name: "pod-a", Racks: []topology.RackSpec{p100Rack, p100Rack}},
				{Name: "pod-b", Racks: []topology.RackSpec{p100Rack, p100Rack}},
				{Name: "pod-c", Racks: []topology.RackSpec{
					{Machines: []topology.MachineGroup{{Count: 24, GPUs: 2, SlotSize: 2, Flavor: cluster.GPUTypeV100}}},
					{Machines: []topology.MachineGroup{{Count: 16, GPUs: 1, SlotSize: 1, Flavor: cluster.GPUTypeK80}}},
				}},
			},
		}},
	}.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// randomTopo builds a multi-domain topology whose IDs are sparse and
// scattered: rack and domain IDs have gaps and follow no domain order, and a
// rack's machine IDs are not contiguous.
func randomTopo(tb testing.TB, rng *rand.Rand) *cluster.Topology {
	tb.Helper()
	flavors := []cluster.GPUType{cluster.GPUTypeP100, cluster.GPUTypeV100, cluster.GPUTypeK80}
	nd := 1 + rng.Intn(4)
	domainIDs := rng.Perm(nd + 2)[:nd] // mostly within randomConstraint's reach
	var machines []cluster.Machine
	var racks [][2]int // (rack ID, domain ID), rack IDs assigned below
	for _, d := range domainIDs {
		for range 1 + rng.Intn(3) {
			racks = append(racks, [2]int{0, d})
		}
	}
	rackIDs := rng.Perm(4 * len(racks))
	for i := range racks {
		racks[i][0] = rackIDs[i] - len(racks) // some rack IDs are negative
		gpus := []int{1, 2, 4, 8}[rng.Intn(4)]
		flavor := flavors[rng.Intn(len(flavors))]
		for range 1 + rng.Intn(5) {
			machines = append(machines, cluster.Machine{
				Rack: cluster.RackID(racks[i][0]), Domain: cluster.DomainID(racks[i][1]),
				NumGPUs: gpus, SlotSize: min(gpus, 2), GPU: flavor,
			})
		}
	}
	for i, id := range rng.Perm(len(machines)) {
		machines[i].ID = cluster.MachineID(id)
	}
	topo, err := cluster.NewTopology(machines)
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// drawCase is one differential case: a free vector (zero-valued keys
// included), an anchor, a request, a constraint and a job split.
type drawCase struct {
	free, anchor cluster.Alloc
	count        int
	c            Constraint
	jobs         []SplitJob
	budget       int
}

// randomCase draws a case over topo: mostly small requests, the rest up to the
// whole free pool.
func randomCase(rng *rand.Rand, topo *cluster.Topology) drawCase {
	var dc drawCase
	dc.free, dc.anchor = randomPool(rng, topo)
	if rng.Intn(3) == 0 {
		clear(dc.anchor)
	}
	if rng.Intn(2) == 0 {
		dc.count = 1 + rng.Intn(8)
	} else {
		dc.count = rng.Intn(dc.free.Total() + 3)
	}
	dc.c = randomConstraint(rng, topo)
	for range 1 + rng.Intn(4) {
		j := SplitJob{Want: rng.Intn(13), WorkLeft: float64(rng.Intn(4))}
		if rng.Intn(2) == 0 {
			j.Constraint = randomConstraint(rng, topo)
		}
		j.Unresolvable = rng.Intn(10) == 0
		dc.jobs = append(dc.jobs, j)
	}
	dc.budget = rng.Intn(dc.free.Total() + 3)
	return dc
}

// checkAgainstOracle runs one case through PickInto, Draw, the constrained
// ladder and Split on p and on the oracle o, and fails unless every dst, share
// and debited pool is identical, key for key.
func checkAgainstOracle(t *testing.T, p *Picker, o *oracle, topo *cluster.Topology, dc drawCase, what string) {
	t.Helper()
	same := func(form string, got, want cluster.Alloc) {
		t.Helper()
		if !maps.Equal(got, want) {
			t.Fatalf("%s: %s = %v, oracle %v (free %v anchor %v count %d constraint %+v)",
				what, form, got, want, dc.free, dc.anchor, dc.count, dc.c)
		}
	}

	same("PickInto", p.PickInto(nil, topo, dc.free, dc.anchor, dc.count), o.PickInto(nil, topo, dc.free, dc.anchor, dc.count))
	same("PickInto's debited copy", p.scratch, o.scratch)

	pool, oPool := maps.Clone(dc.free), maps.Clone(dc.free)
	same("Draw", p.Draw(nil, topo, pool, dc.anchor, dc.count), o.Draw(nil, topo, oPool, dc.anchor, dc.count))
	same("pool after Draw", pool, oPool)

	pool, oPool = maps.Clone(dc.free), maps.Clone(dc.free)
	same("drawConstrained", p.drawConstrained(nil, topo, pool, dc.anchor, dc.count, dc.c),
		o.drawConstrained(nil, topo, oPool, dc.anchor, dc.count, dc.c))
	same("pool after drawConstrained", pool, oPool)

	pool, oPool = maps.Clone(dc.free), maps.Clone(dc.free)
	q := SplitQueue{Jobs: dc.jobs}
	q.Reset()
	shares, oShares := make([]cluster.Alloc, len(dc.jobs)), make([]cluster.Alloc, len(dc.jobs))
	p.Split(shares, topo, pool, dc.budget, &q)
	o.Split(oShares, topo, oPool, dc.budget, dc.jobs, splitOrderExchange(nil, dc.jobs))
	for i := range shares {
		same("Split share", shares[i], oShares[i])
	}
	same("pool after Split", pool, oPool)

	// Again through the same queue onto the same shares, with another budget:
	// the shares the first split served and this one does not must be empty.
	budget := dc.free.Total() - dc.budget
	pool, oPool = maps.Clone(dc.free), maps.Clone(dc.free)
	p.Split(shares, topo, pool, budget, &q)
	o.Split(oShares, topo, oPool, budget, dc.jobs, splitOrderExchange(nil, dc.jobs))
	for i := range shares {
		same("re-Split share", shares[i], oShares[i])
	}
	same("pool after re-Split", pool, oPool)
}

// TestDrawMatchesOracle is the rack walk's contract: on the paper's clusters,
// the fabric cluster and random sparse-ID multi-domain topologies, every form
// of the picker takes exactly what the pre-walk ladder took and leaves the
// pool exactly as it did — 10 000 seeded cases, on reused pickers.
func TestDrawMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	topos := []namedTopo{
		{"sim", cluster.SimulationCluster()},
		{"sim-fabric", simFabricTopo(t)},
		{"testbed", cluster.TestbedCluster()},
	}
	for range 40 {
		topos = append(topos, namedTopo{"random", randomTopo(t, rng)})
	}
	var p Picker
	var o oracle
	const cases = 10_000
	for i := range cases {
		// A third of the cases on each named cluster; the rest spread over
		// the random ones.
		nt := topos[i%3]
		if i%4 == 3 {
			nt = topos[3+rng.Intn(len(topos)-3)]
		}
		checkAgainstOracle(t, &p, &o, nt.topo, randomCase(rng, nt.topo), nt.name)
	}
}

// FuzzDrawMatchesOracle explores the same contract from fuzzed pools: data
// gives each machine's free count and anchor share, seed the rest of the case.
func FuzzDrawMatchesOracle(f *testing.F) {
	topos := []*cluster.Topology{cluster.SimulationCluster(), simFabricTopo(f), cluster.TestbedCluster()}
	f.Add(uint8(0), int64(1), []byte{4, 0, 3, 1, 2, 2, 0, 4})
	f.Add(uint8(1), int64(2), []byte{0, 0, 4, 2, 4, 0, 1, 1, 3})
	f.Add(uint8(3), int64(3), []byte{255, 1, 7, 0, 9})
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		var topo *cluster.Topology
		if int(kind)%4 < len(topos) {
			topo = topos[int(kind)%4]
		} else {
			topo = randomTopo(t, rng)
		}
		dc := randomCase(rng, topo)
		clear(dc.free)
		clear(dc.anchor)
		for i, b := range data {
			m := cluster.MachineID(i / 2 % topo.NumMachines())
			n := int(b) % (topo.Machine(m).NumGPUs + 2)
			switch {
			case i%2 == 1:
				if n > 0 {
					dc.anchor[m] = n
				}
			case n > topo.Machine(m).NumGPUs:
				delete(dc.free, m)
			default:
				dc.free[m] = n // zero-valued keys stay
			}
		}
		checkAgainstOracle(t, new(Picker), new(oracle), topo, dc, "fuzz")
	})
}

// checkSplitQueue resets q over the jobs in q.Jobs and asks for positions in
// an order rng draws: growing prefixes in steps of any size, mixed with repeats of
// positions already sorted, up to a random final length — so the next Reset
// often lands on a half-sorted queue. After every ask, each position up to
// the farthest asked for must hold the eager exchange sort's job.
func checkSplitQueue(t *testing.T, q *SplitQueue, rng *rand.Rand) {
	t.Helper()
	want := splitOrderExchange(nil, q.Jobs)
	q.Reset()
	if len(q.order) != len(want) {
		t.Fatalf("the queue holds %d jobs after Reset, the exchange sort orders %d", len(q.order), len(want))
	}
	upto := len(want)
	if rng.Intn(3) == 0 {
		upto = rng.Intn(len(want) + 1)
	}
	for reach := -1; reach < upto-1; {
		pos := reach + 1 + rng.Intn(min(upto-reach-1, 1+rng.Intn(8)))
		if reach >= 0 && rng.Intn(4) == 0 {
			pos = rng.Intn(reach + 1)
		}
		q.At(pos)
		reach = max(reach, pos)
		for k := range reach + 1 {
			if got := q.At(k); got != want[k] {
				t.Fatalf("position %d holds job %d after asking for %d, the exchange sort puts job %d there (order %v, jobs %v)",
					k, got, pos, want[k], want, q.Jobs)
			}
		}
	}
}

// TestSplitQueueMatchesExchangeSort is the lazy order's contract: over 20 000
// seeded job sets of 0–120 jobs with few distinct work-left values (ties are
// the rule) and some jobs wanting nothing, every prefix the queue is asked
// for, in any order of growth, is the eager exchange sort's prefix. One queue
// serves every set, refilled in place, so each Reset must forget the last
// set's order however far it was sorted.
func TestSplitQueueMatchesExchangeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var q SplitQueue
	for range 20_000 {
		q.Jobs = q.Jobs[:0]
		levels := 1 + rng.Intn(8)
		for range rng.Intn(121) {
			q.Jobs = append(q.Jobs, SplitJob{Want: rng.Intn(5), WorkLeft: 12.5 * float64(rng.Intn(levels))})
		}
		checkSplitQueue(t, &q, rng)
	}
}

// FuzzSplitQueueMatchesExchangeSort explores the same contract from fuzzed
// job sets: each byte of data is a job, its top two bits the GPUs it wants
// and its low four its work left; seed draws the order of the asks. The
// reversed set then goes through the same queue.
func FuzzSplitQueueMatchesExchangeSort(f *testing.F) {
	f.Add(int64(1), []byte{0x43, 0x81, 0x03, 0xc1, 0x43, 0x40, 0xff})
	f.Add(int64(2), []byte{0x40, 0x40, 0x40, 0x40})
	f.Add(int64(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		q := SplitQueue{Jobs: make([]SplitJob, len(data))}
		for i, b := range data {
			q.Jobs[i] = SplitJob{Want: int(b >> 6), WorkLeft: float64(b & 15)}
		}
		checkSplitQueue(t, &q, rng)
		slices.Reverse(q.Jobs)
		checkSplitQueue(t, &q, rng)
	})
}
