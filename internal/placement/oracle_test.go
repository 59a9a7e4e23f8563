package placement

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"themis/internal/cluster"
	"themis/internal/topology"
)

// oracle is the Picker as it was before its pool became dense, with the
// locality-best ladder as it was before the rack walk. Its pool is a map the
// caller owns: Scratch copies free into one, and Take, Draw, DrawSpread and
// Split debit whatever map they are given. The ladder is the pre-walk one:
// ByCount sorting with two map lookups per comparison, pass 2 sorting the
// whole pool, and takePacked re-sorting the whole pool once for every
// (domain, rack) pair. The bodies below are verbatim. The differential tests
// hold the Picker to it, dst, shares and remaining pool alike.
type oracle struct {
	scratch     cluster.Alloc
	topo        *cluster.Topology
	dst         cluster.Alloc
	pool        cluster.Alloc
	anchor      cluster.Alloc
	need        int
	c           Constraint
	constrained bool
	floor       int
	fresh       int

	byCount       []cluster.MachineID
	anchorRacks   map[cluster.RackID]bool
	anchorDomains map[cluster.DomainID]bool
	rackFree      map[cluster.RackID]int
	domainFree    map[cluster.DomainID]int
	domains       []cluster.DomainID
	racks         []cluster.RackID
}

func (p *oracle) Scratch(free cluster.Alloc) cluster.Alloc {
	if p.scratch == nil {
		p.scratch = cluster.NewAlloc()
	}
	clear(p.scratch)
	for m, n := range free {
		if n != 0 {
			p.scratch[m] = n
		}
	}
	return p.scratch
}

func (p *oracle) Begin(dst cluster.Alloc, topo *cluster.Topology, pool, anchor cluster.Alloc, count int, c Constraint) cluster.Alloc {
	dst = dst.Reset()
	p.topo, p.dst, p.pool, p.anchor = topo, dst, pool, anchor
	p.need = max(count, 0)
	p.c, p.constrained = c, !c.IsZero()
	p.floor = max(c.MinGPUsPerMachine, 1)
	p.fresh = -1
	if c.MaxMachines > 0 {
		p.fresh = c.MaxMachines
		for _, n := range anchor {
			if n > 0 && p.fresh > 0 {
				p.fresh--
			}
		}
	}
	return dst
}

func (p *oracle) Take(m cluster.MachineID) {
	have := p.pool[m]
	n := min(have, p.need)
	if n <= 0 {
		return
	}
	if p.constrained {
		if !p.c.Admits(p.topo, m) {
			return
		}
		base := p.anchor[m] + p.dst[m]
		if base+n < p.floor {
			return
		}
		if base == 0 && p.fresh >= 0 {
			if p.fresh == 0 {
				return
			}
			p.fresh--
		}
	}
	p.dst[m] += n
	p.need -= n
	if n == have {
		delete(p.pool, m)
	} else {
		p.pool[m] = have - n
	}
}

func (p *oracle) DrawSpread(dst, pool cluster.Alloc, count int) cluster.Alloc {
	dst = dst.Reset()
	ids := p.byCount[:0]
	for m, n := range pool {
		if n > 0 {
			ids = append(ids, m)
		}
	}
	slices.Sort(ids)
	p.byCount = ids
	for progress := true; count > 0 && progress; {
		progress = false
		for _, m := range ids {
			have := pool[m]
			if count == 0 || have <= 0 {
				continue
			}
			dst[m]++
			count--
			progress = true
			if have == 1 {
				delete(pool, m)
			} else {
				pool[m] = have - 1
			}
		}
	}
	return dst
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
// every share cleared, then the jobs served in the eager order. It is the
// map-pool Split of before the dense pool with the eager order for the lazy
// queue, so it holds the queue's use to the exchange sort as well.
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
// included), an anchor, a request, a constraint, a job split and a sequence
// of draws from one load.
type drawCase struct {
	free, anchor cluster.Alloc
	count        int
	c            Constraint
	jobs         []SplitJob
	budget       int
	steps        []drawStep
}

// drawStep is one step of a sequence from one load, as the policies, the
// estimator and the simulator make them: a draw of count GPUs (anchored at
// anchor, which may be nil), or extra GPUs loaded on top.
type drawStep struct {
	kind   int
	count  int
	anchor cluster.Alloc
	extra  cluster.Alloc
}

// The kinds of drawStep.
const (
	stepDraw        = iota
	stepSpread      // the placement-blind draw (Tiresias, SLAQ, resource-fair)
	stepConstrained // the constrained ladder, under the case's constraint
	stepPeek        // a draw handed back (Gandiva's candidates, bid rows)
	stepCredit      // extra GPUs loaded on top (the estimator, usableWith)
	stepSplit       // a job split with the step's count as budget
	numSteps
)

var stepNames = [numSteps]string{"Draw", "DrawSpread", "drawConstrained", "peek", "Credit", "Split"}

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
	for range rng.Intn(8) {
		s := drawStep{kind: rng.Intn(numSteps), count: 1 + rng.Intn(8)}
		if rng.Intn(2) == 0 {
			s.anchor = dc.anchor
		}
		if s.kind == stepCredit {
			s.extra, _ = randomPool(rng, topo)
		}
		dc.steps = append(dc.steps, s)
	}
	return dc
}

// checkTallies fails unless the picker's rack and domain tallies and its
// total are the sums of its per-machine pool, and every machine holding GPUs
// is listed for the next Load to clear.
func checkTallies(t *testing.T, p *Picker, what string) {
	t.Helper()
	racks, domains, total := make([]int, p.topo.NumRacks()), make([]int, p.topo.NumDomains()), 0
	for i, n := range p.free {
		m := cluster.MachineID(i)
		if n != 0 && !p.listed[m] {
			t.Fatalf("%s: machine %d holds %d GPUs but is not listed", what, m, n)
		}
		racks[p.topo.RackIndex(m)] += n
		domains[p.topo.DomainIndex(m)] += n
		total += n
	}
	if !slices.Equal(racks, p.rackFree) || !slices.Equal(domains, p.domainFree) || total != p.total {
		t.Fatalf("%s: tallies racks %v domains %v total %d, the pool sums to %v %v %d",
			what, p.rackFree, p.domainFree, p.total, racks, domains, total)
	}
}

// checkAgainstOracle runs one case through PickInto, Draw, the constrained
// ladder, DrawSpread, Split and the case's sequence of draws from one load on
// p and on the oracle o, and fails unless every dst and share is identical
// key for key, the picker's pool read back is the oracle's map pool, and the
// picker's tallies add up after every form. What every draw reports of itself
// (Drawn) must be its dst's Total and locality; every Split must hold to
// checkSplit.
func checkAgainstOracle(t *testing.T, p *Picker, o *oracle, topo *cluster.Topology, dc drawCase, what string) {
	t.Helper()
	same := func(form string, got, want cluster.Alloc) {
		t.Helper()
		if !maps.Equal(got, want) {
			t.Fatalf("%s: %s = %v, oracle %v (free %v anchor %v count %d constraint %+v)",
				what, form, got, want, dc.free, dc.anchor, dc.count, dc.c)
		}
	}
	left := func(form string, oPool cluster.Alloc) {
		t.Helper()
		same("pool after "+form, p.Remaining(nil), oPool)
		checkTallies(t, p, what+": "+form)
	}
	// drew checks what a draw reports of itself (Drawn) against its dst, and
	// returns dst.
	drew := func(form string, dst cluster.Alloc) cluster.Alloc {
		t.Helper()
		checkDrawn(t, topo, what+": "+form, dst, p.Drawn)
		return dst
	}
	// load loads free into p and returns the oracle's map of it.
	load := func() cluster.Alloc {
		p.Load(topo, dc.free)
		return dc.free.Clone()
	}

	same("PickInto", drew("PickInto", p.PickInto(nil, topo, dc.free, dc.anchor, dc.count)), o.PickInto(nil, topo, dc.free, dc.anchor, dc.count))
	left("PickInto", o.scratch)

	oPool := load()
	same("Draw", drew("Draw", p.Draw(nil, dc.anchor, dc.count)), o.Draw(nil, topo, oPool, dc.anchor, dc.count))
	left("Draw", oPool)

	oPool = load()
	same("drawConstrained", drew("drawConstrained", p.drawConstrained(nil, dc.anchor, dc.count, dc.c)),
		o.drawConstrained(nil, topo, oPool, dc.anchor, dc.count, dc.c))
	left("drawConstrained", oPool)

	oPool = load()
	same("DrawSpread", drew("DrawSpread", p.DrawSpread(nil, dc.count)), o.DrawSpread(nil, oPool, dc.count))
	left("DrawSpread", oPool)

	oPool = load()
	q := SplitQueue{Jobs: dc.jobs}
	q.Reset()
	oShares := make([]cluster.Alloc, len(dc.jobs))
	o.Split(oShares, topo, oPool, dc.budget, dc.jobs, splitOrderExchange(nil, dc.jobs))
	checkSplit(t, p, &q, dc.budget, oShares, what+": Split")
	left("Split", oPool)

	// Again through the same queue, with another budget: the runs of the
	// jobs the first split served and this one does not must be empty.
	budget := dc.free.Total() - dc.budget
	oPool = load()
	o.Split(oShares, topo, oPool, budget, dc.jobs, splitOrderExchange(nil, dc.jobs))
	checkSplit(t, p, &q, budget, oShares, what+": re-Split")
	left("re-Split", oPool)

	// Several draws from one load, each seeing what the last left.
	oPool = load()
	for k, s := range dc.steps {
		form := fmt.Sprintf("step %d (%s)", k, stepNames[s.kind])
		switch s.kind {
		case stepDraw:
			same(form, drew(form, p.Draw(nil, s.anchor, s.count)), o.Draw(nil, topo, oPool, s.anchor, s.count))
		case stepSpread:
			same(form, drew(form, p.DrawSpread(nil, s.count)), o.DrawSpread(nil, oPool, s.count))
		case stepConstrained:
			same(form, drew(form, p.drawConstrained(nil, s.anchor, s.count, dc.c)), o.drawConstrained(nil, topo, oPool, s.anchor, s.count, dc.c))
		case stepPeek:
			got := drew(form, p.Draw(nil, s.anchor, s.count))
			p.Credit(got)
			same(form, got, o.PickInto(nil, topo, oPool, s.anchor, s.count))
		case stepCredit:
			p.Credit(s.extra)
			oPool.Credit(s.extra)
		case stepSplit:
			q.Reset()
			o.Split(oShares, topo, oPool, s.count, dc.jobs, splitOrderExchange(nil, dc.jobs))
			checkSplit(t, p, &q, s.count, oShares, what+": "+form)
		}
		left(form, oPool)
	}
}

// mapSplit is Picker.Split as it was before it logged its takes, verbatim:
// it filled a map per served job (shares, indexed like q.Jobs; allocated when
// nil) and cleared the shares the previous Split through q served. It is the
// dense picker's split with shares for the log, so it holds the log, the runs
// and the hand-back to the map-filling draws.
func mapSplit(p *Picker, shares []cluster.Alloc, budget int, q *SplitQueue) []int {
	pos := 0
	for ; pos < len(q.order) && budget > 0 && p.total > 0; pos++ {
		i := q.At(pos)
		j := &q.Jobs[i]
		if j.Unresolvable {
			j.gpus, j.span = 0, int8(cluster.LocalitySlot)
			continue
		}
		want := min(j.Want, budget)
		got := p.Draw(shares[i], nil, want)
		if !j.Constraint.IsZero() && !Satisfies(p.topo, got, j.Constraint) {
			p.Credit(got)
			got = p.drawConstrained(got, nil, want, j.Constraint)
		}
		shares[i] = got
		gpus, loc := p.Drawn()
		j.gpus, j.span = int32(gpus), int8(loc)
		budget -= gpus
	}
	for _, i := range q.order[min(pos, q.served):q.served] {
		clear(shares[i])
	}
	q.served = pos
	return q.order[:pos]
}

// runAlloc sums a run of takes per machine, failing if the run takes from a
// machine twice or takes nothing.
func runAlloc(t *testing.T, run []Take, what string) cluster.Alloc {
	t.Helper()
	a := cluster.NewAlloc()
	for _, tk := range run {
		if _, twice := a[tk.Machine]; twice || tk.GPUs <= 0 {
			t.Fatalf("%s: run %v takes from machine %d twice or takes nothing", what, run, tk.Machine)
		}
		a[tk.Machine] = tk.GPUs
	}
	return a
}

// checkSplit splits p's pool through q (already Reset, perhaps split through
// before) with budget, and mapSplit a copy of the pool through a fresh queue
// over the same jobs. Both must serve the same jobs and leave the same pool;
// every job's run, summed per machine, must be mapSplit's share and the
// map-pool oracle's (want, indexed like q.Jobs), empty unless the job was
// served; and every served job's run must satisfy its constraint, with
// Drawn its Total and locality.
func checkSplit(t *testing.T, p *Picker, q *SplitQueue, budget int, want []cluster.Alloc, what string) {
	t.Helper()
	var mp Picker
	mp.Load(p.topo, p.Remaining(nil))
	mq := SplitQueue{Jobs: slices.Clone(q.Jobs)}
	mq.Reset()
	shares := make([]cluster.Alloc, len(q.Jobs))
	mServed := slices.Clone(mapSplit(&mp, shares, budget, &mq))
	served := p.Split(budget, q, nil)
	if !slices.Equal(served, mServed) {
		t.Fatalf("%s: served %v, the map-filling split served %v", what, served, mServed)
	}
	if got, mLeft := p.Remaining(nil), mp.Remaining(nil); !maps.Equal(got, mLeft) {
		t.Fatalf("%s: the split leaves %v, the map-filling split %v", what, got, mLeft)
	}
	for i := range q.Jobs {
		job := fmt.Sprintf("%s job %d", what, i)
		got := runAlloc(t, q.Run(i), job)
		if !maps.Equal(got, shares[i]) || !maps.Equal(got, want[i]) {
			t.Fatalf("%s: run %v, the map-filling split's share %v, the oracle's %v", job, q.Run(i), shares[i], want[i])
		}
		if !slices.Contains(served, i) {
			if len(got) > 0 {
				t.Fatalf("%s: not served, but its run is %v", job, q.Run(i))
			}
			continue
		}
		checkDrawn(t, p.topo, job, got, q.Jobs[i].Drawn)
		if !Satisfies(p.topo, got, q.Jobs[i].Constraint) {
			t.Fatalf("%s: run %v breaks its constraint %+v", job, q.Run(i), q.Jobs[i].Constraint)
		}
	}
}

// checkDrawn requires what a draw or a Split reported of a share (drawn: its
// GPU count and locality) to be the share's Total and cluster.LocalityOf.
func checkDrawn(t *testing.T, topo *cluster.Topology, what string, share cluster.Alloc, drawn func() (int, cluster.Locality)) {
	t.Helper()
	g, loc := drawn()
	if want, wantLoc := share.Total(), cluster.LocalityOf(topo, share); g != want || loc != wantLoc {
		t.Fatalf("%s: the draw reports %d GPUs at %v locality, its share %v holds %d at %v", what, g, loc, share, want, wantLoc)
	}
}

// TestDrawMatchesOracle is the dense pool's and the rack walk's contract: on
// the paper's clusters, the fabric cluster and random sparse-ID multi-domain
// topologies, every form of the picker takes exactly what the map-pool,
// pre-walk picker took and leaves the pool exactly as it did, alone and in
// sequences of draws from one load, and reports the GPU count and locality of
// what it took — 10 000 seeded cases, on reused pickers.
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
