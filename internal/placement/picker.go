package placement

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"themis/internal/cluster"
)

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

// Satisfies reports whether alloc meets the full constraint set on topo:
// every machine it uses is admitted and holds at least the per-machine floor,
// and it spans at most MaxMachines machines. Allocations violating the
// constraint have placement sensitivity 0 and cannot make progress (§6 and the
// trace v2 placement block). An empty allocation trivially satisfies any
// constraint.
func Satisfies(topo *cluster.Topology, alloc cluster.Alloc, c Constraint) bool {
	used := 0
	for m, n := range alloc {
		if n <= 0 {
			continue
		}
		used++
		if n < c.MinGPUsPerMachine || c.MaxMachines > 0 && used > c.MaxMachines || !c.Admits(topo, m) {
			return false
		}
	}
	return true
}

// PickConstrained greedily selects up to count GPUs from free like PickInto,
// but only produces allocations that keep anchor+picked within the constraint
// set: machines outside the job's domain/flavor affinity are never used, no
// machine ends up under the per-machine GPU floor, and the combined spread
// stays within the machine cap. The result may hold fewer than count GPUs —
// possibly zero — when the constraint admits nothing better; callers decide
// whether a partial gang is worth running.
func PickConstrained(topo *cluster.Topology, free cluster.Alloc, anchor cluster.Alloc, count int, c Constraint) cluster.Alloc {
	var p Picker
	if c.IsZero() {
		return p.PickInto(nil, topo, free, anchor, count)
	}
	p.Load(topo, free)
	return p.drawConstrained(nil, anchor, count, c)
}

// Picker is the one way GPUs leave a pool: the placement-sensitive greedy
// ladder of §5.2 step 4 and §5.1 step 3, its constraint-aware variant, the
// placement-blind round-robin and the job split built on them.
//
// The pool is the picker's own: Load fills a dense per-machine slice with
// per-rack and per-domain tallies, and every draw debits it. A loop loads
// once and draws until the pool runs dry. A locality-best draw ranks racks
// from the tallies and sorts only the racks it visits (see takePacked).
//
// Every draw reads a prepared Anchor: the entry points taking a map prepare it
// into the picker's own first, and DrawTakesAt takes the caller's.
//
// Every buffer is reused, so steady-state loads and draws allocate nothing
// (TestPickerSteadyStateAllocs). The zero value is ready to use. A Picker is
// single-goroutine state; each estimator, simulator, arbiter and policy loop
// owns its own.
type Picker struct {
	// The loaded pool: free GPUs per machine ID and their sums per rack index
	// and per domain index, kept current by every draw; total is the sum of
	// all. loaded lists, once each (listed marks them), the machines the pool
	// has held GPUs on since Load, so the next Load clears only those.
	topo       *cluster.Topology
	free       []int
	rackFree   []int
	domainFree []int
	total      int
	loaded     []cluster.MachineID
	listed     []bool

	byCount  []cluster.MachineID // ByFree's result, and its sort keys while it sorts
	racks    []int               // rack indices, in the order a pass visits them
	prepared Anchor              // the anchor of a draw begun from a map

	// The draw in progress (Begin … Take): where GPUs go to (dst, or with no
	// dst the log of a Split's takes), how many are still wanted, what the
	// constraint still allows, and what the draw has taken so far (Drawn):
	// GPUs, the first machine taken from, and span — the widest boundary the
	// other machines lie beyond it, a cluster.Locality kept in constrained's
	// padding, slot until a second machine is taken.
	dst         cluster.Alloc
	log         *[]Take
	anchor      *Anchor
	need        int
	c           Constraint
	constrained bool
	span        int8
	floor       int // per-machine GPU floor, >= 1
	fresh       int // machines the draw may still open under the spread cap; -1 = no cap
	drawn       int
	first       cluster.MachineID
}

// Load makes free, which is only read, the pool on topo. It costs what free
// and the previous pool hold, not the cluster.
func (p *Picker) Load(topo *cluster.Topology, free cluster.Alloc) {
	if topo != p.topo {
		p.topo = topo
		p.free = zeroed(p.free, topo.NumMachines())
		p.listed = zeroed(p.listed, topo.NumMachines())
		p.rackFree = zeroed(p.rackFree, topo.NumRacks())
		p.domainFree = zeroed(p.domainFree, topo.NumDomains())
	} else {
		for _, m := range p.loaded {
			p.free[m], p.listed[m] = 0, false
			p.rackFree[topo.RackIndex(m)] = 0
			p.domainFree[topo.DomainIndex(m)] = 0
		}
	}
	p.loaded, p.total = p.loaded[:0], 0
	p.Credit(free)
}

// Credit adds a's positive counts to the pool: a draw handed back, or a
// second allocation loaded on top of the first.
func (p *Picker) Credit(a cluster.Alloc) {
	for m, n := range a {
		if n > 0 {
			p.add(m, n)
		}
	}
}

// add changes machine m's free count, and the tallies with it, by n.
func (p *Picker) add(m cluster.MachineID, n int) {
	if !p.listed[m] {
		p.listed[m] = true
		p.loaded = append(p.loaded, m)
	}
	p.free[m] += n
	p.rackFree[p.topo.RackIndex(m)] += n
	p.domainFree[p.topo.DomainIndex(m)] += n
	p.total += n
}

// CreditTakes adds k times each take's GPUs to the pool: k = 1 hands a
// logged draw back, k = -1 debits what was handed back again.
func (p *Picker) CreditTakes(takes []Take, k int) {
	for _, t := range takes {
		p.add(t.Machine, k*t.GPUs)
	}
}

// Topology returns the topology of the pool last loaded.
func (p *Picker) Topology() *cluster.Topology { return p.topo }

// Total returns the GPUs left in the pool.
func (p *Picker) Total() int { return p.total }

// Free returns the GPUs left in the pool on machine m.
func (p *Picker) Free(m cluster.MachineID) int { return p.free[m] }

// Remaining writes what is left in the pool into dst (cleared first;
// allocated when nil) and returns it.
func (p *Picker) Remaining(dst cluster.Alloc) cluster.Alloc {
	dst = dst.Reset()
	for _, m := range p.loaded {
		if n := p.free[m]; n > 0 {
			dst[m] = n
		}
	}
	return dst
}

// Begin starts a draw of up to count GPUs out of the pool into dst (cleared
// first; allocated when nil) for a job anchored at anchor under c, and returns
// dst. The draw then proceeds by Take calls in whatever machine order the
// caller's policy prefers. anchor is only read.
func (p *Picker) Begin(dst, anchor cluster.Alloc, count int, c Constraint) cluster.Alloc {
	dst = dst.Reset()
	p.prepared.Load(p.topo, anchor)
	p.begin(dst, &p.prepared, count, c)
	return dst
}

// Anchor returns the anchor of the draw begun, prepared.
func (p *Picker) Anchor() *Anchor { return p.anchor }

// begin is Begin from a prepared anchor into dst as given: a nil dst makes
// every take go to the log.
func (p *Picker) begin(dst cluster.Alloc, a *Anchor, count int, c Constraint) {
	p.dst, p.anchor = dst, a
	p.need = max(count, 0)
	p.drawn, p.span = 0, int8(cluster.LocalitySlot)
	p.c, p.constrained = c, !c.IsZero()
	p.floor = max(c.MinGPUsPerMachine, 1)
	p.fresh = -1
	if c.MaxMachines > 0 {
		p.fresh = max(c.MaxMachines-len(a.entries), 0)
	}
}

// Need returns how many GPUs the draw in progress still wants.
func (p *Picker) Need() int { return p.need }

// Take moves as many GPUs as the draw still needs from machine m of the pool
// into dst — or none, when that would break the draw's constraint: a machine
// outside the domain/flavor affinity, a machine left under the per-machine
// floor, or a fresh machine beyond the spread cap. The draw holds nothing on m
// yet (see took), so only the anchor counts towards the floor.
func (p *Picker) Take(m cluster.MachineID) {
	n := min(p.free[m], p.need)
	if n <= 0 {
		return
	}
	if p.constrained {
		if !p.c.Admits(p.topo, m) {
			return
		}
		base := 0
		if i := p.anchor.find(m); i >= 0 {
			base = p.anchor.entries[i].GPUs
		}
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
	p.need -= n
	p.put(m, n)
	p.took(m, n)
}

// put moves n GPUs of machine m out of the pool into the draw's dst, or with
// no dst onto its log.
func (p *Picker) put(m cluster.MachineID, n int) {
	if p.dst != nil {
		p.dst[m] += n
	} else {
		*p.log = append(*p.log, Take{Machine: m, GPUs: n})
	}
	p.add(m, -n)
}

// took records that the draw took n GPUs from machine m, which it had taken
// none from before: a successful Take either drains its machine or ends the
// draw, so no draw takes from a machine twice, and DrawSpread records only
// its first sweep.
func (p *Picker) took(m cluster.MachineID, n int) {
	topo := p.topo
	switch {
	case p.drawn == 0:
		p.first = m
	case topo.RackIndex(m) == topo.RackIndex(p.first):
		p.span = max(p.span, int8(cluster.LocalityRack))
	case topo.DomainIndex(m) == topo.DomainIndex(p.first):
		p.span = max(p.span, int8(cluster.LocalityDomain))
	default:
		p.span = int8(cluster.LocalityNone)
	}
	p.drawn += n
}

// Drawn returns how many GPUs the last draw took and the locality they span:
// its dst's Total and cluster.LocalityOf, read off the draw's takes instead
// of the map.
func (p *Picker) Drawn() (gpus int, loc cluster.Locality) {
	loc = cluster.Locality(p.span)
	if p.drawn > 0 && loc == cluster.LocalitySlot && p.drawn > p.topo.Machine(p.first).SlotSize {
		loc = cluster.LocalityMachine
	}
	return p.drawn, loc
}

// ByFree returns the pool's machines ordered by descending free GPUs then
// ascending ID — the order in which a pool packs tightest. The slice is valid
// until the next ByFree call or draw.
func (p *Picker) ByFree() []cluster.MachineID {
	keys := p.byCount[:0]
	for _, m := range p.loaded {
		if n := p.free[m]; n > 0 {
			keys = append(keys, countKey(m, n))
		}
	}
	return p.sortByCount(keys)
}

// countKey packs machine m holding n > 0 GPUs into one integer whose
// ascending order is ByFree's order — more GPUs first, then lower ID — so
// sorting compares plain integers and reads no map. The count takes the high
// 31 bits and the ID the low 32, far more than any machine needs.
func countKey(m cluster.MachineID, n int) cluster.MachineID {
	if uint(m) > math.MaxUint32 || n > math.MaxInt32 {
		panic(fmt.Sprintf("placement: machine %d with %d GPUs is beyond the sort key's range", m, n))
	}
	return cluster.MachineID((math.MaxInt32-n)<<32 | int(m))
}

// The count key needs a 64-bit int.
var _ [bits.UintSize - 64]struct{}

// sortByCount sorts count keys and turns each back into its machine ID, in
// place, keeping the storage as the picker's ByFree buffer.
func (p *Picker) sortByCount(keys []cluster.MachineID) []cluster.MachineID {
	slices.Sort(keys)
	for i, k := range keys {
		keys[i] = k & math.MaxUint32
	}
	p.byCount = keys
	return keys
}

// appendPooled appends the count key of every machine of the rack with dense
// index r that the pool still holds GPUs on.
func (p *Picker) appendPooled(keys []cluster.MachineID, r int) []cluster.MachineID {
	id, _ := p.topo.RackAt(r)
	for _, m := range p.topo.RackMachines(id) {
		if n := p.free[m]; n > 0 {
			keys = append(keys, countKey(m, n))
		}
	}
	return keys
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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
// read: free is loaded as the picker's pool and the draw debits that.
func (p *Picker) PickInto(dst cluster.Alloc, topo *cluster.Topology, free, anchor cluster.Alloc, count int) cluster.Alloc {
	p.Load(topo, free)
	return p.Draw(dst, anchor, count)
}

// Draw is PickInto from the loaded pool: the picked GPUs leave the pool, so a
// loop that hands out GPUs until the pool runs dry loads it once and draws.
func (p *Picker) Draw(dst, anchor cluster.Alloc, count int) cluster.Alloc {
	dst = p.Begin(dst, anchor, count, Constraint{})
	p.drawBest()
	return dst
}

// drawBest runs the locality-best ladder for the draw begun.
func (p *Picker) drawBest() {
	if p.takeNearAnchor() {
		p.takePacked()
	}
}

// drawConstrained is Draw under a constraint set: the same anchor passes, then
// plain most-free-first packing, every take constraint-checked.
func (p *Picker) drawConstrained(dst, anchor cluster.Alloc, count int, c Constraint) cluster.Alloc {
	dst = p.Begin(dst, anchor, count, c)
	p.drawFitting()
	return dst
}

// drawFitting runs the constraint-aware ladder for the draw begun.
func (p *Picker) drawFitting() {
	if p.takeNearAnchor() {
		for _, m := range p.ByFree() {
			p.Take(m)
		}
	}
}

// takeNearAnchor runs the ladder's first two passes and reports whether the
// draw still needs GPUs.
func (p *Picker) takeNearAnchor() bool {
	if p.need == 0 {
		return false
	}
	// Pass 1: machines the anchor already uses, largest anchor share first.
	for _, e := range p.anchor.entries {
		p.Take(e.Machine)
	}
	if p.need == 0 {
		return false
	}
	// Pass 2: machines in racks the anchor already touches, by free count as
	// it stood before any pass-2 take. Only those racks' machines are read.
	keys := p.byCount[:0]
	for _, r := range p.anchor.racks {
		keys = p.appendPooled(keys, r)
	}
	for _, m := range p.sortByCount(keys) {
		p.Take(m)
		if p.need == 0 {
			return false
		}
	}
	return p.need > 0
}

// takePacked is the ladder's third pass: pack into as few machines as
// possible, filling one fabric domain before spilling into the next. Domains
// the anchor already touches come first, then domains by aggregate free GPUs;
// within a domain, prefer the rack with the most aggregate free GPUs so
// multi-machine spills stay rack-local, and within a rack the machine with the
// most free GPUs. On single-domain (flat) topologies the domain order is a
// no-op and the order reduces to plain rack packing.
//
// The rack is the cell of this order: NewTopology keeps every rack inside one
// domain, and a take from rack r debits only rack r's machines, so the racks
// not yet visited keep the free counts they had when the pass began. The pass
// therefore ranks racks once, from the pool's rack and domain tallies, and
// sorts a rack's own machines only when it reaches that rack — most draws end
// inside the first.
func (p *Picker) takePacked() {
	topo, a := p.topo, p.anchor
	rackFree, domainFree := p.rackFree, p.domainFree
	racks := p.racks[:0]
	for r, n := range rackFree {
		if n > 0 {
			racks = append(racks, r)
		}
	}
	// Dense indices ascend with IDs, so comparing them breaks ties by ID. The
	// tallies do not move while the racks are ranked.
	slices.SortFunc(racks, func(ri, rj int) int {
		_, di := topo.RackAt(ri)
		_, dj := topo.RackAt(rj)
		switch {
		case di == dj:
		case a.HasDomain(di) != a.HasDomain(dj):
			if a.HasDomain(di) {
				return -1
			}
			return 1
		case domainFree[di] != domainFree[dj]:
			return cmp.Compare(domainFree[dj], domainFree[di])
		default:
			return cmp.Compare(di, dj)
		}
		if rackFree[ri] != rackFree[rj] {
			return cmp.Compare(rackFree[rj], rackFree[ri])
		}
		return cmp.Compare(ri, rj)
	})
	p.racks = racks
	for _, r := range racks {
		for _, m := range p.sortByCount(p.appendPooled(p.byCount[:0], r)) {
			p.Take(m)
			if p.need == 0 {
				return
			}
		}
	}
}

// DrawSpread draws up to count GPUs from the pool in a placement-blind way —
// one GPU at a time, round-robin across machines in ascending ID order — and
// returns them in dst (cleared first; allocated when nil). It models
// schedulers that do not reason about locality (Tiresias, SLAQ, the
// placement-blind bidding ablation): their allocations straddle machines and
// racks.
func (p *Picker) DrawSpread(dst cluster.Alloc, count int) cluster.Alloc {
	dst = p.Begin(dst, nil, count, Constraint{})
	p.drawSpread()
	return dst
}

// DrawTakesAt is Draw, or with spread DrawSpread, from a prepared anchor,
// which the draw only reads, appending the draw's takes to *log instead of
// filling a map (a spread draw logs one take per GPU).
func (p *Picker) DrawTakesAt(log *[]Take, a *Anchor, count int, spread bool) {
	p.log = log
	p.begin(nil, a, count, Constraint{})
	if spread {
		p.drawSpread()
	} else {
		p.drawBest()
	}
	p.log = nil
}

// drawSpread runs DrawSpread's sweeps for the draw begun.
func (p *Picker) drawSpread() {
	// The first sweep opens every machine the draw uses; later sweeps find
	// GPUs only on those.
	for first, progress := true, true; p.need > 0 && progress; first = false {
		progress = false
		for m, have := range p.free {
			if p.need == 0 {
				break
			}
			if have > 0 {
				id := cluster.MachineID(m)
				p.put(id, 1)
				if first {
					p.took(id, 1)
				} else {
					p.drawn++
				}
				p.need--
				progress = true
			}
		}
	}
}

// SplitJob is what the job split needs to know about one of an app's jobs.
// The zero value takes no part in a split.
type SplitJob struct {
	// Want is how many GPUs the job can use; jobs wanting none (the caller's
	// finished or killed jobs) are left out of the SplitQueue.
	Want int
	// WorkLeft is the key jobs are served by, least first. It is the
	// caller's: the estimator asks the app's tuner, the simulator reads the
	// job's true remaining work.
	WorkLeft float64
	// Constraint is the job's placement constraint resolved against the
	// topology; Unresolvable marks a job whose domain affinity names a domain
	// the topology does not have. Such a job can never run and draws nothing.
	Constraint   Constraint
	Unresolvable bool

	// What the job's share got in the last Split that served it (Drawn),
	// packed into the padding after Unresolvable.
	span int8
	gpus int32
}

// Drawn returns how many GPUs the job's share got in the last Split that
// served the job, and the locality they span: the share's Total and
// cluster.LocalityOf, recorded by the draw that filled it. An unresolvable
// job gets none.
func (j *SplitJob) Drawn() (gpus int, loc cluster.Locality) {
	return int(j.gpus), cluster.Locality(j.span)
}

// Take is one take of a draw, GPUs from Machine, or one entry of an Anchor,
// GPUs held on Machine.
type Take struct {
	Machine cluster.MachineID
	GPUs    int
}

// Finish is the earliest finish among the jobs a Split serves (§5.2 step 4):
// Elapsed + WorkLeft/(g·s) for a job that drew g GPUs spanning locality l,
// with s = 1 for one GPU and Profile.S(l) otherwise. The split stops before a
// job with WorkLeft w ≥ 0 once Elapsed + w/(min(MaxWidth, budget left)·SMax)
// ≥ Best: later jobs have WorkLeft ≥ w or NaN, draw no more GPUs and run no
// faster, and IEEE + · / are monotone in each operand, so none can lower Best.
type Finish struct {
	Elapsed  float64
	Profile  *Profile
	MaxWidth int     // the widest job's Want
	SMax     float64 // max(1, every Profile.S); NaN never stops the split
	Best     float64 // the caller's to set (+Inf: none yet); the split lowers it
}

// SplitQueue is the order a job split serves the jobs wanting GPUs in: least
// work left first, as the job that finishes first sets the app's finish time.
// It also holds what the last Split through it drew: Takes, in which each
// served job's share is one run of takes (Run), one per machine.
//
// The order is an exchange sort's — it is not stable, and neither bid tables
// nor job splits may change with how ties happen to fall — run lazily. The
// sort's outer pass i writes position i for the last time, and later passes
// touch only later positions. So running pass i when position i is first
// asked for performs, on every prefix asked for, exactly the eager sort's
// operations in the eager sort's order: the prefix is the eager sort's, ties
// included, and a split serving p of n jobs costs O(p·n), not O(n²).
type SplitQueue struct {
	Jobs []SplitJob // the caller's to fill before Reset; runs index like it
	// Takes is the log: whatever the caller put there since Reset emptied
	// it, then the last Split's takes, job after job in the order served.
	// They are valid until the caller truncates it, or the next Reset.
	Takes          []Take
	runs           []run // per job: its run in Takes, empty unless the last Split served it
	order          []int // indices of the jobs wanting GPUs; order[:sorted] is final
	sorted, served int   // served: positions the last Split through q served
}

// run is the stretch Takes[lo:hi] of a split's log holding one job's takes.
type run struct{ lo, hi int32 }

// Reset starts a new order over q.Jobs, forgetting the old one and the last
// split's log.
func (q *SplitQueue) Reset() {
	q.order, q.sorted, q.served = slices.Grow(q.order[:0], len(q.Jobs)), 0, 0
	for i := range q.Jobs {
		if q.Jobs[i].Want > 0 {
			q.order = append(q.order, i)
		}
	}
	q.runs, q.Takes = zeroed(q.runs, len(q.Jobs)), q.Takes[:0]
}

// Rewind empties the log and forgets the last split's shares, but keeps the
// order and as much of its sort as earlier splits ran: the next Split serves
// the jobs as it would after Reset, provided no job's Want or WorkLeft has
// changed since then. It costs what the last split served, not q.Jobs.
func (q *SplitQueue) Rewind() {
	for _, i := range q.order[:q.served] {
		q.runs[i] = run{}
	}
	q.served, q.Takes = 0, q.Takes[:0]
}

// Run returns job i's share in the last Split through q: its takes, at most
// one per machine, or none when the split did not feed the job. It is valid
// until the next Split or Reset.
func (q *SplitQueue) Run(i int) []Take {
	r := q.runs[i]
	return q.Takes[r.lo:r.hi]
}

// At returns the index of the job served at position pos, running the sort
// only as far as pos.
func (q *SplitQueue) At(pos int) int {
	for ; q.sorted <= pos; q.sorted++ {
		for i, k := q.sorted, q.sorted+1; k < len(q.order); k++ {
			if q.Jobs[q.order[k]].WorkLeft < q.Jobs[q.order[i]].WorkLeft {
				q.order[i], q.order[k] = q.order[k], q.order[i]
			}
		}
	}
	return q.order[pos]
}

// Split divides the pool among an app's jobs greedily and
// placement-sensitively, honouring each job's parallelism limit (§5.2 step
// 4): jobs are served in q's order, each drawing up to Want GPUs, and at most
// budget GPUs leave the pool in total. A job whose locality-best draw
// violates its placement constraint hands it back and draws constraint-aware
// instead, so GPUs it cannot use in the shape on offer flow to the app's
// other jobs rather than being stranded on an unrunnable share.
//
// It stops where the budget or the pool runs out, or with a non-nil f where
// no later job can finish before f.Best (which it lowers), and returns the
// jobs it served, in order (valid until q changes). What each served job drew
// is its run of q.Takes (Run) and, totalled, its SplitJob's Drawn; the takes
// are appended to the log and every other job's run emptied. Every run
// satisfies its job's constraint: the locality-best draw is kept only if it
// does, and every take of the redraw keeps to it.
func (p *Picker) Split(budget int, q *SplitQueue, f *Finish) []int {
	for _, i := range q.order[:q.served] {
		q.runs[i] = run{}
	}
	p.log = &q.Takes
	p.prepared.Load(p.topo, nil) // jobs draw unanchored
	pos := 0
	for ; pos < len(q.order) && budget > 0 && p.total > 0; pos++ {
		i := q.At(pos)
		j := &q.Jobs[i]
		if f != nil && j.WorkLeft >= 0 && f.Elapsed+j.WorkLeft/(float64(min(f.MaxWidth, budget))*f.SMax) >= f.Best {
			break // no job from here on can finish before f.Best
		}
		if j.Unresolvable {
			j.gpus, j.span = 0, int8(cluster.LocalitySlot)
			continue
		}
		want := min(j.Want, budget)
		lo := len(q.Takes)
		p.begin(nil, &p.prepared, want, Constraint{})
		p.drawBest()
		if !j.Constraint.IsZero() && !satisfiedBy(p.topo, q.Takes[lo:], j.Constraint) {
			p.CreditTakes(q.Takes[lo:], 1)
			q.Takes = q.Takes[:lo]
			p.begin(nil, &p.prepared, want, j.Constraint)
			p.drawFitting()
		}
		q.runs[i] = run{int32(lo), int32(len(q.Takes))}
		gpus, loc := p.Drawn()
		j.gpus, j.span = int32(gpus), int8(loc)
		budget -= gpus
		if f != nil && gpus > 0 {
			s := 1.0 // a single GPU never synchronises over the network (Profile.SOf)
			if gpus > 1 {
				s = f.Profile.S(loc)
			}
			if t := f.Elapsed + j.WorkLeft/(float64(gpus)*s); t < f.Best {
				f.Best = t
			}
		}
	}
	p.log = nil
	q.served = pos
	return q.order[:pos]
}

// satisfiedBy is Satisfies of a draw's run, which takes from each machine
// once.
func satisfiedBy(topo *cluster.Topology, run []Take, c Constraint) bool {
	if c.MaxMachines > 0 && len(run) > c.MaxMachines {
		return false
	}
	for _, t := range run {
		if t.GPUs < c.MinGPUsPerMachine || !c.Admits(topo, t.Machine) {
			return false
		}
	}
	return true
}
