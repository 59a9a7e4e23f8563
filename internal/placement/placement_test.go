package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"themis/internal/cluster"
	"themis/internal/race"
)

func testTopo(t *testing.T, machines, gpus, perRack int) *cluster.Topology {
	t.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: machines, GPUs: gpus, SlotSize: 2}},
		MachinesPerRack: perRack,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// pick is PickInto on a throwaway Picker, returning a fresh allocation.
func pick(topo *cluster.Topology, free, anchor cluster.Alloc, count int) cluster.Alloc {
	var p Picker
	return p.PickInto(nil, topo, free, anchor, count)
}

func TestCatalogProfilesValid(t *testing.T) {
	for _, p := range append(Catalog(), GenericComputeIntensive) {
		if err := validProfile(p); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

// validProfile reports whether p's slowdowns are within (0, 1] and
// monotonically non-increasing as locality widens.
func validProfile(p Profile) error {
	prev := 1.0
	for _, l := range []cluster.Locality{cluster.LocalitySlot, cluster.LocalityMachine, cluster.LocalityRack, cluster.LocalityDomain, cluster.LocalityNone} {
		s := p.S(l)
		if s <= 0 || s > 1 {
			return fmt.Errorf("profile %s: S(%s)=%v outside (0,1]", p.Name, l, s)
		}
		if s > prev+1e-9 {
			return fmt.Errorf("profile %s: S(%s)=%v exceeds tighter locality's %v", p.Name, l, s, prev)
		}
		prev = s
	}
	if p.ImagesPerSecPerGPU < 0 {
		return fmt.Errorf("profile %s: negative throughput", p.Name)
	}
	return nil
}

func TestByName(t *testing.T) {
	p, ok := ByName("VGG16")
	if !ok || p.Name != "VGG16" {
		t.Errorf("ByName(VGG16) = %v, %v", p, ok)
	}
	if _, ok := ByName("NoSuchModel"); ok {
		t.Error("ByName should fail for unknown model")
	}
}

func TestCatalogPartition(t *testing.T) {
	net := NetworkIntensiveProfiles()
	comp := ComputeIntensiveProfiles()
	if len(net)+len(comp) != len(Catalog()) {
		t.Errorf("partition sizes %d+%d != catalog %d", len(net), len(comp), len(Catalog()))
	}
	for _, p := range net {
		if !p.NetworkIntensive {
			t.Errorf("%s in network-intensive set but not marked", p.Name)
		}
	}
}

func TestSensitivityShape(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	oneServer := cluster.Alloc{0: 4}
	twoServers := cluster.Alloc{0: 2, 1: 2}
	crossRack := cluster.Alloc{0: 2, 2: 2}

	// VGG16 (network-intensive): spreading across servers must cost a lot.
	vggLocal := VGG16.Throughput(topo, oneServer)
	vggSpread := VGG16.Throughput(topo, twoServers)
	if vggSpread >= 0.75*vggLocal {
		t.Errorf("VGG16 spread throughput %v not much lower than local %v", vggSpread, vggLocal)
	}
	// ResNet50 (compute-intensive): spreading must cost little.
	resLocal := ResNet50.Throughput(topo, oneServer)
	resSpread := ResNet50.Throughput(topo, twoServers)
	if resSpread < 0.9*resLocal {
		t.Errorf("ResNet50 spread throughput %v dropped too much from %v", resSpread, resLocal)
	}
	// Wider spreads are never faster.
	if VGG16.SOf(topo, crossRack) > VGG16.SOf(topo, twoServers) {
		t.Error("cross-rack S should not exceed rack-local S")
	}
	// Single GPU never slows down.
	if got := VGG16.SOf(topo, cluster.Alloc{0: 1}); got != 1 {
		t.Errorf("single-GPU S = %v, want 1", got)
	}
}

func TestSpeedupMonotoneInGPUs(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	if VGG16.Throughput(topo, cluster.Alloc{0: 4}) <= VGG16.Throughput(topo, cluster.Alloc{0: 2}) {
		t.Error("more GPUs on the same machine should increase speedup")
	}
}

func TestPickPrefersAnchorMachines(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	free := cluster.Alloc{0: 2, 1: 4, 2: 4}
	anchor := cluster.Alloc{0: 2}
	got := pick(topo, free, anchor, 2)
	if got[0] != 2 {
		t.Errorf("Pick should extend anchor machine 0 first, got %v", got)
	}
}

func TestPickPacksFewMachines(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	free := cluster.Alloc{0: 1, 1: 1, 2: 4, 3: 1}
	got := pick(topo, free, cluster.NewAlloc(), 4)
	if got[2] != 4 || got.Total() != 4 {
		t.Errorf("Pick should pack onto machine 2, got %v", got)
	}
}

func TestPickPrefersAnchorRack(t *testing.T) {
	// 2 machines per rack; anchor on machine 0 (rack 0); free on machines 1
	// (rack 0) and 2 (rack 1) equally.
	topo := testTopo(t, 4, 4, 2)
	free := cluster.Alloc{1: 2, 2: 2}
	anchor := cluster.Alloc{0: 4}
	got := pick(topo, free, anchor, 2)
	if got[1] != 2 {
		t.Errorf("Pick should stay in anchor rack, got %v", got)
	}
}

func TestPickBounded(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	free := cluster.Alloc{0: 1, 1: 1}
	got := pick(topo, free, cluster.NewAlloc(), 10)
	if got.Total() != 2 {
		t.Errorf("Pick should be capped by free pool, got %v", got)
	}
	if got := pick(topo, free, cluster.NewAlloc(), 0); !got.IsEmpty() {
		t.Errorf("Pick with count=0 should be empty, got %v", got)
	}
}

// TestPickProperties checks, over random free vectors, that Pick never
// exceeds the free pool, never exceeds the requested count and never
// fabricates machines.
func TestPickProperties(t *testing.T) {
	topo := testTopo(t, 8, 4, 4)
	f := func(seed uint32, count uint8) bool {
		free := cluster.NewAlloc()
		s := seed
		for m := 0; m < 8; m++ {
			s = s*1664525 + 1013904223
			free[cluster.MachineID(m)] = int(s % 5)
			if free[cluster.MachineID(m)] == 0 {
				delete(free, cluster.MachineID(m))
			}
		}
		want := int(count % 24)
		got := pick(topo, free, cluster.NewAlloc(), want)
		if got.Total() > want {
			return false
		}
		if got.Total() > free.Total() {
			return false
		}
		for m, n := range got {
			if n < 0 || n > free[m] {
				return false
			}
		}
		// Pick must take as many as available up to want.
		expect := want
		if free.Total() < want {
			expect = free.Total()
		}
		return got.Total() == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSatisfiesMaxMachines(t *testing.T) {
	cases := []struct {
		alloc cluster.Alloc
		max   int
		want  bool
	}{
		{cluster.Alloc{0: 4}, 1, true},
		{cluster.Alloc{0: 2, 1: 2}, 1, false},
		{cluster.Alloc{0: 2, 1: 2}, 2, true},
		{cluster.Alloc{0: 1, 1: 1, 2: 1}, 2, false},
		{cluster.Alloc{0: 2, 1: 0}, 1, true}, // zero entries don't count as machines
		{cluster.Alloc{0: 1, 1: 1}, 0, true}, // 0 = unconstrained
		{cluster.NewAlloc(), 1, true},
	}
	for _, c := range cases {
		if got := Satisfies(nil, c.alloc, Constraint{MaxMachines: c.max}); got != c.want {
			t.Errorf("Satisfies(%v, cap %d) = %t, want %t", c.alloc, c.max, got, c.want)
		}
	}
	if Satisfies(nil, cluster.Alloc{0: 1, 1: 3}, Constraint{MinGPUsPerMachine: 2, MaxMachines: 2}) {
		t.Error("Satisfies ignored the per-machine minimum")
	}
	if Satisfies(nil, cluster.Alloc{0: 2, 1: 2}, Constraint{MinGPUsPerMachine: 2, MaxMachines: 1}) {
		t.Error("Satisfies ignored the machine-spread cap")
	}
	if !Satisfies(nil, cluster.Alloc{0: 2, 1: 2}, Constraint{MinGPUsPerMachine: 2, MaxMachines: 2}) {
		t.Error("Satisfies rejected a conforming allocation")
	}
}

func TestFigure2ModelsOrder(t *testing.T) {
	models := Figure2Models()
	want := []string{"VGG16", "VGG19", "AlexNet", "Inceptionv3", "ResNet50"}
	if len(models) != len(want) {
		t.Fatalf("Figure2Models returned %d models, want %d", len(models), len(want))
	}
	for i, m := range models {
		if m.Name != want[i] {
			t.Errorf("Figure2Models[%d] = %s, want %s", i, m.Name, want[i])
		}
	}
}

func multiDomainTopo(t *testing.T) *cluster.Topology {
	t.Helper()
	// two domains x two racks x two machines x 4 GPUs
	var machines []cluster.Machine
	for i := 0; i < 8; i++ {
		machines = append(machines, cluster.Machine{
			ID: cluster.MachineID(i), Rack: cluster.RackID(i / 2),
			Domain: cluster.DomainID(i / 4), NumGPUs: 4, SlotSize: 2,
			GPU: cluster.GPUTypeP100,
		})
	}
	topo, err := cluster.NewTopology(machines)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestPickFillsDomainBeforeSpilling(t *testing.T) {
	topo := multiDomainTopo(t)
	// Domain 0 has 6 free GPUs (4+2), domain 1 has 8. A 6-GPU pick should
	// stay entirely inside domain 1 rather than straddle the fabric.
	free := cluster.Alloc{0: 4, 1: 2, 4: 4, 5: 4}
	got := pick(topo, free, cluster.NewAlloc(), 6)
	if got.Total() != 6 {
		t.Fatalf("picked %d GPUs, want 6", got.Total())
	}
	for _, m := range got.Machines() {
		if topo.Domain(m) != 1 {
			t.Errorf("pick straddles domains: %v", got)
		}
	}
}

func TestPickPrefersAnchorDomain(t *testing.T) {
	topo := multiDomainTopo(t)
	free := cluster.Alloc{2: 2, 4: 4}
	anchor := cluster.Alloc{0: 2}
	got := pick(topo, free, anchor, 2)
	if got[2] != 2 {
		t.Errorf("pick should stay in anchor's domain 0: %v", got)
	}
}

func TestConstraintSatisfies(t *testing.T) {
	topo := multiDomainTopo(t)
	cases := []struct {
		name  string
		alloc cluster.Alloc
		c     Constraint
		want  bool
	}{
		{"zero constraint", cluster.Alloc{0: 1, 4: 1}, Constraint{}, true},
		{"min ok", cluster.Alloc{0: 2, 1: 2}, Constraint{MinGPUsPerMachine: 2}, true},
		{"min violated", cluster.Alloc{0: 2, 1: 1}, Constraint{MinGPUsPerMachine: 2}, false},
		{"max ok", cluster.Alloc{0: 2, 1: 2}, Constraint{MaxMachines: 2}, true},
		{"max violated", cluster.Alloc{0: 1, 1: 1, 2: 1}, Constraint{MaxMachines: 2}, false},
		{"domain ok", cluster.Alloc{0: 2, 3: 2}, Constraint{Domain: 0, HasDomain: true}, true},
		{"domain violated", cluster.Alloc{0: 2, 4: 2}, Constraint{Domain: 0, HasDomain: true}, false},
		{"flavor ok", cluster.Alloc{0: 2}, Constraint{Flavor: cluster.GPUTypeP100}, true},
		{"flavor violated", cluster.Alloc{0: 2}, Constraint{Flavor: cluster.GPUTypeK80}, false},
		{"empty alloc", cluster.Alloc{}, Constraint{MinGPUsPerMachine: 8, Flavor: cluster.GPUTypeK80}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Satisfies(topo, c.alloc, c.c); got != c.want {
				t.Errorf("Satisfies(%v, %+v) = %v, want %v", c.alloc, c.c, got, c.want)
			}
		})
	}
}

func TestConstraintFeasible(t *testing.T) {
	topo := multiDomainTopo(t)
	if !(Constraint{MinGPUsPerMachine: 4}).Feasible(topo) {
		t.Error("min=4 should be feasible on 4-GPU machines")
	}
	if (Constraint{MinGPUsPerMachine: 5}).Feasible(topo) {
		t.Error("min=5 should be infeasible on 4-GPU machines")
	}
	if (Constraint{Flavor: cluster.GPUTypeK80}).Feasible(topo) {
		t.Error("K80 flavor should be infeasible on an all-P100 cluster")
	}
	if !(Constraint{Domain: 1, HasDomain: true}).Feasible(topo) {
		t.Error("domain 1 exists and should be feasible")
	}
	if (Constraint{Domain: 7, HasDomain: true}).Feasible(topo) {
		t.Error("domain 7 does not exist")
	}
}

func TestPickConstrained(t *testing.T) {
	topo := multiDomainTopo(t)
	free := cluster.Alloc{0: 4, 1: 1, 2: 2, 4: 4, 5: 4}

	// min-per-machine: machine 1's lone free GPU must not be used.
	got := PickConstrained(topo, free, cluster.NewAlloc(), 6, Constraint{MinGPUsPerMachine: 2})
	if !Satisfies(topo, got, Constraint{MinGPUsPerMachine: 2}) {
		t.Errorf("min constraint violated: %v", got)
	}
	if got.Total() != 6 {
		t.Errorf("picked %d, want 6", got.Total())
	}

	// domain affinity: only domain-0 machines may appear even though domain 1
	// has more free capacity.
	got = PickConstrained(topo, free, cluster.NewAlloc(), 6, Constraint{Domain: 0, HasDomain: true})
	for _, m := range got.Machines() {
		if topo.Domain(m) != 0 {
			t.Errorf("domain constraint violated: %v", got)
		}
	}
	if got.Total() != 6 {
		t.Errorf("picked %d, want 6 (domain 0 has 7 free)", got.Total())
	}

	// machine cap: at most 2 machines used including the anchor's.
	anchor := cluster.Alloc{0: 2}
	got = PickConstrained(topo, free, anchor, 8, Constraint{MaxMachines: 2})
	if !Satisfies(topo, got.Add(anchor), Constraint{MaxMachines: 2}) {
		t.Errorf("max-machines violated: picked %v anchor %v", got, anchor)
	}

	// infeasible: wanting 1 GPU under a floor of 2 yields nothing on fresh
	// machines.
	got = PickConstrained(topo, cluster.Alloc{3: 1}, cluster.NewAlloc(), 1, Constraint{MinGPUsPerMachine: 2})
	if got.Total() != 0 {
		t.Errorf("expected empty pick, got %v", got)
	}
}

// refPickConstrained is PickConstrained as it was before its take moved onto
// the Picker — closures, per-call maps, an O(n) usedMachines — kept verbatim as
// the reference for the constrained ladder's pass order.
func refPickConstrained(topo *cluster.Topology, free cluster.Alloc, anchor cluster.Alloc, count int, c Constraint) cluster.Alloc {
	if c.IsZero() {
		return pick(topo, free, anchor, count)
	}
	byCount := func(a cluster.Alloc) []cluster.MachineID {
		ids := a.Machines()
		sort.Slice(ids, func(i, j int) bool {
			if a[ids[i]] != a[ids[j]] {
				return a[ids[i]] > a[ids[j]]
			}
			return ids[i] < ids[j]
		})
		return ids
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
	for _, m := range byCount(anchor) {
		take(m)
	}
	if need > 0 {
		anchorRacks := make(map[cluster.RackID]bool)
		for _, m := range anchor.Machines() {
			anchorRacks[topo.Rack(m)] = true
		}
		if len(anchorRacks) > 0 {
			for _, m := range byCount(eligible) {
				if anchorRacks[topo.Rack(m)] {
					take(m)
				}
			}
		}
	}
	if need > 0 {
		for _, m := range byCount(eligible) {
			take(m)
		}
	}
	return picked
}

// randomPool draws a free vector and an anchor over topo; some free keys are
// stored with a zero count, which every form of the picker must read as
// absent.
func randomPool(rng *rand.Rand, topo *cluster.Topology) (free, anchor cluster.Alloc) {
	free, anchor = cluster.NewAlloc(), cluster.NewAlloc()
	for m := 0; m < topo.NumMachines(); m++ {
		cap := topo.Machine(cluster.MachineID(m)).NumGPUs
		if rng.Intn(3) != 0 {
			free[cluster.MachineID(m)] = rng.Intn(cap + 1)
		}
		if rng.Intn(4) == 0 {
			anchor[cluster.MachineID(m)] = 1 + rng.Intn(cap)
		}
	}
	return free, anchor
}

// randomConstraint draws a constraint set: floor, cap, domain and flavor
// affinities, each present about half the time (the domain sometimes one the
// topology does not have).
func randomConstraint(rng *rand.Rand, topo *cluster.Topology) Constraint {
	var c Constraint
	if rng.Intn(2) == 0 {
		c.MinGPUsPerMachine = rng.Intn(4)
	}
	if rng.Intn(2) == 0 {
		c.MaxMachines = rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		c.HasDomain, c.Domain = true, cluster.DomainID(rng.Intn(3))
	}
	if rng.Intn(4) == 0 {
		c.Flavor = topo.Machine(cluster.MachineID(rng.Intn(topo.NumMachines()))).GPU
	}
	return c
}

// sameAlloc requires got and want to hold the same GPUs and the same keys.
func sameAlloc(t *testing.T, trial int, what string, got, want cluster.Alloc) {
	t.Helper()
	if !got.Equal(want) || len(got) != len(want) {
		t.Fatalf("trial %d: %s %v, want %v", trial, what, got, want)
	}
}

// TestPickerMatchesPick pins scratch hygiene and the ladders' pass order: a
// reused Picker, whose maps and slices carry state between calls, picks
// bit-for-bit what Pick's throwaway Picker does, and its constrained ladder
// what the pre-Picker PickConstrained did.
func TestPickerMatchesPick(t *testing.T) {
	topo := multiDomainTopo(t)
	rng := rand.New(rand.NewSource(19))
	var p Picker
	dst := cluster.NewAlloc()
	for trial := 0; trial < 2000; trial++ {
		free, anchor := randomPool(rng, topo)
		count := rng.Intn(12)
		sameAlloc(t, trial, "PickInto", p.PickInto(dst, topo, free, anchor, count), pick(topo, free, anchor, count))

		c := randomConstraint(rng, topo)
		want := refPickConstrained(topo, free, anchor, count, c)
		sameAlloc(t, trial, "PickConstrained", PickConstrained(topo, free, anchor, count, c), want)
		if !c.IsZero() {
			p.Load(topo, free)
			sameAlloc(t, trial, "reused constrained draw", p.drawConstrained(dst, anchor, count, c), want)
		}
	}
}

// TestDrawMatchesPickIntoThenSub is the loaded pool's contract: several draws
// from one load each pick what PickInto picks from the pool as it stands, and
// leave the pool, read back, as Sub would.
func TestDrawMatchesPickIntoThenSub(t *testing.T) {
	topo := multiDomainTopo(t)
	rng := rand.New(rand.NewSource(23))
	var p, q Picker
	for trial := 0; trial < 2000; trial++ {
		free, anchor := randomPool(rng, topo)
		p.Load(topo, free) // zero-valued keys and all
		pool := free.Clone()
		// Several draws from one load, as the policies' loops make them.
		for pool.Total() > 0 {
			count := 1 + rng.Intn(6)
			wantPick := q.PickInto(nil, topo, pool, anchor, count)
			wantPool := pool.Clone()
			if err := wantPool.Debit(wantPick); err != nil {
				t.Fatal(err)
			}
			got := p.Draw(nil, anchor, count)
			sameAlloc(t, trial, "Draw", got, wantPick)
			sameAlloc(t, trial, "pool after Draw", p.Remaining(nil), wantPool)
			if p.Total() != wantPool.Total() {
				t.Fatalf("trial %d: Total %d after Draw, want %d", trial, p.Total(), wantPool.Total())
			}
			pool = wantPool
			if got.Total() == 0 {
				break
			}
		}
	}
}

// TestDrawSpread: the placement-blind draw deals one GPU per machine per
// round in ID order and debits the pool.
func TestDrawSpread(t *testing.T) {
	var p Picker
	p.Load(multiDomainTopo(t), cluster.Alloc{2: 1, 0: 3, 1: 0, 5: 2})
	got := p.DrawSpread(nil, 5)
	if want := (cluster.Alloc{0: 2, 2: 1, 5: 2}); !got.Equal(want) {
		t.Errorf("DrawSpread = %v, want %v", got, want)
	}
	if want := (cluster.Alloc{0: 1}); !p.Remaining(nil).Equal(want) {
		t.Errorf("pool after DrawSpread = %v, want %v", p.Remaining(nil), want)
	}
	if got := p.DrawSpread(got, 4); got.Total() != 1 || p.Total() != 0 {
		t.Errorf("over-ask drew %v leaving %v, want the last GPU and an empty pool", got, p.Remaining(nil))
	}
}

// TestSplit covers the job split's own rules on a hand-sized case: service
// order, the parallelism limit, the budget, the constraint-aware re-draw, and
// that a job whose domain cannot be resolved draws nothing.
// TestSplitJobSize pins SplitJob at 72 bytes: what a Split records of a job's
// share (Drawn) lives in the padding after Unresolvable.
func TestSplitJobSize(t *testing.T) {
	if got := unsafe.Sizeof(SplitJob{}); got != 72 {
		t.Errorf("SplitJob is %d bytes, want 72", got)
	}
}

func TestSplit(t *testing.T) {
	topo := multiDomainTopo(t)
	var p Picker
	jobs := []SplitJob{
		{Want: 4, WorkLeft: 30},
		{Want: 2, WorkLeft: 10, Constraint: Constraint{MinGPUsPerMachine: 2}},
		{Want: 4, WorkLeft: 5, Unresolvable: true},
		{}, // a finished job
		{Want: 8, WorkLeft: 20},
	}
	q := SplitQueue{Jobs: jobs}
	q.Reset()
	var order []int
	for pos := range len(q.order) {
		order = append(order, q.At(pos))
	}
	if want := []int{2, 1, 4, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("split order = %v, want %v (least work left first, finished jobs out)", order, want)
	}
	// Domain 0 holds more free GPUs (three singles) than domain 1 (one pair),
	// so job 1's locality-best draw is two singles — under its floor of 2. It
	// must hand them back and take the pair instead.
	p.Load(topo, cluster.Alloc{0: 1, 1: 1, 2: 1, 4: 2})
	sharesOf := func() []cluster.Alloc {
		out := make([]cluster.Alloc, len(jobs))
		for i := range out {
			out[i] = runAlloc(t, q.Run(i), fmt.Sprintf("job %d", i))
		}
		return out
	}
	if served := p.Split(5, &q, nil); !reflect.DeepEqual(served, []int{2, 1, 4}) {
		t.Errorf("served %v, want [2 1 4]: the split stops once the pool is spent", served)
	}
	if want := (cluster.Alloc{4: 2}); !runAlloc(t, q.Run(1), "job 1").Equal(want) {
		t.Errorf("constrained job drew %v, want %v", q.Run(1), want)
	}
	if len(q.Takes) != 1+len(q.Run(4)) {
		t.Errorf("log %v: the constrained job's handed-back draw must leave it", q.Takes)
	}
	shares := sharesOf()
	if shares[2].Total() != 0 {
		t.Errorf("unresolvable job drew %v, want nothing", shares[2])
	}
	if shares[3].Total() != 0 {
		t.Errorf("finished job drew %v", shares[3])
	}
	if want := (cluster.Alloc{4: 2}); !shares[1].Equal(want) {
		t.Errorf("constrained job drew %v, want %v", shares[1], want)
	}
	if shares[4].Total() != 3 || shares[0].Total() != 0 {
		t.Errorf("shares %v: job 4 (served before job 0) should take the remaining 3 GPUs", shares)
	}
	if p.Total() != 0 {
		t.Errorf("pool after the split = %v, want empty", p.Remaining(nil))
	}

	// The budget caps what leaves the pool, across jobs.
	p.Load(topo, cluster.Alloc{2: 4, 3: 4})
	p.Split(5, &q, nil)
	shares = sharesOf()
	if shares[1].Total() != 2 || shares[4].Total() != 3 || p.Total() != 3 {
		t.Errorf("budget 5: shares %v pool %v, want 2 + 3 drawn and 3 left", shares, p.Remaining(nil))
	}
}

// TestPickerSteadyStateAllocs pins the point of the Picker: after warmup no
// form of it allocates — Load, every draw from a loaded pool, the hand-back
// and the read-back, and a prepared anchor's Load and Add with the draws from
// it — on a small two-domain cluster and on sim-fabric, unanchored and with an
// anchor in two pods whose draw runs through pass 2 into the rack walk.
func TestPickerSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fabric := simFabricTopo(t)
	fabricFree := cluster.NewAlloc()
	for m := range cluster.MachineID(fabric.NumMachines()) {
		fabricFree[m] = int(m) % (fabric.Machine(m).NumGPUs + 1)
	}
	jobs := []SplitJob{{Want: 4, WorkLeft: 2}, {Want: 4, WorkLeft: 1, Constraint: Constraint{MaxMachines: 1}}, {Want: 8, WorkLeft: 3}}
	q := SplitQueue{Jobs: jobs}
	var p Picker
	var a Anchor
	var log, won []Take
	dst, rest := cluster.NewAlloc(), cluster.NewAlloc()
	for _, s := range []struct {
		name         string
		topo         *cluster.Topology
		free, anchor cluster.Alloc
		count        int
		c            Constraint
	}{
		{"two-domain", multiDomainTopo(t), cluster.Alloc{0: 4, 1: 2, 4: 4, 5: 4}, cluster.Alloc{0: 2}, 6,
			Constraint{MinGPUsPerMachine: 2, MaxMachines: 3, Domain: 0, HasDomain: true}},
		{"sim-fabric", fabric, fabricFree, nil, 24, Constraint{MaxMachines: 8, Domain: 1, HasDomain: true}},
		{"sim-fabric anchored", fabric, fabricFree, cluster.Alloc{1: 2, 30: 1}, 64, Constraint{MinGPUsPerMachine: 2}},
	} {
		load := func() { p.Load(s.topo, s.free) }
		for name, pick := range map[string]func(){
			"Load":        load,
			"PickInto":    func() { p.PickInto(dst, s.topo, s.free, s.anchor, s.count) },
			"constrained": func() { load(); p.drawConstrained(dst, s.anchor, s.count, s.c) },
			"Draw+Credit": func() { load(); p.Credit(p.Draw(dst, s.anchor, s.count)) },
			"DrawSpread":  func() { load(); p.DrawSpread(dst, s.count) },
			"Reset+Split": func() { load(); q.Reset(); p.Split(14, &q, nil) },
			"Remaining":   func() { load(); p.Draw(dst, s.anchor, s.count); p.Remaining(rest) },
			// Gandiva's loop: a prepared anchor extended by a won draw, then
			// a logged candidate handed back and a constrained draw from it.
			"prepared": func() {
				load()
				a.Load(s.topo, s.anchor)
				won = won[:0]
				p.DrawTakesAt(&won, &a, 3, false)
				a.Add(won)
				log = log[:0]
				p.DrawTakesAt(&log, &a, s.count, false)
				p.CreditTakes(log, 1)
				_ = a.LocalityWith(log)
				p.begin(dst.Reset(), &a, s.count, s.c)
				p.drawFitting()
			},
		} {
			pick()
			if allocs := testing.AllocsPerRun(100, pick); allocs != 0 {
				t.Errorf("%s: %s allocated %v times per run in steady state", s.name, name, allocs)
			}
		}
	}
}
