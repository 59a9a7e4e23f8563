package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

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

func TestCatalogProfilesValid(t *testing.T) {
	for _, p := range append(Catalog(), GenericNetworkIntensive, GenericComputeIntensive) {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
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
	if VGG16.Speedup(topo, cluster.Alloc{0: 4}) <= VGG16.Speedup(topo, cluster.Alloc{0: 2}) {
		t.Error("more GPUs on the same machine should increase speedup")
	}
}

func TestPickPrefersAnchorMachines(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	free := cluster.Alloc{0: 2, 1: 4, 2: 4}
	anchor := cluster.Alloc{0: 2}
	got := Pick(topo, free, anchor, 2)
	if got[0] != 2 {
		t.Errorf("Pick should extend anchor machine 0 first, got %v", got)
	}
}

func TestPickPacksFewMachines(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	free := cluster.Alloc{0: 1, 1: 1, 2: 4, 3: 1}
	got := Pick(topo, free, cluster.NewAlloc(), 4)
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
	got := Pick(topo, free, anchor, 2)
	if got[1] != 2 {
		t.Errorf("Pick should stay in anchor rack, got %v", got)
	}
}

func TestPickBounded(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	free := cluster.Alloc{0: 1, 1: 1}
	got := Pick(topo, free, cluster.NewAlloc(), 10)
	if got.Total() != 2 {
		t.Errorf("Pick should be capped by free pool, got %v", got)
	}
	if got := Pick(topo, free, cluster.NewAlloc(), 0); !got.IsEmpty() {
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
		got := Pick(topo, free, cluster.NewAlloc(), want)
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
		if got := SatisfiesMaxMachines(c.alloc, c.max); got != c.want {
			t.Errorf("SatisfiesMaxMachines(%v, %d) = %t, want %t", c.alloc, c.max, got, c.want)
		}
	}
	if SatisfiesConstraints(cluster.Alloc{0: 1, 1: 3}, 2, 2) {
		t.Error("SatisfiesConstraints ignored the per-machine minimum")
	}
	if SatisfiesConstraints(cluster.Alloc{0: 2, 1: 2}, 2, 1) {
		t.Error("SatisfiesConstraints ignored the machine-spread cap")
	}
	if !SatisfiesConstraints(cluster.Alloc{0: 2, 1: 2}, 2, 2) {
		t.Error("SatisfiesConstraints rejected a conforming allocation")
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
	got := Pick(topo, free, cluster.NewAlloc(), 6)
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
	got := Pick(topo, free, anchor, 2)
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

// TestPickerMatchesPick pins scratch hygiene: a reused Picker, whose maps and
// slices carry state between calls, picks bit-for-bit what Pick's throwaway
// Picker does.
func TestPickerMatchesPick(t *testing.T) {
	topo := multiDomainTopo(t)
	rng := rand.New(rand.NewSource(19))
	var p Picker
	dst := cluster.NewAlloc()
	for trial := 0; trial < 500; trial++ {
		free := cluster.NewAlloc()
		anchor := cluster.NewAlloc()
		for m := 0; m < topo.NumMachines(); m++ {
			cap := topo.Machine(cluster.MachineID(m)).NumGPUs
			if rng.Intn(3) != 0 {
				free[cluster.MachineID(m)] = rng.Intn(cap + 1)
			}
			if rng.Intn(4) == 0 {
				anchor[cluster.MachineID(m)] = 1 + rng.Intn(cap)
			}
		}
		count := rng.Intn(12)
		want := Pick(topo, free, anchor, count)
		got := p.PickInto(dst, topo, free, anchor, count)
		if !got.Equal(want) {
			t.Fatalf("trial %d: PickInto %v != Pick %v (free=%v anchor=%v count=%d)",
				trial, got, want, free, anchor, count)
		}
		for m, n := range got {
			if want[m] != n {
				t.Fatalf("trial %d: representation differs at machine %d", trial, m)
			}
		}
	}
}

// TestPickerSteadyStateAllocs pins the point of the Picker: after warmup a
// pick allocates nothing.
func TestPickerSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	topo := multiDomainTopo(t)
	free := cluster.Alloc{0: 4, 1: 2, 4: 4, 5: 4}
	anchor := cluster.Alloc{0: 2}
	var p Picker
	dst := cluster.NewAlloc()
	p.PickInto(dst, topo, free, anchor, 6)
	allocs := testing.AllocsPerRun(100, func() {
		p.PickInto(dst, topo, free, anchor, 6)
	})
	if allocs != 0 {
		t.Fatalf("PickInto allocated %v times per run in steady state", allocs)
	}
}
