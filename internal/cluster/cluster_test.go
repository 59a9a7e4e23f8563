package cluster

import (
	"slices"
	"strings"
	"testing"

	"themis/internal/race"
)

func TestConfigBuild(t *testing.T) {
	topo, err := Config{
		MachineSpecs: []MachineSpec{
			{Count: 4, GPUs: 4, SlotSize: 2, GPU: GPUTypeP100},
			{Count: 2, GPUs: 2, SlotSize: 2, GPU: GPUTypeK80},
		},
		MachinesPerRack: 3,
	}.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := topo.NumMachines(); got != 6 {
		t.Errorf("NumMachines = %d, want 6", got)
	}
	if got := topo.TotalGPUs(); got != 20 {
		t.Errorf("TotalGPUs = %d, want 20", got)
	}
	if got := topo.NumRacks(); got != 2 {
		t.Errorf("NumRacks = %d, want 2", got)
	}
	// machines 0,1,2 in rack 0; 3,4,5 in rack 1
	if topo.Rack(2) != 0 || topo.Rack(3) != 1 {
		t.Errorf("rack layout wrong: rack(2)=%d rack(3)=%d", topo.Rack(2), topo.Rack(3))
	}
	if got := len(topo.MachinesInRack(0)); got != 3 {
		t.Errorf("MachinesInRack(0) = %d machines, want 3", got)
	}
}

func TestConfigBuildRejectsBadSpec(t *testing.T) {
	_, err := Config{MachineSpecs: []MachineSpec{{Count: 0, GPUs: 4}}}.Build()
	if err == nil {
		t.Fatal("expected error for zero-count spec")
	}
}

func TestNewTopologyValidation(t *testing.T) {
	cases := []struct {
		name     string
		machines []Machine
	}{
		{"empty", nil},
		{"duplicate IDs", []Machine{
			{ID: 0, NumGPUs: 4, SlotSize: 2},
			{ID: 0, NumGPUs: 4, SlotSize: 2},
		}},
		{"ID out of range", []Machine{{ID: 5, NumGPUs: 4, SlotSize: 2}}},
		{"zero GPUs", []Machine{{ID: 0, NumGPUs: 0, SlotSize: 1}}},
		{"slot not dividing GPUs", []Machine{{ID: 0, NumGPUs: 4, SlotSize: 3}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewTopology(c.machines); err == nil {
				t.Errorf("NewTopology(%v) succeeded, want error", c.machines)
			}
		})
	}
}

func TestDefaultClusters(t *testing.T) {
	sim := SimulationCluster()
	if got := sim.TotalGPUs(); got != 256 {
		t.Errorf("SimulationCluster TotalGPUs = %d, want 256", got)
	}
	if sim.NumRacks() < 2 {
		t.Errorf("SimulationCluster should span multiple racks, got %d", sim.NumRacks())
	}
	tb := TestbedCluster()
	if got := tb.TotalGPUs(); got != 50 {
		t.Errorf("TestbedCluster TotalGPUs = %d, want 50", got)
	}
	if got := tb.NumMachines(); got != 20 {
		t.Errorf("TestbedCluster NumMachines = %d, want 20", got)
	}
}

func TestAllocArithmetic(t *testing.T) {
	a := Alloc{0: 2, 1: 1}
	b := Alloc{1: 1, 2: 3}
	sum := a.Add(b)
	if sum.Total() != 7 {
		t.Errorf("Add total = %d, want 7", sum.Total())
	}
	if sum[1] != 2 {
		t.Errorf("Add machine 1 = %d, want 2", sum[1])
	}
	diff := sum.Clone()
	if err := diff.Debit(b); err != nil {
		t.Fatalf("Debit: %v", err)
	}
	if !diff.Equal(a) {
		t.Errorf("Debit result %v != original %v", diff, a)
	}
	if err := a.Clone().Debit(Alloc{0: 5}); err == nil {
		t.Error("Debit removing more than held should fail")
	}
	// Add must not mutate its receiver.
	if a.Total() != 3 {
		t.Errorf("receiver mutated by Add: %v", a)
	}
}

func TestAllocString(t *testing.T) {
	a := Alloc{3: 1, 1: 2}
	if got := a.String(); got != "M1:2G,M3:1G" {
		t.Errorf("String = %q, want M1:2G,M3:1G", got)
	}
	if got := NewAlloc().String(); got != "∅" {
		t.Errorf("empty String = %q, want ∅", got)
	}
}

func TestStateGrantRelease(t *testing.T) {
	topo := mustTopo(t, 4, 4, 2)
	s := NewState(topo)
	if s.TotalFree() != 16 {
		t.Fatalf("TotalFree = %d, want 16", s.TotalFree())
	}
	if err := s.Grant("app1", Alloc{0: 2, 1: 4}); err != nil {
		t.Fatalf("Grant: %v", err)
	}
	if s.FreeOn(0) != 2 || s.FreeOn(1) != 0 {
		t.Errorf("FreeOn wrong: m0=%d m1=%d", s.FreeOn(0), s.FreeOn(1))
	}
	if err := s.Grant("app2", Alloc{1: 1}); err == nil {
		t.Error("over-granting machine 1 should fail")
	}
	// failed grant must have no partial effect
	if s.TotalUsed() != 6 {
		t.Errorf("TotalUsed after failed grant = %d, want 6", s.TotalUsed())
	}
	if err := s.Release("app1", Alloc{1: 2}); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := s.Held("app1").Total(); got != 4 {
		t.Errorf("Held after partial release = %d, want 4", got)
	}
	if err := s.Release("app1", Alloc{2: 1}); err == nil {
		t.Error("releasing GPUs never held should fail")
	}
	released := s.ReleaseAll("app1")
	if released.Total() != 4 {
		t.Errorf("ReleaseAll returned %d GPUs, want 4", released.Total())
	}
	if s.TotalUsed() != 0 {
		t.Errorf("TotalUsed after ReleaseAll = %d, want 0", s.TotalUsed())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestStateFreeVectorAndApps(t *testing.T) {
	topo := mustTopo(t, 3, 4, 2)
	s := NewState(topo)
	if err := s.Grant("b", Alloc{0: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant("a", Alloc{1: 1}); err != nil {
		t.Fatal(err)
	}
	fv := s.FreeVector()
	if fv[0] != 0 || fv[1] != 3 || fv[2] != 4 {
		t.Errorf("FreeVector = %v", fv)
	}
	if _, ok := fv[0]; ok {
		t.Error("FreeVector should omit fully-used machines")
	}
	apps := s.Apps()
	if len(apps) != 2 || apps[0] != "a" || apps[1] != "b" {
		t.Errorf("Apps = %v, want [a b]", apps)
	}
	if s.Held("b")[0] != 4 || s.Held("a")[0] != 0 {
		t.Errorf("machine 0 holds %d of b's GPUs and %d of a's, want 4 and 0", s.Held("b")[0], s.Held("a")[0])
	}
}

// TestFreeVectorAllocatesOnlyItsMap pins FreeVector to the cost of the map it
// returns: walking the machines must not copy the topology's machine slice.
// FreeVectorInto refilling a map that has held the vector allocates nothing.
func TestFreeVectorAllocatesOnlyItsMap(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewState(mustTopo(t, 64, 4, 2))
	if err := s.Grant("a", Alloc{0: 4, 5: 1, 63: 2}); err != nil {
		t.Fatal(err)
	}
	want := s.FreeVector()
	got := testing.AllocsPerRun(50, func() { s.FreeVector() })
	fill := testing.AllocsPerRun(50, func() {
		out := NewAlloc()
		for m, n := range want {
			out[m] = n
		}
	})
	if got != fill {
		t.Errorf("FreeVector allocates %.0f objects, filling a fresh Alloc with its %d entries %.0f", got, len(want), fill)
	}
	dst := s.FreeVectorInto(Alloc{1: 1, 70: 3})
	if !dst.Equal(want) || len(dst) != len(want) {
		t.Errorf("FreeVectorInto = %v, want %v", dst, want)
	}
	if got := testing.AllocsPerRun(50, func() { dst = s.FreeVectorInto(dst) }); got != 0 {
		t.Errorf("FreeVectorInto refilling a warmed map allocates %.0f objects, want 0", got)
	}
}

func TestLocality(t *testing.T) {
	// 4 machines x 4 GPUs (slot=2), 2 per rack
	topo, err := Config{
		MachineSpecs:    []MachineSpec{{Count: 4, GPUs: 4, SlotSize: 2}},
		MachinesPerRack: 2,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		alloc Alloc
		want  Locality
		score float64
	}{
		{Alloc{}, LocalitySlot, 1.0},
		{Alloc{0: 2}, LocalitySlot, 1.0},
		{Alloc{0: 4}, LocalityMachine, 0.9},
		{Alloc{0: 2, 1: 2}, LocalityRack, 0.7},
		{Alloc{0: 2, 2: 2}, LocalityDomain, 0.5},
	}
	for _, c := range cases {
		if got := LocalityOf(topo, c.alloc); got != c.want {
			t.Errorf("LocalityOf(%v) = %v, want %v", c.alloc, got, c.want)
		}
		if got := PlacementScore(topo, c.alloc); got != c.score {
			t.Errorf("PlacementScore(%v) = %v, want %v", c.alloc, got, c.score)
		}
	}
}

func TestLocalityMultiDomain(t *testing.T) {
	// two fabric domains, two racks each, one 4-GPU machine per rack
	var machines []Machine
	for i := 0; i < 4; i++ {
		machines = append(machines, Machine{
			ID: MachineID(i), Rack: RackID(i), Domain: DomainID(i / 2),
			NumGPUs: 4, SlotSize: 2,
		})
	}
	topo, err := NewTopology(machines)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Domain(3); got != 1 {
		t.Fatalf("Domain(3) = %d, want 1", got)
	}
	cases := []struct {
		alloc Alloc
		want  Locality
		score float64
	}{
		{Alloc{0: 2, 1: 2}, LocalityDomain, 0.5},
		{Alloc{0: 2, 2: 2}, LocalityNone, 0.35},
		{Alloc{2: 2, 3: 2}, LocalityDomain, 0.5},
	}
	for _, c := range cases {
		if got := LocalityOf(topo, c.alloc); got != c.want {
			t.Errorf("LocalityOf(%v) = %v, want %v", c.alloc, got, c.want)
		}
		if got := PlacementScore(topo, c.alloc); got != c.score {
			t.Errorf("PlacementScore(%v) = %v, want %v", c.alloc, got, c.score)
		}
	}
}

func TestTopologyDomainAccessors(t *testing.T) {
	machines := []Machine{
		{ID: 0, Rack: 0, Domain: 0, NumGPUs: 4, SlotSize: 2},
		{ID: 1, Rack: 0, Domain: 0, NumGPUs: 4, SlotSize: 2},
		{ID: 2, Rack: 1, Domain: 1, NumGPUs: 2, SlotSize: 2},
	}
	topo, err := NewTopology(machines)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Domain(2); got != 1 {
		t.Errorf("Domain(2) = %d, want 1", got)
	}
	if err := topo.SetDomainName(1, "pod-east"); err != nil {
		t.Fatalf("SetDomainName: %v", err)
	}
	if d, ok := topo.DomainByName("pod-east"); !ok || d != 1 {
		t.Errorf("DomainByName(pod-east) = %d, %v", d, ok)
	}
	if d, ok := topo.DomainByName("domain-0"); !ok || d != 0 {
		t.Errorf("DomainByName(domain-0) = %d, %v", d, ok)
	}
	if d, ok := topo.DomainByName("domain-1"); !ok || d != 1 {
		t.Errorf("a named domain still answers to its default: DomainByName(domain-1) = %d, %v", d, ok)
	}
	for _, miss := range []string{"nope", "domain-2", "domain-01", "domain-+1", "domain--0", "domain-", "domain-1x"} {
		if d, ok := topo.DomainByName(miss); ok {
			t.Errorf("DomainByName(%q) = %d, should miss", miss, d)
		}
	}
	// A name another domain answers to — assigned or default — is taken;
	// a domain may take back its own.
	if err := topo.SetDomainName(0, "pod-east"); err == nil {
		t.Error("SetDomainName accepted domain 1's assigned name for domain 0")
	}
	if err := topo.SetDomainName(0, "domain-1"); err == nil {
		t.Error("SetDomainName accepted domain 1's default name for domain 0")
	}
	if err := topo.SetDomainName(1, "domain-1"); err != nil {
		t.Errorf("SetDomainName(1, its own default) = %v", err)
	}
	if d, ok := topo.DomainByName("pod-east"); ok {
		t.Errorf("renamed domain's old name still resolves to %d", d)
	}
	if allocs := testing.AllocsPerRun(100, func() { topo.DomainByName("domain-0") }); allocs != 0 && !race.Enabled {
		t.Errorf("DomainByName(default form) allocates %.0f objects, want 0", allocs)
	}
	if err := topo.SetDomainName(7, "x"); err == nil {
		t.Error("SetDomainName on unknown domain should fail")
	}
	// a rack straddling two domains must be rejected
	bad := []Machine{
		{ID: 0, Rack: 0, Domain: 0, NumGPUs: 4, SlotSize: 2},
		{ID: 1, Rack: 0, Domain: 1, NumGPUs: 4, SlotSize: 2},
	}
	if _, err := NewTopology(bad); err == nil {
		t.Error("rack straddling domains should be rejected")
	}
}

// TestTopologyDenseIndices: racks and domains with sparse, unordered IDs get
// dense indices in ascending ID order, and RackMachines lists a rack's
// machines by ID without copying.
func TestTopologyDenseIndices(t *testing.T) {
	topo, err := NewTopology([]Machine{
		{ID: 0, Rack: 40, Domain: 9, NumGPUs: 4, SlotSize: 2},
		{ID: 1, Rack: -3, Domain: 2, NumGPUs: 4, SlotSize: 2},
		{ID: 2, Rack: 40, Domain: 9, NumGPUs: 2, SlotSize: 2},
		{ID: 3, Rack: 7, Domain: 9, NumGPUs: 1, SlotSize: 1},
		{ID: 4, Rack: -3, Domain: 2, NumGPUs: 4, SlotSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumRacks() != 3 || topo.NumDomains() != 2 {
		t.Fatalf("NumRacks, NumDomains = %d, %d, want 3, 2", topo.NumRacks(), topo.NumDomains())
	}
	if got, want := topo.Racks(), []RackID{-3, 7, 40}; !slices.Equal(got, want) {
		t.Errorf("Racks() = %v, want %v", got, want)
	}
	for i, want := range []struct {
		rack   RackID
		domain int
	}{{-3, 0}, {7, 1}, {40, 1}} {
		if r, d := topo.RackAt(i); r != want.rack || d != want.domain {
			t.Errorf("RackAt(%d) = %d, %d, want %d, %d", i, r, d, want.rack, want.domain)
		}
	}
	for m, want := range []struct{ rack, domain int }{{2, 1}, {0, 0}, {2, 1}, {1, 1}, {0, 0}} {
		if r, d := topo.RackIndex(MachineID(m)), topo.DomainIndex(MachineID(m)); r != want.rack || d != want.domain {
			t.Errorf("machine %d: RackIndex, DomainIndex = %d, %d, want %d, %d", m, r, d, want.rack, want.domain)
		}
	}
	if got, want := topo.RackMachines(40), []MachineID{0, 2}; !slices.Equal(got, want) {
		t.Errorf("RackMachines(40) = %v, want %v", got, want)
	}
	if got := topo.RackMachines(8); got != nil {
		t.Errorf("RackMachines(8) = %v for a rack the topology lacks", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { topo.RackMachines(-3) }); allocs != 0 && !race.Enabled {
		t.Errorf("RackMachines allocates %.0f objects, want 0", allocs)
	}
	copied := topo.MachinesInRack(-3)
	copied[0] = 99
	if got := topo.RackMachines(-3); !slices.Equal(got, []MachineID{1, 4}) {
		t.Errorf("writing MachinesInRack's result changed the topology: %v", got)
	}
}

func TestLocalityString(t *testing.T) {
	names := map[Locality]string{
		LocalitySlot:    "slot",
		LocalityMachine: "machine",
		LocalityRack:    "rack",
		LocalityDomain:  "cross-rack",
		LocalityNone:    "cross-domain",
		Locality(99):    "unknown",
	}
	for l, want := range names {
		if got := l.String(); got != want {
			t.Errorf("Locality(%d).String() = %q, want %q", l, got, want)
		}
	}
}

// mustTopo builds a homogeneous topology of n machines with g GPUs each.
func mustTopo(t *testing.T, n, g, slot int) *Topology {
	t.Helper()
	topo, err := Config{
		MachineSpecs: []MachineSpec{{Count: n, GPUs: g, SlotSize: slot}},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestAllocZeroEntryCanonicalization pins the Add/Sub satellite fix: zero
// entries in the operand must not introduce stored zeros (which would break
// Equal/Key canonicalization) and Sub's error must report the actual held
// count rather than the cloned-out zero.
func TestAllocZeroEntryCanonicalization(t *testing.T) {
	tests := []struct {
		name string
		a, b Alloc
		add  Alloc // expected a.Add(b); nil to skip
	}{
		{name: "zero entry on absent machine", a: Alloc{1: 2}, b: Alloc{5: 0}, add: Alloc{1: 2}},
		{name: "zero entry on present machine", a: Alloc{1: 2}, b: Alloc{1: 0}, add: Alloc{1: 2}},
		{name: "all zero operand", a: Alloc{}, b: Alloc{3: 0, 7: 0}, add: Alloc{}},
		{name: "mixed zero and real", a: Alloc{1: 1}, b: Alloc{1: 0, 2: 3}, add: Alloc{1: 1, 2: 3}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.a.Add(tc.b)
			if !got.Equal(tc.add) {
				t.Fatalf("Add = %v, want %v", got, tc.add)
			}
			for m, n := range got {
				if n == 0 {
					t.Fatalf("Add stored a zero entry for machine %d: %v", m, got)
				}
			}
			if got.String() != tc.add.String() {
				t.Fatalf("String diverged: %q vs %q", got.String(), tc.add.String())
			}
			sub := got.Clone()
			if err := sub.Debit(tc.b); err != nil {
				t.Fatalf("Debit of zero entries failed: %v", err)
			}
			for m, n := range sub {
				if n == 0 {
					t.Fatalf("Debit stored a zero entry for machine %d: %v", m, sub)
				}
			}
			if !sub.Equal(tc.a) {
				t.Fatalf("Add then Debit of b did not restore a: %v vs %v", sub, tc.a)
			}
		})
	}
}

func TestAllocSubErrorReportsHeldCount(t *testing.T) {
	a := Alloc{4: 2}
	if err := a.Debit(Alloc{4: 5}); err == nil || !strings.Contains(err.Error(), "(have 2)") {
		t.Fatalf("Debit error should report held count 2, got: %v", err)
	}
	if err := a.Debit(Alloc{9: 1}); err == nil || !strings.Contains(err.Error(), "(have 0)") {
		t.Fatalf("Debit from absent machine should report have 0, got: %v", err)
	}
}
