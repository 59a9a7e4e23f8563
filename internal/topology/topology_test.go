package topology

import (
	"testing"

	"themis/internal/cluster"
)

func twoDomainSpec() Spec {
	return Spec{
		Name: "two-pods",
		Regions: []RegionSpec{{
			Name: "east",
			Domains: []DomainSpec{
				{
					Name: "pod-a",
					Racks: []RackSpec{
						{Machines: []MachineGroup{{Count: 2, GPUs: 4, SlotSize: 2, Flavor: cluster.GPUTypeP100}}},
						{Machines: []MachineGroup{{Count: 2, GPUs: 4, SlotSize: 2, Flavor: cluster.GPUTypeP100}}},
					},
				},
				{
					Name: "pod-b",
					Racks: []RackSpec{
						{Machines: []MachineGroup{
							{Count: 2, GPUs: 2, SlotSize: 2, Flavor: cluster.GPUTypeV100},
							{Count: 1, GPUs: 1, Flavor: cluster.GPUTypeK80},
						}},
					},
				},
			},
		}},
	}
}

func TestSpecBuild(t *testing.T) {
	topo, err := twoDomainSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.NumMachines(); got != 7 {
		t.Errorf("NumMachines = %d, want 7", got)
	}
	if got := topo.NumRacks(); got != 3 {
		t.Errorf("NumRacks = %d, want 3", got)
	}
	if got := topo.TotalGPUs(); got != 21 {
		t.Errorf("TotalGPUs = %d, want 21", got)
	}
	// IDs are dense in declaration order: pod-a's four P100 machines, then
	// pod-b's rack of V100s and a K80.
	if m := topo.Machine(6); m.Domain != 1 || m.Rack != 2 || m.GPU != cluster.GPUTypeK80 || m.SlotSize != 1 {
		t.Errorf("Machine(6) = %+v", m)
	}
	if d, ok := topo.DomainByName("pod-a"); !ok || d != 0 {
		t.Errorf("DomainByName(pod-a) = %d, %v", d, ok)
	}
	if d, ok := topo.DomainByName("pod-b"); !ok || d != 1 {
		t.Errorf("DomainByName(pod-b) = %d, %v", d, ok)
	}
}

// A domain name another domain already answers to — a second "pod-a", or
// "domain-1" while domain 1 exists — would make job affinities resolve by map
// order; Build rejects it.
func TestSpecBuildRejectsDuplicateDomainNames(t *testing.T) {
	for _, name := range []string{"pod-a", "domain-0"} {
		spec := twoDomainSpec()
		spec.Regions[0].Domains[1].Name = name
		if _, err := spec.Build(); err == nil {
			t.Errorf("second domain named %q: Build succeeded", name)
		}
	}
	spec := twoDomainSpec()
	spec.Regions[0].Domains[0].Name = "domain-1"
	if _, err := spec.Build(); err == nil {
		t.Error("domain 0 named domain-1: Build succeeded")
	}
	// A domain may carry its own default name.
	spec.Regions[0].Domains[0].Name = "domain-0"
	if _, err := spec.Build(); err != nil {
		t.Errorf("domain 0 named domain-0: %v", err)
	}
}

func TestSpecBuildDeterministic(t *testing.T) {
	a, err := twoDomainSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := twoDomainSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := a.Machines(), b.Machines()
	if len(ma) != len(mb) {
		t.Fatalf("machine counts differ: %d vs %d", len(ma), len(mb))
	}
	for i := range ma {
		if ma[i] != mb[i] {
			t.Errorf("machine %d differs: %+v vs %+v", i, ma[i], mb[i])
		}
	}
}

func TestSpecBuildValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no regions", Spec{Name: "x"}},
		{"no domains", Spec{Regions: []RegionSpec{{Name: "r"}}}},
		{"no racks", Spec{Regions: []RegionSpec{{Domains: []DomainSpec{{Name: "d"}}}}}},
		{"empty rack", Spec{Regions: []RegionSpec{{Domains: []DomainSpec{{Racks: []RackSpec{{}}}}}}}},
		{"zero count", Spec{Regions: []RegionSpec{{Domains: []DomainSpec{{Racks: []RackSpec{
			{Machines: []MachineGroup{{Count: 0, GPUs: 4}}},
		}}}}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.spec.Build(); err == nil {
				t.Error("expected build error")
			}
		})
	}
}

func TestLiftFlatTopology(t *testing.T) {
	topo := cluster.TestbedCluster()
	if Lift(topo).Topology() != topo {
		t.Error("Lift should wrap the original topology")
	}
}
