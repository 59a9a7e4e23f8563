package pack

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"strings"
	"sync"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden placement plans")

// buildFabric builds a test fleet of one rack per fabric domain, with the
// given machine count per domain and 4 GPUs (slot 2) per machine.
func buildFabric(t testing.TB, domainSizes ...int) *cluster.Topology {
	t.Helper()
	var domains []topology.DomainSpec
	for i, n := range domainSizes {
		domains = append(domains, topology.DomainSpec{
			Name: fmt.Sprintf("pod-%d", i),
			Racks: []topology.RackSpec{{
				Machines: []topology.MachineGroup{{Count: n, GPUs: 4, SlotSize: 2, Flavor: cluster.GPUTypeP100}},
			}},
		})
	}
	topo, err := topology.Spec{
		Name:    "fabric",
		Regions: []topology.RegionSpec{{Name: "r0", Domains: domains}},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func fullyFree(topo *cluster.Topology) cluster.Alloc {
	free := cluster.NewAlloc()
	for _, m := range topo.Machines() {
		free[m.ID] = m.NumGPUs
	}
	return free
}

// domainCount returns the number of fabric domains alloc spans.
func domainCount(topo *cluster.Topology, alloc cluster.Alloc) int {
	domains := make(map[cluster.DomainID]bool)
	for _, m := range alloc.Machines() {
		domains[topo.Domain(m)] = true
	}
	return len(domains)
}

func TestPackPrefersLeastResidualFittingDomain(t *testing.T) {
	topo := buildFabric(t, 4, 3, 2) // capacities 16, 12, 8
	e := New(topology.Lift(topo))
	// 6 GPUs fit in every domain; the 8-GPU domain 2 has least residual.
	alloc := e.Place(fullyFree(topo), nil, 6, placement.Constraint{})
	if alloc.Total() != 6 || domainCount(topo, alloc) != 1 {
		t.Fatalf("placed %v", alloc)
	}
	for _, m := range alloc.Machines() {
		if topo.Domain(m) != 2 {
			t.Errorf("expected pack into domain 2 (least residual): %v", alloc)
		}
	}
}

func TestPackNoCutWhenDomainFits(t *testing.T) {
	topo := buildFabric(t, 4, 3, 2)
	e := New(topology.Lift(topo))
	// Drain domain 2 entirely and domain 1 partially; an 8-GPU gang still
	// fits whole in domain 0 and must not be cut.
	free := fullyFree(topo)
	delete(free, 7) // domain 2
	delete(free, 8)
	free[4] = 1 // domain 1 mostly busy
	alloc := e.Place(free, nil, 8, placement.Constraint{})
	if got := alloc.Total(); got != 8 {
		t.Fatalf("granted %d, want 8", got)
	}
	if d := domainCount(topo, alloc); d != 1 {
		t.Errorf("gang cut across %d domains despite a fitting domain: %v", d, alloc)
	}
}

func TestPackSpillsByDescendingCapacity(t *testing.T) {
	topo := buildFabric(t, 4, 3, 2) // 16 + 12 + 8 GPUs
	e := New(topology.Lift(topo))
	// 20 GPUs fit in no single domain: expect domain 0 filled whole (16)
	// and the rest from domain 1, leaving domain 2 untouched — two cuts,
	// not three.
	alloc := e.Place(fullyFree(topo), nil, 20, placement.Constraint{})
	if got := alloc.Total(); got != 20 {
		t.Fatalf("granted %d, want 20", got)
	}
	if d := domainCount(topo, alloc); d != 2 {
		t.Errorf("spill spans %d domains, want 2: %v", d, alloc)
	}
	for _, m := range alloc.Machines() {
		if topo.Domain(m) == 2 {
			t.Errorf("smallest domain should stay empty: %v", alloc)
		}
	}
}

func TestPackExtendsAnchorInPlace(t *testing.T) {
	topo := buildFabric(t, 4, 3, 2)
	e := New(topology.Lift(topo))
	free := fullyFree(topo)
	anchor := cluster.Alloc{4: 2} // domain 1
	free[4] = 2
	alloc := e.Place(free, anchor, 4, placement.Constraint{})
	if alloc.Total() != 4 {
		t.Fatalf("granted %d, want 4", alloc.Total())
	}
	for _, m := range alloc.Machines() {
		if topo.Domain(m) != 1 {
			t.Errorf("extension left the anchor's domain: %v", alloc)
		}
	}
	if alloc[4] != 2 {
		t.Errorf("anchor machine should fill first: %v", alloc)
	}
}

func TestPackHonorsConstraints(t *testing.T) {
	topo := buildFabric(t, 4, 3, 2)
	e := New(topology.Lift(topo))
	free := fullyFree(topo)
	free[0] = 1 // a 1-GPU hole the floor must skip

	c := placement.Constraint{MinGPUsPerMachine: 2}
	alloc := e.Place(free, cluster.NewAlloc(), 9, c)
	if !placement.Satisfies(topo, alloc, c) {
		t.Errorf("floor violated: %v", alloc)
	}

	c = placement.Constraint{Domain: 1, HasDomain: true}
	alloc = e.Place(free, cluster.NewAlloc(), 20, c)
	for _, m := range alloc.Machines() {
		if topo.Domain(m) != 1 {
			t.Errorf("domain affinity violated: %v", alloc)
		}
	}
	if alloc.Total() != 12 {
		t.Errorf("domain 1 holds 12 GPUs, granted %d", alloc.Total())
	}

	c = placement.Constraint{MaxMachines: 2}
	alloc = e.Place(free, cluster.NewAlloc(), 12, c)
	if len(alloc.Machines()) > 2 {
		t.Errorf("machine cap violated: %v", alloc)
	}
}

// TestPackDeterministic asserts the engine is a pure function of its inputs
// under map-iteration shuffling: free vectors built in random insertion
// orders (and re-run many times so Go's randomised map iteration varies)
// always produce identical plans.
func TestPackDeterministic(t *testing.T) {
	topo := buildFabric(t, 4, 3, 2)
	e := New(topology.Lift(topo))
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		// random free vector
		ids := make([]cluster.MachineID, topo.NumMachines())
		for i := range ids {
			ids[i] = cluster.MachineID(i)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		free := cluster.NewAlloc()
		for _, id := range ids {
			if n := rng.Intn(topo.Machine(id).NumGPUs + 1); n > 0 {
				free[id] = n
			}
		}
		anchor := cluster.NewAlloc()
		if trial%3 == 0 && free.Total() > 0 {
			m := free.Machines()[0]
			anchor[m] = 1
		}
		want := 1 + rng.Intn(12)
		c := placement.Constraint{}
		if trial%4 == 0 {
			c.MinGPUsPerMachine = 2
		}
		first := e.Place(free.Clone(), anchor.Clone(), want, c)
		for rep := 0; rep < 5; rep++ {
			// rebuild the maps in a fresh random order
			shuffled := cluster.NewAlloc()
			perm := rng.Perm(len(ids))
			for _, k := range perm {
				if n, ok := free[ids[k]]; ok {
					shuffled[ids[k]] = n
				}
			}
			got := e.Place(shuffled, anchor.Clone(), want, c)
			if !got.Equal(first) {
				t.Fatalf("trial %d rep %d: nondeterministic plan:\n  first %v\n  got   %v\n  free %v want %d", trial, rep, first, got, free, want)
			}
		}
	}
}

// TestPackConcurrentPlacesMatchSequential: one Engine serving several
// goroutines at once, whose Place calls share its pool of pickers, plans
// every request exactly as a lone caller does.
func TestPackConcurrentPlacesMatchSequential(t *testing.T) {
	topo := buildFabric(t, 4, 3, 2)
	e := New(topology.Lift(topo))
	rng := rand.New(rand.NewSource(7))
	type request struct {
		free, anchor cluster.Alloc
		want         int
		c            placement.Constraint
	}
	var reqs []request
	var plans []cluster.Alloc
	for range 64 {
		r := request{free: cluster.NewAlloc(), anchor: cluster.NewAlloc(), want: 1 + rng.Intn(12)}
		for _, m := range topo.Machines() {
			if n := rng.Intn(m.NumGPUs + 1); n > 0 {
				r.free[m.ID] = n
			}
			if rng.Intn(6) == 0 {
				r.anchor[m.ID] = 1
			}
		}
		if rng.Intn(3) == 0 {
			r.c.MinGPUsPerMachine = 2
		}
		reqs = append(reqs, r)
		plans = append(plans, e.Place(r.free, r.anchor, r.want, r.c))
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range reqs {
				i := (k + g*8) % len(reqs)
				r := reqs[i]
				if got := e.Place(r.free, r.anchor, r.want, r.c); !got.Equal(plans[i]) {
					t.Errorf("goroutine %d request %d: plan %v, a lone caller got %v", g, i, got, plans[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestPackConservation asserts the engine never invents capacity: the plan
// fits within free, never exceeds the request, and grants the full request
// whenever enough unconstrained capacity exists.
func TestPackConservation(t *testing.T) {
	topo := buildFabric(t, 4, 3, 2)
	e := New(topology.Lift(topo))
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		free := cluster.NewAlloc()
		for i := 0; i < topo.NumMachines(); i++ {
			if n := rng.Intn(topo.Machine(cluster.MachineID(i)).NumGPUs + 1); n > 0 {
				free[cluster.MachineID(i)] = n
			}
		}
		want := rng.Intn(40)
		got := e.Place(free, cluster.NewAlloc(), want, placement.Constraint{})
		if got.Total() > want {
			t.Fatalf("granted %d > requested %d", got.Total(), want)
		}
		for m, n := range got {
			if n > free[m] {
				t.Fatalf("machine %d: granted %d > free %d", m, n, free[m])
			}
			if n < 0 {
				t.Fatalf("machine %d: negative grant %d", m, n)
			}
		}
		expect := want
		if free.Total() < want {
			expect = free.Total()
		}
		if got.Total() != expect {
			t.Fatalf("granted %d, want %d (free %d, requested %d)", got.Total(), expect, free.Total(), want)
		}
	}
}

// TestGoldenPlans pins the engine's plans on the paper's sim and testbed
// topologies: a fixed scripted sequence of requests drains each cluster and
// the resulting plans are compared line-for-line against a snapshot.
// Regenerate deliberately with:
//
//	go test -run TestGoldenPlans -update ./internal/pack/
func TestGoldenPlans(t *testing.T) {
	cases := []struct {
		name string
		topo *cluster.Topology
	}{
		{"sim", cluster.SimulationCluster()},
		{"testbed", cluster.TestbedCluster()},
		{"fabric", buildFabric(t, 4, 3, 2)},
	}
	requests := []struct {
		gpus int
		c    placement.Constraint
	}{
		{8, placement.Constraint{}},
		{4, placement.Constraint{MinGPUsPerMachine: 2}},
		{16, placement.Constraint{}},
		{2, placement.Constraint{MaxMachines: 1}},
		{12, placement.Constraint{}},
		{1, placement.Constraint{}},
		{6, placement.Constraint{MinGPUsPerMachine: 2, MaxMachines: 3}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			e := New(topology.Lift(c.topo))
			free := fullyFree(c.topo)
			var b strings.Builder
			for i, req := range requests {
				alloc := e.Place(free, nil, req.gpus, req.c)
				if err := free.Debit(alloc); err != nil {
					t.Fatalf("request %d: placement exceeds free: %v", i, err)
				}
				fmt.Fprintf(&b, "req %d want %d: granted=%d domains=%d locality=%s alloc=%s\n",
					i, req.gpus, alloc.Total(), domainCount(c.topo, alloc), cluster.LocalityOf(c.topo, alloc), alloc.String())
			}
			got := b.String()
			path := filepath.Join("testdata", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("plans diverge from golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

func BenchmarkPackSimCluster(b *testing.B) {
	topo := cluster.SimulationCluster()
	e := New(topology.Lift(topo))
	free := fullyFree(topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Place(free, cluster.NewAlloc(), 16, placement.Constraint{})
	}
}

func BenchmarkPackConstrained(b *testing.B) {
	topo := cluster.SimulationCluster()
	e := New(topology.Lift(topo))
	free := fullyFree(topo)
	c := placement.Constraint{MinGPUsPerMachine: 2, MaxMachines: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Place(free, cluster.NewAlloc(), 16, c)
	}
}
