package themis

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// The cluster table: built-ins present, unknowns rejected by name.
func TestClusterRegistry(t *testing.T) {
	names := Clusters()
	for _, want := range []string{ClusterSim, ClusterTestbed, ClusterSimFabric} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in cluster %q missing from Clusters() = %v", want, names)
		}
		if _, err := Cluster(want); err != nil {
			t.Errorf("Cluster(%q): %v", want, err)
		}
	}
	if _, err := Cluster("no-such-cluster"); err == nil || !strings.Contains(err.Error(), "no-such-cluster") {
		t.Errorf("unknown cluster error = %v, want it to name the cluster", err)
	}
}

// sim-fabric must hold the same fleet as sim, re-homed into three named
// domains the placement layer can resolve.
func TestSimFabricMatchesSimFleet(t *testing.T) {
	sim, err := Cluster(ClusterSim)
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := Cluster(ClusterSimFabric)
	if err != nil {
		t.Fatal(err)
	}
	if sim.TotalGPUs() != fabric.TotalGPUs() || sim.NumMachines() != fabric.NumMachines() {
		t.Errorf("sim-fabric fleet %d GPUs / %d machines, want sim's %d / %d",
			fabric.TotalGPUs(), fabric.NumMachines(), sim.TotalGPUs(), sim.NumMachines())
	}
	for i, pod := range []string{"pod-a", "pod-b", "pod-c"} {
		if d, ok := fabric.DomainByName(pod); !ok || int(d) != i {
			t.Errorf("sim-fabric fabric domain %q = %d, %v; want domain %d", pod, d, ok, i)
		}
	}
}

// A lookup that misses lists the names under the read lock it already
// holds: taking the lock a second time would deadlock against a register
// queued in between (sync.RWMutex forbids recursive read locking). The packer
// table, the one that takes registrations, is hammered with registrations and
// misses at once; a deadlock trips the deadline. It is swapped for an empty
// one so the junk entries do not outlive the test.
func TestRegistriesConcurrentRegisterAndMiss(t *testing.T) {
	old := packers
	packers = newRegistry("packer", map[string]PackerFactory{})
	t.Cleanup(func() { packers = old })

	const rounds = 300
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := RegisterPacker(fmt.Sprintf("r%d", i), "", func(*Topology) Packer { return nil }); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := packers.lookup("no-such"); err == nil || !strings.Contains(err.Error(), `"no-such"`) {
				errs <- fmt.Errorf("miss returned %v", err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("packer table deadlocked under concurrent register + miss")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(Packers()); got != rounds {
		t.Errorf("Packers() lists %d names, want %d", got, rounds)
	}
}

// The packer registry: the built-in engine present, unknowns rejected by
// WithPacker at construction time, empty name meaning "policy places".
func TestPackerRegistry(t *testing.T) {
	found := false
	for _, n := range Packers() {
		if n == PackerPackToEmpty {
			found = true
		}
	}
	if !found {
		t.Fatalf("built-in packer %q missing from Packers() = %v", PackerPackToEmpty, Packers())
	}
	if _, err := NewSimulation(WithApps(smokeApps(t)...), WithPacker("no-such-packer")); err == nil {
		t.Error("unknown packer accepted by NewSimulation")
	}
	if err := RegisterPacker(PackerPackToEmpty, "dup", func(*Topology) Packer { return nil }); err == nil {
		t.Error("duplicate packer registration succeeded")
	}
	if _, err := NewSimulation(WithApps(smokeApps(t)...), WithPacker("")); err != nil {
		t.Errorf("empty packer name rejected: %v", err)
	}
}

// smokeApps builds a minimal valid workload for construction-error tests.
func smokeApps(t *testing.T) []*App {
	t.Helper()
	app, err := NewApp("smoke", 0, mustModel(t, "ResNet50"), []*Job{NewJob("smoke", 0, 10, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return []*App{app}
}

func mustModel(t *testing.T, name string) Profile {
	t.Helper()
	p, err := Model(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The Grid's Clusters axis: expansion order, spec naming and the WithCluster
// option landing in each spec; unknown clusters fail Specs() up front.
func TestGridClustersAxis(t *testing.T) {
	specs, err := Grid{
		Policies: []string{"themis", "gandiva"},
		Clusters: []string{ClusterTestbed, ClusterSimFabric},
		Seeds:    []int64{1},
		Base:     []Option{WithWorkload(WorkloadSpec{NumApps: 1})},
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{
		"themis/testbed/seed=1",
		"themis/sim-fabric/seed=1",
		"gandiva/testbed/seed=1",
		"gandiva/sim-fabric/seed=1",
	}
	if len(specs) != len(wantNames) {
		t.Fatalf("%d specs, want %d", len(specs), len(wantNames))
	}
	for i, want := range wantNames {
		if specs[i].Name != want {
			t.Errorf("spec %d named %q, want %q", i, specs[i].Name, want)
		}
	}
	// The cluster option must actually take effect: build the sim-fabric
	// spec and check the resulting topology.
	sim, err := NewSimulation(specs[1].Options...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.Topology().DomainByName("pod-a"); !ok {
		t.Error("sim-fabric spec built a topology without pod-a")
	}
	if _, err := (Grid{Clusters: []string{"no-such-cluster"}}).Specs(); err == nil {
		t.Error("unknown cluster accepted by Grid.Specs")
	}
	if _, err := (Grid{Policies: []string{"themis", "nope"}, Clusters: []string{ClusterSim}}).Specs(); err == nil {
		t.Error("unknown policy accepted by Grid.Specs")
	}
}
