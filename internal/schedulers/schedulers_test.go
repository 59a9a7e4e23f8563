package schedulers

import (
	"context"
	"testing"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/placement"
	"themis/internal/sim"
	"themis/internal/workload"
)

func mustThemis(t *testing.T, cfg core.Config) *Themis {
	t.Helper()
	p, err := NewThemis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func benchTopo(t *testing.T) *cluster.Topology {
	t.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 8, GPUs: 4, SlotSize: 2}},
		MachinesPerRack: 4,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// smallTrace generates a small, fast workload for policy tests.
func smallTrace(t *testing.T, seed int64, numApps int) []*workload.App {
	t.Helper()
	cfg := workload.DefaultGeneratorConfig()
	cfg.Seed = seed
	cfg.NumApps = numApps
	cfg.MeanInterArrival = 8
	cfg.JobsPerAppMedian = 4
	cfg.MaxJobsPerApp = 8
	cfg.ShortTaskMedian = 20
	cfg.LongTaskMedian = 40
	cfg.MaxTaskDuration = 120
	apps, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return apps
}

func runPolicy(t *testing.T, policy sim.Policy, seed int64, numApps int) *sim.Result {
	t.Helper()
	topo := benchTopo(t)
	s, err := sim.New(sim.Config{
		Topology:      topo,
		Apps:          smallTrace(t, seed, numApps),
		Policy:        policy,
		LeaseDuration: 10,
		Horizon:       4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func allPolicies(t *testing.T) []sim.Policy {
	return []sim.Policy{
		mustThemis(t, core.DefaultConfig()),
		NewGandiva(),
		NewTiresias(),
		NewSLAQ(),
		NewResourceFair(),
	}
}

func TestPolicyNames(t *testing.T) {
	want := map[string]bool{"themis": true, "gandiva": true, "tiresias": true, "slaq": true, "resource-fair": true}
	for _, p := range allPolicies(t) {
		if !want[p.Name()] {
			t.Errorf("unexpected policy name %q", p.Name())
		}
	}
}

func TestAllPoliciesCompleteWorkload(t *testing.T) {
	for _, p := range allPolicies(t) {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			res := runPolicy(t, p, 3, 8)
			finished := len(res.Finished())
			if finished != len(res.Apps) {
				t.Errorf("%s finished %d of %d apps within the horizon", p.Name(), finished, len(res.Apps))
			}
			for _, rec := range res.Apps {
				if rec.FinishTime == workload.NotFinished {
					continue
				}
				if rec.CompletionTime <= 0 {
					t.Errorf("%s: app %s completion time %v", p.Name(), rec.App, rec.CompletionTime)
				}
				if rec.FinishTimeFairness <= 0 {
					t.Errorf("%s: app %s rho %v", p.Name(), rec.App, rec.FinishTimeFairness)
				}
				if rec.PlacementScore < 0.5-1e-9 || rec.PlacementScore > 1+1e-9 {
					t.Errorf("%s: app %s placement score %v outside [0.5,1]", p.Name(), rec.App, rec.PlacementScore)
				}
			}
			if res.ClusterGPUTime <= 0 {
				t.Errorf("%s: no GPU time recorded", p.Name())
			}
		})
	}
}

// TestSpreadPick covers the placement-blind draw the Tiresias, SLAQ and
// resource-fair loops hand GPUs out with.
func TestSpreadPick(t *testing.T) {
	var picker placement.Picker
	picker.Load(cluster.TestbedCluster(), cluster.Alloc{0: 4, 1: 4, 2: 2})
	got := picker.DrawSpread(nil, 3)
	if got.Total() != 3 {
		t.Fatalf("picked %d GPUs, want 3", got.Total())
	}
	// Round-robin means the first three GPUs land on three different machines.
	if len(got.Machines()) != 3 {
		t.Errorf("DrawSpread should spread across machines, got %v", got)
	}
	if want := (cluster.Alloc{0: 3, 1: 3, 2: 1}); !picker.Remaining(nil).Equal(want) {
		t.Errorf("pool after the draw = %v, want %v", picker.Remaining(nil), want)
	}
	if got := picker.DrawSpread(nil, 0); !got.IsEmpty() {
		t.Errorf("count 0 should pick nothing")
	}
	if got := picker.DrawSpread(nil, 100); got.Total() != 7 || picker.Total() != 0 {
		t.Errorf("over-ask should drain the pool, got %d leaving %v", got.Total(), picker.Remaining(nil))
	}
}

func TestGandivaPrefersPackedPlacements(t *testing.T) {
	res := runPolicy(t, NewGandiva(), 7, 8)
	resSpread := runPolicy(t, NewTiresias(), 7, 8)
	avg := func(r *sim.Result) float64 {
		var sum float64
		var n int
		for _, rec := range r.Apps {
			if rec.PlacementScore > 0 {
				sum += rec.PlacementScore
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	if avg(res) < avg(resSpread) {
		t.Errorf("Gandiva average placement score %v should beat Tiresias %v", avg(res), avg(resSpread))
	}
}

func TestThemisImprovesWorstCaseFairness(t *testing.T) {
	// Placement-sensitive heavy workload: Themis should have a max rho no
	// worse than the placement-unaware LAS baseline.
	maxRho := func(r *sim.Result) float64 {
		worst := 0.0
		for _, rec := range r.Finished() {
			if rec.FinishTimeFairness > worst {
				worst = rec.FinishTimeFairness
			}
		}
		return worst
	}
	themis := runPolicy(t, mustThemis(t, core.DefaultConfig()), 11, 10)
	tiresias := runPolicy(t, NewTiresias(), 11, 10)
	if maxRho(themis) > maxRho(tiresias)*1.3 {
		t.Errorf("Themis max rho %v much worse than Tiresias %v", maxRho(themis), maxRho(tiresias))
	}
}

func TestThemisAllocationsRespectFreePool(t *testing.T) {
	topo := benchTopo(t)
	apps := smallTrace(t, 5, 6)
	policy := mustThemis(t, core.DefaultConfig())
	s, err := sim.New(sim.Config{Topology: topo, Apps: apps, Policy: policy, LeaseDuration: 10, Horizon: 3000})
	if err != nil {
		t.Fatal(err)
	}
	// The simulator panics if a policy over-allocates or conflicts, so a
	// clean run is the assertion.
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if policy.Arbiter() == nil {
		t.Fatal("arbiter never constructed")
	}
	stats := policy.Arbiter().Stats
	if stats.Auctions == 0 || stats.GPUsAuctioned == 0 {
		t.Errorf("no auctions recorded: %+v", stats)
	}
}

func TestThemisWithBidError(t *testing.T) {
	p := mustThemis(t, core.DefaultConfig())
	p.BidErrorTheta = 0.2
	p.ErrorSeed = 99
	res := runPolicy(t, p, 13, 6)
	if len(res.Finished()) != len(res.Apps) {
		t.Errorf("with 20%% bid error, %d of %d apps finished", len(res.Finished()), len(res.Apps))
	}
}

func TestChunkFor(t *testing.T) {
	app := workload.NewApp("x", 0, placement.ResNet50, []*workload.Job{
		workload.NewJob("x", 0, 100, 4),
		workload.NewJob("x", 1, 100, 2),
	})
	st := &sim.AppState{App: app}
	if got := chunkFor(st, 10); got != 4 {
		t.Errorf("chunkFor = %d, want 4 (largest gang)", got)
	}
	if got := chunkFor(st, 3); got != 3 {
		t.Errorf("chunkFor capped = %d, want 3", got)
	}
}
