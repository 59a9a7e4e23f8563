package core

import (
	"math"
	"testing"

	"themis/internal/cluster"
	"themis/internal/estimator"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/workload"
)

// testTopo builds a homogeneous test topology.
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

// testApp builds an app with nJobs identical trials of the given serial work
// and gang size.
func testApp(id workload.AppID, submit float64, profile placement.Profile, nJobs int, work float64, gang int) *workload.App {
	jobs := make([]*workload.Job, nJobs)
	for i := 0; i < nJobs; i++ {
		j := workload.NewJob(id, i, work, gang)
		j.Quality = float64(i+1) / float64(nJobs+1)
		j.Seed = int64(i + 1)
		jobs[i] = j
	}
	return workload.NewApp(id, submit, profile, jobs)
}

func TestTIdeal(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	app := testApp("a", 0, placement.ResNet50, 3, 120, 4)
	est := NewRhoEstimator(topo, app, hyperparam.NewSingle())
	// Each job: 120 serial minutes on up to 4 GPUs → 30 minutes; min = 30.
	if got := est.TIdeal(); math.Abs(got-30) > 1e-9 {
		t.Errorf("TIdeal = %v, want 30", got)
	}
	// A shorter job lowers the ideal time.
	app.Jobs[1].TotalWork = 40
	if got := est.TIdeal(); math.Abs(got-10) > 1e-9 {
		t.Errorf("TIdeal = %v, want 10", got)
	}
}

// TestTIdealCountsEndedJobs pins what TIdeal's comment states: every job
// counts, active or not, so T_ID stays put when the fastest job finishes, and
// even when every job has ended. Whether it should instead follow the active
// jobs is an open question (DESIGN.md "Known gaps"); this test records the
// behaviour the goldens were made with.
func TestTIdealCountsEndedJobs(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	app := testApp("a", 0, placement.ResNet50, 3, 120, 4)
	app.Jobs[1].TotalWork = 40 // the fastest job: 40 / 4 = 10 minutes
	est := NewRhoEstimator(topo, app, hyperparam.NewSingle())
	before := est.TIdeal()
	if math.Abs(before-10) > 1e-9 {
		t.Fatalf("TIdeal = %v, want 10", before)
	}
	app.Jobs[1].DoneWork, app.Jobs[1].DoneAt = 40, 10
	if got := est.TIdeal(); got != before {
		t.Errorf("TIdeal = %v after the fastest job finished, was %v", got, before)
	}
	app.Jobs[0].Kill(12)
	app.Jobs[2].DoneAt = 30
	if got := est.TIdeal(); got != before {
		t.Errorf("TIdeal = %v with no job active, was %v", got, before)
	}
}

func TestTSharedAndRho(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	app := testApp("a", 100, placement.ResNet50, 2, 120, 4)
	est := NewRhoEstimator(topo, app, hyperparam.NewSingle())

	// No allocation: unbounded (and growing with waiting time).
	if got := est.TShared(130, cluster.NewAlloc()); got < Unbounded {
		t.Errorf("TShared with no GPUs = %v, want ≥ Unbounded", got)
	}
	if est.TShared(200, cluster.NewAlloc()) <= est.TShared(130, cluster.NewAlloc()) {
		t.Error("starving longer should raise the unbounded TShared estimate")
	}
	if got := est.CurrentRho(130, cluster.NewAlloc()); got < Unbounded/100 {
		t.Errorf("CurrentRho with no GPUs = %v, want very large", got)
	}

	// 4 GPUs on one machine at t=130 (30 min elapsed): the faster job gets
	// all 4 GPUs → finishes in 30 more minutes → TSH = 60.
	alloc := cluster.Alloc{0: 4}
	if got := est.TShared(130, alloc); math.Abs(got-60) > 1e-9 {
		t.Errorf("TShared = %v, want 60", got)
	}
	// TIdeal = 30, so ρ = 2.
	if got := est.CurrentRho(130, alloc); math.Abs(got-2) > 1e-9 {
		t.Errorf("Rho = %v, want 2", got)
	}
	// Adding GPUs can only improve (lower) ρ for a placement-insensitive app.
	rhoMore := est.Rho(130, alloc, cluster.Alloc{1: 4})
	if rhoMore > 2+1e-9 {
		t.Errorf("more GPUs worsened rho: %v", rhoMore)
	}
}

func TestRhoPlacementSensitivity(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	// Network-intensive app: 1 job needing 4 GPUs.
	app := testApp("a", 0, placement.VGG16, 1, 200, 4)
	est := NewRhoEstimator(topo, app, hyperparam.NewSingle())
	packed := est.Rho(0, cluster.NewAlloc(), cluster.Alloc{0: 4})
	spread := est.Rho(0, cluster.NewAlloc(), cluster.Alloc{0: 2, 2: 2})
	if packed >= spread {
		t.Errorf("packed rho %v should beat cross-rack rho %v for VGG16", packed, spread)
	}
	// Compute-intensive app barely cares.
	appR := testApp("b", 0, placement.ResNet50, 1, 200, 4)
	estR := NewRhoEstimator(topo, appR, hyperparam.NewSingle())
	packedR := estR.Rho(0, cluster.NewAlloc(), cluster.Alloc{0: 4})
	spreadR := estR.Rho(0, cluster.NewAlloc(), cluster.Alloc{0: 2, 2: 2})
	if spreadR/packedR > 1.1 {
		t.Errorf("ResNet50 rho should be nearly placement-insensitive: %v vs %v", packedR, spreadR)
	}
}

func TestRhoRespectsMaxParallelism(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	app := testApp("a", 0, placement.ResNet50, 1, 100, 4)
	app.Jobs[0].MaxParallelism = 2
	est := NewRhoEstimator(topo, app, hyperparam.NewSingle())
	// Even with 8 GPUs offered, the single job can use only 2: TSH = 50.
	if got := est.TShared(0, cluster.Alloc{0: 4, 1: 4}); math.Abs(got-50) > 1e-9 {
		t.Errorf("TShared = %v, want 50 (parallelism capped at 2)", got)
	}
}

func TestFinalRho(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	app := testApp("a", 10, placement.ResNet50, 1, 120, 4)
	est := NewRhoEstimator(topo, app, hyperparam.NewSingle())
	app.FinishedAt = 100 // ran 90 minutes against an ideal of 30
	if got := est.FinalRho(100, cluster.NewAlloc()); math.Abs(got-3) > 1e-9 {
		t.Errorf("FinalRho = %v, want 3", got)
	}
}

func TestRhoErrorInjection(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	app := testApp("a", 0, placement.ResNet50, 1, 120, 4)
	est := NewRhoEstimator(topo, app, hyperparam.NewSingle())
	est.Errors = estimator.NewErrorModel(0.2, 3)
	alloc := cluster.Alloc{0: 4}
	base := 30.0 / est.TIdeal()
	got := est.CurrentRho(0, alloc)
	if got < base*0.8-1e-9 || got > base*1.2+1e-9 {
		t.Errorf("perturbed rho %v outside ±20%% of %v", got, base)
	}
}

func TestTSharedDrainedApp(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	app := testApp("a", 0, placement.ResNet50, 1, 100, 4)
	app.Jobs[0].Advance(0, 1000, 4, 1)
	est := NewRhoEstimator(topo, app, hyperparam.NewSingle())
	// No active jobs: TShared equals elapsed time.
	if got := est.TShared(40, cluster.NewAlloc()); got != 40 {
		t.Errorf("TShared for finished app = %v, want 40", got)
	}
}
