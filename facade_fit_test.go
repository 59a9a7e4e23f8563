package themis

import (
	"context"
	"math"
	"testing"
)

// Acceptance: FitTrace on the output of GenerateScenario must recover the
// arrival-pattern kind and size-law kind of every built-in scenario family,
// with rate/shape parameters within the tolerances documented in
// internal/fit (MLE knobs within ~15%, day-shape and burst knobs within
// ~25–35%). The built-ins' default 50 apps are far below the detectors'
// documented minimum samples, so the families are generated at 2000 apps.
func TestFitRecoversBuiltinScenarioFamilies(t *testing.T) {
	cases := []struct {
		scenario string
		arrival  ArrivalPattern
		size     SizePattern
	}{
		{"paper-mix", ArrivalPoisson, SizeLognormal},
		{"diurnal", ArrivalDiurnal, SizeLognormal},
		{"heavy-tailed", ArrivalPoisson, SizePareto},
		{"bursty", ArrivalBursty, SizeLognormal},
		{"mixed-gangs", ArrivalPoisson, SizeLognormal},
	}
	for _, tc := range cases {
		t.Run(tc.scenario, func(t *testing.T) {
			apps, err := GenerateScenario(tc.scenario, ScenarioParams{Seed: 17, NumApps: 2000})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := FitTrace(NewTrace(tc.scenario, apps))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Arrival.Pattern != tc.arrival {
				t.Errorf("arrival = %s, want %s (amplitude %v, IoD %v, burst fraction %v)",
					rep.Arrival.Pattern, tc.arrival, rep.Arrival.DiurnalAmplitude,
					rep.Arrival.IndexOfDispersion, rep.Arrival.BurstFraction)
			}
			if rep.Size.Law != tc.size {
				t.Errorf("size law = %s, want %s (lognormal AIC %v, pareto AIC %v)",
					rep.Size.Law, tc.size, rep.Size.Lognormal.AIC, rep.Size.Pareto.AIC)
			}

			// Every built-in shares the paper's 20-minute mean inter-arrival.
			if got := rep.Config.MeanInterArrival; math.Abs(got-20) > 20*0.25 {
				t.Errorf("MeanInterArrival = %v, want 20 ± 25%%", got)
			}
			switch tc.scenario {
			case "diurnal":
				if got := rep.Config.DiurnalPeakToTrough; math.Abs(got-4) > 4*0.25 {
					t.Errorf("DiurnalPeakToTrough = %v, want 4 ± 25%%", got)
				}
			case "heavy-tailed":
				if got := rep.Size.ParetoAlpha; math.Abs(got-1.5) > 1.5*0.15 {
					t.Errorf("ParetoAlpha = %v, want 1.5 ± 15%%", got)
				}
				if got := rep.Size.ParetoMin; math.Abs(got-15) > 15*0.10 {
					t.Errorf("ParetoMin = %v, want 15 ± 10%%", got)
				}
			case "bursty":
				if got := float64(rep.Config.BurstApps); math.Abs(got-8) > 8*0.35 {
					t.Errorf("BurstApps = %v, want 8 ± 35%%", got)
				}
				if got := rep.Config.BurstFraction; math.Abs(got-0.5) > 0.12 {
					t.Errorf("BurstFraction = %v, want 0.5 ± 0.12", got)
				}
			case "mixed-gangs":
				wantSizes := []int{1, 2, 4, 8}
				if len(rep.Gangs) != len(wantSizes) {
					t.Fatalf("fitted %d gang sizes, want %d: %+v", len(rep.Gangs), len(wantSizes), rep.Gangs)
				}
				for i, g := range rep.Gangs {
					if g.Size != wantSizes[i] {
						t.Errorf("gang[%d].Size = %d, want %d", i, g.Size, wantSizes[i])
					}
				}
			}
		})
	}
}

// A fit report is a workload source through ComposeWorkload: the report
// survives SaveFitReport/LoadFitReport, ScenarioParams.Apply sets the app
// count and seed, and the composed apps drive a simulation and a sweep.
func TestFitReportComposesWorkload(t *testing.T) {
	apps, err := GenerateScenario("heavy-tailed", ScenarioParams{Seed: 3, NumApps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := FitTrace(NewTrace("facade-test-trace", apps))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Provenance.Source != "facade-test-trace" {
		t.Errorf("provenance source %q, want the trace's name", rep.Provenance.Source)
	}
	path := t.TempDir() + "/fitted.json"
	if err := SaveFitReport(path, rep); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFitReport(path)
	if err != nil {
		t.Fatal(err)
	}

	compose := func(r *FitReport, seed int64, n int) []*App {
		t.Helper()
		apps, err := ComposeWorkload(ScenarioParams{Seed: seed, NumApps: n}.Apply(r.Config))
		if err != nil {
			t.Fatal(err)
		}
		if len(apps) != n {
			t.Fatalf("composed %d apps, want %d", len(apps), n)
		}
		return apps
	}
	fresh, reloaded := compose(rep, 5, 8), compose(loaded, 5, 8)
	for i := range fresh {
		if fresh[i].SubmitTime != reloaded[i].SubmitTime || len(fresh[i].Jobs) != len(reloaded[i].Jobs) {
			t.Fatalf("app %d differs after the report's file round trip", i)
		}
	}

	sim, err := NewSimulation(WithCluster(ClusterTestbed), WithApps(fresh...), WithHorizon(4000))
	if err != nil {
		t.Fatal(err)
	}
	repSim, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(repSim.Apps) != 8 {
		t.Errorf("fitted workload run has %d apps, want 8", len(repSim.Apps))
	}

	var specs []SweepSpec
	for _, seed := range []int64{1, 2} {
		specs = append(specs, SweepSpec{Options: []Option{WithApps(compose(loaded, seed, 6)...), WithSeed(seed)}})
	}
	results, err := RunSweep(context.Background(), 2, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Report == nil || res.Report.Summary.AppsTotal != 6 {
			t.Fatalf("sweep cell %d: %+v", i, res.Report)
		}
	}
}
