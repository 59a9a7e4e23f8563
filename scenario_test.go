package themis

import (
	"context"
	"strings"
	"testing"
)

func TestScenarioRegistry(t *testing.T) {
	names := Scenarios()
	for _, want := range []string{"paper-mix", "diurnal", "heavy-tailed", "bursty", "mixed-gangs"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in scenario %q not registered: %v", want, names)
		}
	}
	desc, err := DescribeScenario("diurnal")
	if err != nil || !strings.Contains(desc, "day-night") {
		t.Errorf("DescribeScenario(diurnal) = %q, %v", desc, err)
	}
	if _, err := DescribeScenario("nope"); err == nil {
		t.Error("unknown scenario should fail")
	}
}

func TestGenerateScenarioParams(t *testing.T) {
	apps, err := GenerateScenario("heavy-tailed", ScenarioParams{Seed: 5, NumApps: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 7 {
		t.Fatalf("NumApps override ignored: %d apps", len(apps))
	}
	again, err := GenerateScenario("heavy-tailed", ScenarioParams{Seed: 5, NumApps: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range apps {
		if apps[i].SubmitTime != again[i].SubmitTime {
			t.Fatalf("scenario replay diverged at app %d", i)
		}
	}
	if _, err := GenerateScenario("nope"); err == nil {
		t.Error("unknown scenario should fail")
	}
	if _, err := GenerateScenario("paper-mix", ScenarioParams{}, ScenarioParams{}); err == nil {
		t.Error("two params should fail")
	}
}

func TestWithScenarioOption(t *testing.T) {
	sim, err := NewSimulation(
		WithScenario("bursty", ScenarioParams{NumApps: 6, DurationScale: 0.1}),
		WithSeed(3),
		WithHorizon(5000),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.AppsTotal != 6 {
		t.Fatalf("scenario workload has %d apps, want 6", rep.Summary.AppsTotal)
	}
	if _, err := NewSimulation(WithScenario("nope")); err == nil {
		t.Error("unknown scenario should fail at option time")
	}
	// The last workload option wins, like the other sources.
	s := defaultSettings()
	for _, opt := range []Option{WithScenario("diurnal"), WithWorkload(WorkloadSpec{NumApps: 3})} {
		if err := opt(s); err != nil {
			t.Fatal(err)
		}
	}
	apps, err := resolveApps(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 3 {
		t.Errorf("later WithWorkload should override WithScenario: %d apps", len(apps))
	}
}

func TestGridSpecs(t *testing.T) {
	specs, err := Grid{
		Policies:  []string{"themis", "tiresias"},
		Scenarios: []string{"paper-mix", "diurnal"},
		Seeds:     []int64{1, 2},
		Params:    ScenarioParams{NumApps: 4, DurationScale: 0.1},
		Base:      []Option{WithHorizon(2000)},
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("grid expanded to %d specs, want 8", len(specs))
	}
	if specs[0].Name != "themis/paper-mix/seed=1" || specs[7].Name != "tiresias/diurnal/seed=2" {
		t.Errorf("spec names: %q ... %q", specs[0].Name, specs[7].Name)
	}
	if _, err := (Grid{Scenarios: []string{"nope"}}).Specs(); err == nil {
		t.Error("unknown scenario axis entry should fail")
	}
	if _, err := (Grid{Policies: []string{"nope"}}).Specs(); err == nil {
		t.Error("unknown policy axis entry should fail")
	}
	// Empty axes collapse to defaults.
	specs, err = Grid{Base: []Option{WithWorkload(WorkloadSpec{NumApps: 2})}}.Specs()
	if err != nil || len(specs) != 1 || specs[0].Name != "themis/seed=1" {
		t.Errorf("default grid: %d specs, err=%v", len(specs), err)
	}
}

func TestGridRunsThroughSweep(t *testing.T) {
	specs, err := Grid{
		Policies:  []string{"themis"},
		Scenarios: []string{"diurnal", "heavy-tailed"},
		Seeds:     []int64{9},
		Params:    ScenarioParams{NumApps: 5, DurationScale: 0.1},
		Base:      []Option{WithHorizon(8000)},
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunSweep(context.Background(), 2, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Report == nil || res.Report.Summary.AppsTotal != 5 {
			t.Errorf("result %d (%s): %+v", i, res.Name, res.Report)
		}
	}
}
