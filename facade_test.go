package themis_test

// These tests exercise the public API exactly as an importing project would:
// only the themis package, no internal imports.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"themis"
)

// quickSpec is a workload small enough for sub-second end-to-end runs.
func quickSpec() themis.WorkloadSpec {
	spec := themis.DefaultWorkloadSpec()
	spec.NumApps = 6
	spec.Seed = 7
	spec.JobsPerAppMedian = 3
	spec.MaxJobsPerApp = 6
	spec.DurationScale = 0.15
	spec.MeanInterArrival = 4
	return spec
}

func TestOptionDefaults(t *testing.T) {
	s, err := themis.NewSimulation(themis.WithWorkload(quickSpec()))
	if err != nil {
		t.Fatal(err)
	}
	// The default topology is the paper's 50-GPU testbed.
	if got := s.Topology().TotalGPUs(); got != 50 {
		t.Errorf("default topology has %d GPUs, want 50 (testbed)", got)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Summary.Policy; got != "themis" {
		t.Errorf("default policy = %q, want themis", got)
	}
	if got := rep.Summary.AppsTotal; got != 6 {
		t.Errorf("workload has %d apps, want 6", got)
	}
}

func TestConfigurationErrors(t *testing.T) {
	profile, err := themis.Model("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	dup := func() *themis.App {
		app, err := themis.NewApp("dup", 0, profile, []*themis.Job{themis.NewJob("dup", 0, 60, 2)})
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	cases := []struct {
		name string
		opts []themis.Option
		want string
	}{
		{"no workload", nil, "no workload"},
		{"unknown policy", []themis.Option{themis.WithWorkload(quickSpec()), themis.WithPolicy("nope")}, "unknown policy"},
		{"unknown cluster", []themis.Option{themis.WithCluster("moon-dc")}, "unknown cluster"},
		{"fairness knob high", []themis.Option{themis.WithFairnessKnob(1.5)}, "fairness knob"},
		{"fairness knob negative", []themis.Option{themis.WithFairnessKnob(-0.1)}, "fairness knob"},
		{"negative lease", []themis.Option{themis.WithLeaseDuration(-1)}, "lease duration"},
		{"bid error", []themis.Option{themis.WithBidError(1.2)}, "bid error"},
		{"nil topology", []themis.Option{themis.WithTopology(nil)}, "WithTopology"},
		{"missing trace file", []themis.Option{themis.WithTraceFile("/nonexistent/trace.json")}, "trace"},
		{"failure outside the cluster", []themis.Option{themis.WithWorkload(quickSpec()), themis.WithFailures(themis.Failure{Time: 5, Machine: 9999, Duration: 10})}, "outside the topology"},
		{"two apps sharing an ID", []themis.Option{themis.WithCluster("testbed"), themis.WithApps(dup(), dup())}, `share the ID "dup"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := themis.NewSimulation(tc.opts...)
			if err == nil {
				t.Fatal("NewSimulation succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := themis.Policies()
	for _, want := range []string{"themis", "gandiva", "tiresias", "slaq", "resource-fair", "strawman"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in policy %q not registered (got %v)", want, names)
		}
	}
	if _, err := themis.Policy("no-such-policy"); err == nil {
		t.Error("Policy on unknown name succeeded, want error")
	}
	// Invalid configurations surface at construction, not as panics mid-run.
	if _, err := themis.Policy("themis", themis.PolicyConfig{FairnessKnob: 2}); err == nil {
		t.Error("Policy with invalid fairness knob succeeded, want error")
	}
	p, err := themis.Policy("gandiva")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "gandiva" {
		t.Errorf("policy name %q, want gandiva", p.Name())
	}
}

func TestFairnessKnobZeroIsValid(t *testing.T) {
	// f = 0 offers GPUs to every app — the extreme of the paper's Figure 4a
	// sweep — and must not be conflated with "unset".
	s, err := themis.NewSimulation(
		themis.WithWorkload(quickSpec()),
		themis.WithFairnessKnob(0),
		themis.WithHorizon(4000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyInstanceConflictsWithKnobs(t *testing.T) {
	p, err := themis.Policy("gandiva")
	if err != nil {
		t.Fatal(err)
	}
	_, err = themis.NewSimulation(
		themis.WithWorkload(quickSpec()),
		themis.WithPolicyInstance(p),
		themis.WithBidError(0.2),
	)
	if err == nil || !strings.Contains(err.Error(), "WithPolicyInstance") {
		t.Errorf("instance + knob combination returned %v, want conflict error", err)
	}
}

func TestContextCancellation(t *testing.T) {
	s, err := themis.NewSimulation(themis.WithWorkload(quickSpec()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Run with cancelled context returned %v, want context.Canceled", err)
	}
}

func TestSimulationIsSingleUse(t *testing.T) {
	s, err := themis.NewSimulation(themis.WithWorkload(quickSpec()), themis.WithHorizon(2000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err == nil {
		t.Error("second Run succeeded, want error")
	}
}

func TestSmokeEveryRegisteredPolicy(t *testing.T) {
	for _, name := range themis.Policies() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := themis.NewSimulation(
				themis.WithWorkload(quickSpec()),
				themis.WithPolicy(name),
				themis.WithLeaseDuration(10),
				themis.WithHorizon(4000),
			)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Summary.AppsTotal != 6 {
				t.Errorf("report covers %d apps, want 6", rep.Summary.AppsTotal)
			}
			if rep.Summary.AppsFinished == 0 {
				t.Errorf("%s finished no apps within the horizon", name)
			}
			if rep.Summary.GPUTime <= 0 {
				t.Errorf("%s recorded no GPU time", name)
			}
			if name == "themis" {
				if rep.Auction == nil || rep.Auction.Auctions == 0 {
					t.Error("themis run reported no auction stats")
				}
			} else if rep.Auction != nil {
				t.Errorf("%s run reported Themis auction stats", name)
			}
			if got := len(rep.TimelineFor(rep.Apps[0].App)); got == 0 {
				t.Errorf("no timeline events for %s", rep.Apps[0].App)
			}
		})
	}
}

// greedyPolicy implements SchedulerPolicy using only public names — exactly
// what an external importer bringing a policy of its own would write.
type greedyPolicy struct{}

func (greedyPolicy) Name() string { return "greedy-test" }

func (greedyPolicy) Allocate(now float64, free themis.Alloc, view *themis.View) (map[themis.AppID]themis.Alloc, error) {
	out := make(map[themis.AppID]themis.Alloc)
	remaining := free.Clone()
	for _, st := range view.Apps {
		want := st.UnmetDemand()
		if want <= 0 || remaining.Total() == 0 {
			continue
		}
		grant := themis.Alloc{}
		for _, m := range remaining.Machines() {
			for remaining[m] > 0 && want > 0 {
				remaining[m]--
				grant[m]++
				want--
			}
		}
		if grant.Total() > 0 {
			out[st.App.ID] = grant
		}
	}
	return out, nil
}

func TestCustomPolicyInstance(t *testing.T) {
	s, err := themis.NewSimulation(
		themis.WithWorkload(quickSpec()),
		themis.WithPolicyInstance(greedyPolicy{}),
		themis.WithHorizon(4000),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Policy != "greedy-test" {
		t.Errorf("summary policy %q, want greedy-test", rep.Summary.Policy)
	}
	if rep.Summary.AppsFinished == 0 {
		t.Error("custom policy finished no apps")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	apps, err := themis.GenerateWorkload(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	tr := themis.NewTrace("round-trip", apps)
	path := t.TempDir() + "/trace.json"
	if err := themis.SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	s, err := themis.NewSimulation(themis.WithTraceFile(path), themis.WithHorizon(4000))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.AppsTotal != len(apps) {
		t.Errorf("replayed %d apps, want %d", rep.Summary.AppsTotal, len(apps))
	}
}

func TestWorkloadSpecDefaulting(t *testing.T) {
	apps, err := themis.GenerateWorkload(themis.WorkloadSpec{NumApps: 3})
	if err != nil {
		t.Fatalf("sparse spec should default the rest: %v", err)
	}
	if len(apps) != 3 {
		t.Errorf("generated %d apps, want 3", len(apps))
	}
}

func TestModelCatalog(t *testing.T) {
	if _, err := themis.Model("VGG16"); err != nil {
		t.Errorf("VGG16 missing from catalog: %v", err)
	}
	if _, err := themis.Model("NotAModel"); err == nil {
		t.Error("unknown model lookup succeeded, want error")
	}
	if names := themis.ModelNames(); len(names) == 0 {
		t.Error("empty model catalog")
	}
}

func TestCustomAppConstruction(t *testing.T) {
	profile, err := themis.Model("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*themis.Job{themis.NewJob("custom", 0, 60, 2)}
	app, err := themis.NewApp("custom", 0, profile, jobs)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := themis.ClusterConfig{
		MachineSpecs:    []themis.MachineSpec{{Count: 2, GPUs: 4, SlotSize: 2, GPU: themis.GPUTypeP100}},
		MachinesPerRack: 2,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := themis.NewSimulation(
		themis.WithTopology(topo),
		themis.WithApps(app),
		themis.WithPolicy("resource-fair"),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Finished()) != 1 {
		t.Errorf("custom app did not finish: %+v", rep.Apps)
	}
	// An invalid app (no jobs) errors at construction.
	if _, err := themis.NewApp("empty", 0, profile, nil); err == nil {
		t.Error("NewApp with no jobs succeeded, want error")
	}
}
