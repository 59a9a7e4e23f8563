package themis

// Golden determinism tests: every built-in policy replays a fixed seeded
// trace and the resulting Report is compared byte-for-byte against a snapshot
// under testdata/golden. These snapshots were generated with the pre-heap
// scan-based event core and pin the simulator's observable behaviour — they
// are the before/after guard for event-core refactors: any change to event
// ordering, progress integration or metric accounting shows up as a diff.
//
// Regenerate deliberately with:
//
//	go test -run TestGoldenReports -update .
//
// Numbers are serialised with strconv.FormatFloat(v, 'g', -1, 64) (shortest
// round-trip form), so even last-ulp drift is caught. Wall-clock auction
// timings are excluded: they are the only nondeterministic Report fields.

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"themis/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report snapshots")

// goldenPolicies is the built-in comparison set pinned by golden snapshots.
var goldenPolicies = []string{"themis", "gandiva", "tiresias", "slaq", "resource-fair", "strawman"}

// goldenSimulation builds the fixed scenario every policy replays: the
// 50-GPU testbed topology under a seeded synthetic trace small enough that
// the full suite runs in a few seconds.
func goldenSimulation(t testing.TB, policy string) *Simulation {
	t.Helper()
	spec := DefaultWorkloadSpec()
	spec.Seed = 7
	spec.NumApps = 12
	spec.JobsPerAppMedian = 4
	spec.MaxJobsPerApp = 8
	spec.MeanInterArrival = 6
	spec.DurationScale = 0.2
	sim, err := NewSimulation(
		WithCluster(ClusterTestbed),
		WithWorkload(spec),
		WithPolicy(policy),
		WithSeed(7),
		WithHorizon(20000),
	)
	if err != nil {
		t.Fatalf("building %s golden simulation: %v", policy, err)
	}
	return sim
}

func TestGoldenReports(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The snapshots were generated on amd64. Go may fuse x*y+z into a
		// single FMA on other architectures (arm64, ppc64), shifting results
		// by an ulp — enough to fail a byte-exact comparison of shortest
		// round-trip floats. CI enforces the snapshots on amd64;
		// TestGoldenReplayIsByteStable still covers within-process
		// determinism everywhere.
		t.Skipf("golden snapshots are byte-exact only on amd64 (running on %s)", runtime.GOARCH)
	}
	for _, policy := range goldenPolicies {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			report, err := goldenSimulation(t, policy).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := serializeReport(report)
			path := filepath.Join("testdata", "golden", policy+".golden")
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
				t.Fatalf("reading golden snapshot (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("report for %s diverged from golden snapshot %s\n%s",
					policy, path, diffSnippet(string(want), got))
			}
		})
	}
}

// goldenScenarios are the scenario-library entries pinned by their own
// snapshots: the two workload families whose generators (diurnal thinning,
// Pareto sampling) are most at risk of silent drift.
var goldenScenarios = []string{"diurnal", "heavy-tailed"}

// goldenScenarioSpecs spans the pinned scenarios through the public sweep
// grid — the same path users take — under the Themis policy.
func goldenScenarioSpecs(t testing.TB) []SweepSpec {
	t.Helper()
	specs, err := Grid{
		Policies:  []string{"themis"},
		Scenarios: goldenScenarios,
		Seeds:     []int64{7},
		Params:    ScenarioParams{NumApps: 10, DurationScale: 0.2},
		Base:      []Option{WithCluster(ClusterTestbed), WithHorizon(20000)},
	}.Specs()
	if err != nil {
		t.Fatalf("building scenario golden grid: %v", err)
	}
	return specs
}

// TestGoldenScenarioSweep replays the pinned scenarios end-to-end through
// themis.RunSweep and compares each Report byte-for-byte against its
// snapshot, locking down the scenario generators, the Grid axis expansion
// and the sweep engine in one pass. Regenerate deliberately with -update.
func TestGoldenScenarioSweep(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden snapshots are byte-exact only on amd64 (running on %s)", runtime.GOARCH)
	}
	results, err := RunSweep(context.Background(), 2, goldenScenarioSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, scenario := range goldenScenarios {
		got := serializeReport(results[i].Report)
		path := filepath.Join("testdata", "golden", "scenario-"+scenario+".golden")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden snapshot (run with -update to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("scenario %s (%s) diverged from golden snapshot %s\n%s",
				scenario, results[i].Name, path, diffSnippet(string(want), got))
		}
	}
}

// TestGoldenReplayIsByteStable runs one policy twice in the same process and
// asserts the serialized reports are identical — determinism independent of
// the stored snapshots.
func TestGoldenReplayIsByteStable(t *testing.T) {
	for _, policy := range []string{"themis", "tiresias"} {
		a, err := goldenSimulation(t, policy).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := goldenSimulation(t, policy).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if serializeReport(a) != serializeReport(b) {
			t.Errorf("two replays of %s produced different reports", policy)
		}
	}
}

// TestGoldenFitReports pins the calibration of the canonical v1 test traces:
// FitTrace over each must render a byte-identical fit report. Numbers render
// at six significant digits and fitting is deterministic, so the comparison
// is byte-exact. Regenerate deliberately with -update.
func TestGoldenFitReports(t *testing.T) {
	for _, name := range []string{"philly-small", "multi-job"} {
		t.Run(name, func(t *testing.T) {
			tr, err := LoadTrace(filepath.Join("internal", "trace", "testdata", "v1", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := FitTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Render()
			path := filepath.Join("testdata", "golden", name+".fit.golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden fit report (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("fit report for %s diverged from golden %s\n%s", name, path, diffSnippet(string(want), got))
			}
		})
	}
}

// serializeReport renders the deterministic content of a Report in a stable
// text form: headline summary, per-app records, the fairness CDF, auction
// telemetry (minus wall-clock timings) and a digest of the full allocation
// timeline.
func serializeReport(r *Report) string {
	var b strings.Builder
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	s := r.Summary
	fmt.Fprintf(&b, "policy %s\n", s.Policy)
	fmt.Fprintf(&b, "summary finished=%d total=%d\n", s.AppsFinished, s.AppsTotal)
	fmt.Fprintf(&b, "summary fairness max=%s median=%s min=%s jains=%s\n",
		g(s.MaxFairness), g(s.MedianFairness), g(s.MinFairness), g(s.JainsIndex))
	fmt.Fprintf(&b, "summary jct mean=%s p95=%s\n", g(s.MeanCompletionTime), g(s.P95CompletionTime))
	fmt.Fprintf(&b, "summary cluster gputime=%s placement=%s contention=%s makespan=%s\n",
		g(s.GPUTime), g(s.MeanPlacementScore), g(s.PeakContention), g(s.Makespan))
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "app %s model=%s network=%t submit=%s finish=%s completion=%s tideal=%s rho=%s busy=%s held=%s placement=%s jobs=%d killed=%d\n",
			a.App, a.Model, a.Network, g(a.SubmitTime), g(a.FinishTime), g(a.CompletionTime),
			g(a.TIdeal), g(a.FinishTimeFairness), g(a.BusyGPUTime), g(a.HeldGPUTime),
			g(a.PlacementScore), a.JobsTotal, a.JobsKilled)
	}
	cdf := metrics.NewCDF(metrics.FairnessValues(r.result), 8)
	for i := range cdf.Values {
		fmt.Fprintf(&b, "fairness-cdf %s %s\n", g(cdf.Values[i]), g(cdf.Fractions[i]))
	}
	if r.Auction != nil {
		a := r.Auction
		fmt.Fprintf(&b, "auction auctions=%d offers=%d gpus=%d leftover=%d payments=%s empty-winners=%d\n",
			a.Auctions, a.OffersMade, a.GPUsAuctioned, a.GPUsLeftOver, g(a.TruthfulPayments), a.WinnersWithNothing)
	}
	h := fnv.New64a()
	for _, e := range r.Timeline {
		fmt.Fprintf(h, "%s/%s/%d\n", g(e.Time), e.App, e.GPUs)
	}
	fmt.Fprintf(&b, "timeline events=%d digest=%016x\n", len(r.Timeline), h.Sum64())
	return b.String()
}

// diffSnippet points at the first line where two serializations diverge.
func diffSnippet(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first divergence at line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
