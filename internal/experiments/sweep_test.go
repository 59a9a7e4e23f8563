package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"themis/internal/metrics"
	"themis/internal/schedulers"
	"themis/internal/sim"
	"themis/internal/workload"
)

func TestRunGridBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var inFlight, peak, ran atomic.Int64
		err := RunGrid(context.Background(), workers, 32, func(ctx context.Context, i int) error {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 32 {
			t.Errorf("workers=%d: ran %d of 32 tasks", workers, ran.Load())
		}
		if p := peak.Load(); p > int64(workers) {
			t.Errorf("workers=%d: observed %d tasks in flight", workers, p)
		}
	}
}

func TestRunGridCancellationMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	err := RunGrid(ctx, 2, 64, func(ctx context.Context, i int) error {
		started.Add(1)
		once.Do(func() {
			cancel()
			close(release)
		})
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-release:
			<-ctx.Done()
			return ctx.Err()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation must prevent the bulk of the grid from starting.
	if n := started.Load(); n > 8 {
		t.Errorf("%d tasks started after cancellation", n)
	}
}

func TestRunGridReportsLowestIndexedRealError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("task %d failed", i) }
	err := RunGrid(context.Background(), 4, 16, func(ctx context.Context, i int) error {
		switch i {
		case 3, 9:
			return boom(i)
		default:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
				return nil
			}
		}
	})
	if err == nil {
		t.Fatal("grid with failing tasks returned nil error")
	}
	if got := err.Error(); got != "task 3 failed" && got != "task 9 failed" {
		t.Fatalf("err = %q, want one of the real task failures", got)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v: collateral cancellation masked the real failure", err)
	}
}

// sweepSpecs builds a small policy × seed grid of real simulation runs.
func sweepSpecs(opts Options) []RunSpec {
	topo := opts.simTopology()
	var specs []RunSpec
	for _, scheme := range []string{"themis", "tiresias", "gandiva"} {
		for _, seed := range []int64{3, 11} {
			seed := seed
			newPolicy := SchedulerSet(opts.themisConfig())[scheme]
			specs = append(specs, opts.spec(
				fmt.Sprintf("%s/seed=%d", scheme, seed), topo,
				func() ([]*workload.App, error) { return opts.testbedWorkload(seed) },
				newPolicy,
			))
		}
	}
	return specs
}

// TestSweepResultOrderIsDeterministic runs the same grid sequentially and
// with several pool sizes: results must align with specs and be identical
// in content regardless of worker count.
func TestSweepResultOrderIsDeterministic(t *testing.T) {
	opts := Quick()
	opts.TestbedApps = 6
	opts.JobsPerAppMedian = 3
	opts.MaxJobsPerApp = 6
	baseline, err := Sweep(context.Background(), 1, sweepSpecs(opts))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		results, err := Sweep(context.Background(), workers, sweepSpecs(opts))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(baseline) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(baseline))
		}
		for i := range results {
			if !reflect.DeepEqual(results[i].Apps, baseline[i].Apps) {
				t.Errorf("workers=%d: result %d differs from sequential run", workers, i)
			}
			if results[i].Makespan != baseline[i].Makespan {
				t.Errorf("workers=%d: result %d makespan %v != %v", workers, i, results[i].Makespan, baseline[i].Makespan)
			}
		}
	}
}

func TestSweepPropagatesSpecErrors(t *testing.T) {
	opts := Quick()
	specs := sweepSpecs(opts)
	specs[2].Policy = func() (sim.Policy, error) { return nil, fmt.Errorf("deliberately broken factory") }
	_, err := Sweep(context.Background(), 4, specs)
	if err == nil {
		t.Fatal("sweep with a broken spec returned nil error")
	}
	if want := specs[2].Name; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to name spec %q", err, want)
	}
}

func TestSweepCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, 4, sweepSpecs(Quick()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestThemisFairnessProperty is the paper's headline invariant as a
// property test: under the Themis policy, every app that finishes does so
// no faster than its dedicated-cluster ideal, i.e. finish-time fairness
// ρ ≥ 1 − ε, across randomized traces.
func TestThemisFairnessProperty(t *testing.T) {
	const eps = 1e-6
	opts := Quick()
	opts.SimApps = 8
	opts.JobsPerAppMedian = 3
	opts.MaxJobsPerApp = 6
	topo := opts.simTopology()
	var specs []RunSpec
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		specs = append(specs, opts.spec(
			fmt.Sprintf("themis-property/seed=%d", seed), topo,
			func() ([]*workload.App, error) { return opts.simWorkload(seed, 0.4, 1+float64(seed%3)) },
			func() (sim.Policy, error) { return schedulers.NewThemis(opts.themisConfig()) },
		))
	}
	results, err := Sweep(context.Background(), 0, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if len(res.Finished()) == 0 {
			t.Errorf("%s: no app finished within the horizon", specs[i].Name)
		}
		for _, rec := range res.Finished() {
			if rec.FinishTimeFairness < 1-eps {
				t.Errorf("%s: app %s has rho %v < 1-eps under Themis", specs[i].Name, rec.App, rec.FinishTimeFairness)
			}
		}
		if max := metrics.MaxFairness(res); max < 1-eps {
			t.Errorf("%s: max fairness %v < 1-eps", specs[i].Name, max)
		}
	}
}
