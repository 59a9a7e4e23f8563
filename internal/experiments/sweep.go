package experiments

// The sweep engine: the paper's evaluation is a grid of independent
// simulation runs — {policy, seed, topology, trace} combinations — that the
// original driver executed strictly sequentially. Sweep fans a grid across a
// bounded worker pool with context cancellation and deterministic result
// ordering: results[i] always corresponds to specs[i] regardless of worker
// count or completion order, so every figure's numbers are identical to the
// sequential run's.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"themis/internal/cluster"
	"themis/internal/sim"
	"themis/internal/workload"
)

// RunSpec describes one simulation run within a sweep grid. Workload and
// Policy are factories, not values: apps and policies accumulate run state,
// so every run constructs fresh instances inside its worker. Both must be
// safe to call concurrently with other specs' factories (sharing a seeded
// generator config is fine; sharing a live policy is not).
type RunSpec struct {
	// Name labels the run in errors ("fig4a/f=0.8/seed=42").
	Name string
	// Topology is the cluster the run schedules onto (topologies are
	// immutable and may be shared across specs).
	Topology *cluster.Topology
	// Workload builds the run's apps.
	Workload func() ([]*workload.App, error)
	// Policy builds the run's scheduling policy.
	Policy func() (sim.Policy, error)
	// Simulation knobs, as in sim.Config.
	LeaseDuration   float64
	RestartOverhead float64
	Horizon         float64
}

// run executes the spec once.
func (r RunSpec) run(ctx context.Context) (*sim.Result, error) {
	apps, err := r.Workload()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: workload: %w", r.Name, err)
	}
	policy, err := r.Policy()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: policy: %w", r.Name, err)
	}
	s, err := sim.New(sim.Config{
		Topology:        r.Topology,
		Apps:            apps,
		Policy:          policy,
		LeaseDuration:   r.LeaseDuration,
		RestartOverhead: r.RestartOverhead,
		Horizon:         r.Horizon,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", r.Name, err)
	}
	res, err := s.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", r.Name, err)
	}
	return res, nil
}

// Sweep runs every spec across a bounded worker pool (workers <= 0 uses
// GOMAXPROCS) and returns the results aligned with specs. The first failure
// cancels the remaining runs and is returned; cancelling ctx aborts the
// sweep — in-flight simulations stop at their next decision point.
func Sweep(ctx context.Context, workers int, specs []RunSpec) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(specs))
	err := RunGrid(ctx, workers, len(specs), func(ctx context.Context, i int) error {
		res, err := specs[i].run(ctx)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunGrid executes n independent tasks across a bounded worker pool
// (workers <= 0 uses GOMAXPROCS). The first task failure cancels the
// remaining tasks. The returned error is always a real task failure (never
// a collateral context.Canceled from the resulting cancellation) — the
// lowest-indexed one recorded, though when several tasks fail concurrently
// which failures get recorded before cancellation takes effect depends on
// scheduling. Cancelling ctx stops the grid with ctx's error.
func RunGrid(ctx context.Context, workers, n int, run func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					errs[i] = ctx.Err()
					continue
				}
				if err := run(ctx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	// Prefer the lowest-index non-cancellation error: tasks cancelled as
	// collateral of another task's failure report context.Canceled, which
	// would otherwise mask the real cause.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	return ctx.Err()
}
