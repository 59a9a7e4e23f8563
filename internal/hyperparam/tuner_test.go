package hyperparam

import (
	"testing"

	"themis/internal/placement"
	"themis/internal/workload"
)

// makeApp builds an app with n trials of equal work; qualities are spread
// evenly so trial 0 is best.
func makeApp(t *testing.T, n int, work float64) *workload.App {
	t.Helper()
	jobs := make([]*workload.Job, n)
	for i := 0; i < n; i++ {
		j := workload.NewJob("app-t", i, work, 4)
		j.Quality = float64(i) / float64(n)
		j.Seed = int64(1000 + i)
		j.TotalIterations = 1000
		jobs[i] = j
	}
	app := workload.NewApp("app-t", 0, placement.ResNet50, jobs)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	return app
}

// advanceAll runs every active trial for dt minutes on its gang size.
func advanceAll(app *workload.App, now, dt float64) {
	for _, j := range app.AppendActiveJobs(nil) {
		j.Advance(now, dt, j.GangSize, 1)
	}
}

func TestSingleTuner(t *testing.T) {
	app := makeApp(t, 1, 100)
	s := NewSingle()
	s.Update(0, app)
	if s.Done(app) {
		t.Error("app with unfinished job should not be done")
	}
	if got := s.WorkLeft(app.Jobs[0]); got != 100 {
		t.Errorf("WorkLeft = %v, want 100", got)
	}
	app.Jobs[0].Advance(0, 1000, 4, 1)
	if !s.Done(app) {
		t.Error("app should be done after its only job finishes")
	}
}

func TestHyperBandSuccessiveHalving(t *testing.T) {
	app := makeApp(t, 8, 4000) // 4000 serial minutes, 1000 iterations
	hb := NewHyperBand()
	// Run everything past the first rung boundary (100 iters = 10% of work
	// = 400 serial minutes = 100 minutes on 4 GPUs).
	advanceAll(app, 0, 101)
	hb.Update(101, app)
	if got := app.NumActiveJobs(); got != 4 {
		t.Fatalf("after rung 1: %d active trials, want 4", got)
	}
	// Second rung.
	advanceAll(app, 101, 101)
	hb.Update(202, app)
	if got := app.NumActiveJobs(); got != 2 {
		t.Fatalf("after rung 2: %d active trials, want 2", got)
	}
	// Third rung: down to a single survivor, no further kills.
	advanceAll(app, 202, 101)
	hb.Update(303, app)
	if got := app.NumActiveJobs(); got != 1 {
		t.Fatalf("after rung 3: %d active trials, want 1", got)
	}
	advanceAll(app, 303, 101)
	hb.Update(404, app)
	if got := app.NumActiveJobs(); got != 1 {
		t.Fatalf("survivor must not be killed, got %d active", got)
	}
	// Survivors should skew toward low-quality-value (better) trials: the
	// best trial converges fastest so it should never be killed.
	if app.Jobs[0].Killed {
		t.Error("the best trial (quality 0) was killed by HyperBand")
	}
	// Not done until the survivor completes.
	if hb.Done(app) {
		t.Error("app should not be done while survivor is active")
	}
	for _, j := range app.AppendActiveJobs(nil) {
		j.Advance(404, 1e6, 4, 1)
	}
	if !hb.Done(app) {
		t.Error("app should be done once the survivor finishes")
	}
}

func TestHyperBandWaitsForStragglers(t *testing.T) {
	app := makeApp(t, 4, 4000)
	hb := NewHyperBand()
	// Only advance three of the four trials past the rung.
	for _, j := range app.Jobs[:3] {
		j.Advance(0, 101, 4, 1)
	}
	hb.Update(101, app)
	if got := app.NumActiveJobs(); got != 4 {
		t.Errorf("rung must wait for stragglers; got %d active", got)
	}
}

// TestHyperBandDefaultRung pins the rung length at 100 iterations: no trial
// is killed while one is short of iteration 100, and half go once all reach
// it.
func TestHyperBandDefaultRung(t *testing.T) {
	app := makeApp(t, 4, 4000) // 1000 iterations: one minute each on 4 GPUs
	hb := NewHyperBand()
	advanceAll(app, 0, 99.5)
	hb.Update(99.5, app)
	if got := app.NumActiveJobs(); got != 4 {
		t.Fatalf("at iteration 99: %d active trials, want 4", got)
	}
	advanceAll(app, 99.5, 1)
	hb.Update(100.5, app)
	if got := app.NumActiveJobs(); got != 2 {
		t.Fatalf("at iteration 100: %d active trials, want 2", got)
	}
}

func TestForApp(t *testing.T) {
	single := makeApp(t, 1, 100)
	if _, ok := ForApp(single).(*Single); !ok {
		t.Error("one-trial app should get the Single tuner")
	}
	multi := makeApp(t, 5, 100)
	if _, ok := ForApp(multi).(*HyperBand); !ok {
		t.Error("multi-trial app should get HyperBand")
	}
}
