package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"themis/internal/placement"
)

func TestJobAdvance(t *testing.T) {
	j := NewJob("app-x", 0, 100, 4) // 100 serial GPU-minutes
	// 4 GPUs, ideal placement: finishes in 25 minutes.
	elapsed, done := j.Advance(0, 10, 4, 1.0)
	if done || elapsed != 10 {
		t.Fatalf("Advance(10) = (%v,%v), want (10,false)", elapsed, done)
	}
	if j.DoneWork != 40 || j.GPUTime != 40 {
		t.Errorf("DoneWork=%v GPUTime=%v, want 40,40", j.DoneWork, j.GPUTime)
	}
	elapsed, done = j.Advance(10, 100, 4, 1.0)
	if !done {
		t.Fatal("job should finish")
	}
	if math.Abs(elapsed-15) > 1e-9 {
		t.Errorf("elapsed = %v, want 15", elapsed)
	}
	if math.Abs(j.DoneAt-25) > 1e-9 {
		t.Errorf("DoneAt = %v, want 25", j.DoneAt)
	}
	// Further advances are no-ops.
	if e, d := j.Advance(25, 10, 4, 1.0); e != 0 || d {
		t.Errorf("Advance after done = (%v,%v), want (0,false)", e, d)
	}
}

func TestJobAdvanceWithSlowdown(t *testing.T) {
	j := NewJob("app-x", 0, 100, 4)
	// 4 GPUs at S=0.5: rate 2 serial-minutes per minute → 50 minutes total.
	j.Advance(0, 50, 4, 0.5)
	if !(math.Abs(j.DoneWork-100) < 1e-9) {
		t.Errorf("DoneWork = %v, want 100", j.DoneWork)
	}
	// GPU time reflects wall time × GPUs, i.e. 200 GPU-minutes — placement
	// inefficiency costs GPU time.
	if math.Abs(j.GPUTime-200) > 1e-9 {
		t.Errorf("GPUTime = %v, want 200", j.GPUTime)
	}
}

func TestJobKill(t *testing.T) {
	j := NewJob("app-x", 1, 100, 4)
	j.Kill(12)
	if j.Active() || j.KilledAt != 12 {
		t.Errorf("kill not recorded: %+v", j)
	}
	if e, d := j.Advance(12, 10, 4, 1); e != 0 || d {
		t.Error("killed job must not advance")
	}
	// Killing a finished job is a no-op.
	j2 := NewJob("app-x", 2, 10, 2)
	j2.Advance(0, 100, 2, 1)
	j2.Kill(50)
	if j2.Killed {
		t.Error("finished job should not be marked killed")
	}
}

func TestJobTimeToCompletion(t *testing.T) {
	j := NewJob("a", 0, 120, 4)
	if got := j.TimeToCompletion(4, 1); math.Abs(got-30) > 1e-9 {
		t.Errorf("TTC = %v, want 30", got)
	}
	if got := j.TimeToCompletion(0, 1); got != inf {
		t.Errorf("TTC with 0 GPUs = %v, want inf", got)
	}
}

func TestJobProgressAndIterations(t *testing.T) {
	j := NewJob("a", 0, 100, 4)
	j.TotalIterations = 500
	j.Advance(0, 5, 4, 1) // 20% done
	if math.Abs(j.Progress()-0.2) > 1e-9 {
		t.Errorf("Progress = %v, want 0.2", j.Progress())
	}
	if j.IterationsDone() != 100 {
		t.Errorf("IterationsDone = %d, want 100", j.IterationsDone())
	}
}

func TestAppAccounting(t *testing.T) {
	jobs := []*Job{NewJob("a", 0, 100, 4), NewJob("a", 1, 200, 2), NewJob("a", 2, 50, 4)}
	jobs[0].Quality, jobs[1].Quality, jobs[2].Quality = 0.5, 0.1, 0.9
	app := NewApp("a", 30, placement.VGG16, jobs)
	if err := app.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := app.TotalWork(); got != 350 {
		t.Errorf("TotalWork = %v, want 350", got)
	}
	if got := app.MaxParallelism(); got != 10 {
		t.Errorf("MaxParallelism = %v, want 10", got)
	}
	if app.BestJob() != jobs[1] {
		t.Errorf("BestJob should be job 1 (lowest quality)")
	}
	byQ := app.JobsByQuality()
	if byQ[0] != jobs[1] || byQ[2] != jobs[2] {
		t.Errorf("JobsByQuality order wrong")
	}
	jobs[2].Kill(5)
	if got := len(app.ActiveJobs()); got != 2 {
		t.Errorf("ActiveJobs = %d, want 2", got)
	}
	if got := app.RemainingWork(); got != 300 {
		t.Errorf("RemainingWork = %v, want 300", got)
	}
	if app.Finished() || app.CompletionTime() != NotFinished {
		t.Error("app should not be finished")
	}
	app.FinishedAt = 130
	if got := app.CompletionTime(); got != 100 {
		t.Errorf("CompletionTime = %v, want 100", got)
	}
}

func TestAppValidateRejectsBadJobs(t *testing.T) {
	app := NewApp("a", 0, placement.ResNet50, nil)
	if err := app.Validate(); err == nil {
		t.Error("empty app should fail validation")
	}
	j := NewJob("other", 0, 100, 4)
	app2 := NewApp("a", 0, placement.ResNet50, []*Job{j})
	if err := app2.Validate(); err == nil {
		t.Error("mismatched job ownership should fail validation")
	}
	j2 := NewJob("b", 0, -5, 4)
	app3 := NewApp("b", 0, placement.ResNet50, []*Job{j2})
	if err := app3.Validate(); err == nil {
		t.Error("non-positive work should fail validation")
	}
}

func TestGenerateMatchesPaperDistributions(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.NumApps = 400
	cfg.Seed = 7
	apps, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(apps)
	if st.NumApps != 400 {
		t.Fatalf("NumApps = %d", st.NumApps)
	}
	// Jobs per app: within [1,98], median near 23.
	if st.JobsPerAppMin < 1 || st.JobsPerAppMax > 98 {
		t.Errorf("jobs per app out of range: [%d,%d]", st.JobsPerAppMin, st.JobsPerAppMax)
	}
	if st.JobsPerAppMedian < 15 || st.JobsPerAppMedian > 32 {
		t.Errorf("jobs-per-app median = %v, want ≈23", st.JobsPerAppMedian)
	}
	// Task durations: median near 59 min (mixture pushes it slightly up).
	if st.TaskDurationP50 < 40 || st.TaskDurationP50 > 100 {
		t.Errorf("task duration median = %v, want ≈59-75", st.TaskDurationP50)
	}
	if st.TaskDurationMax > cfg.MaxTaskDuration*1.0001 {
		t.Errorf("task duration max %v exceeds cap %v", st.TaskDurationMax, cfg.MaxTaskDuration)
	}
	// Gang sizes: mostly 4.
	if st.GangSize4Fraction < 0.7 {
		t.Errorf("gang-size-4 fraction = %v, want ≥0.7", st.GangSize4Fraction)
	}
	// Mix of network-intensive apps near 40%.
	if st.NetworkAppFraction < 0.3 || st.NetworkAppFraction > 0.5 {
		t.Errorf("network-intensive fraction = %v, want ≈0.4", st.NetworkAppFraction)
	}
	// Mean inter-arrival near 20 minutes.
	if st.MeanInterArrival < 15 || st.MeanInterArrival > 25 {
		t.Errorf("mean inter-arrival = %v, want ≈20", st.MeanInterArrival)
	}
	// Arrival order.
	for i := 1; i < len(apps); i++ {
		if apps[i].SubmitTime < apps[i-1].SubmitTime {
			t.Fatalf("apps not in arrival order at %d", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.NumApps = 20
	a1, err1 := Generate(cfg)
	a2, err2 := Generate(cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range a1 {
		if a1[i].SubmitTime != a2[i].SubmitTime || len(a1[i].Jobs) != len(a2[i].Jobs) {
			t.Fatalf("generation not deterministic at app %d", i)
		}
		for k := range a1[i].Jobs {
			if a1[i].Jobs[k].TotalWork != a2[i].Jobs[k].TotalWork {
				t.Fatalf("job work differs at app %d job %d", i, k)
			}
		}
	}
}

func TestGenerateContentionFactor(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.NumApps = 200
	base, _ := Generate(cfg)
	cfg.ContentionFactor = 4
	fast, _ := Generate(cfg)
	baseSpan := base[len(base)-1].SubmitTime
	fastSpan := fast[len(fast)-1].SubmitTime
	if fastSpan > baseSpan/2 {
		t.Errorf("4x contention span %v not much smaller than base %v", fastSpan, baseSpan)
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	bad := DefaultGeneratorConfig()
	bad.NumApps = 0
	if _, err := Generate(bad); err == nil {
		t.Error("expected error for NumApps=0")
	}
	bad = DefaultGeneratorConfig()
	bad.DurationScale = 0
	if _, err := Generate(bad); err == nil {
		t.Error("expected error for DurationScale=0")
	}
	bad = DefaultGeneratorConfig()
	bad.FractionNetworkIntensive = 1.5
	if _, err := Generate(bad); err == nil {
		t.Error("expected error for fraction > 1")
	}
}

func TestDurationCDF(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.NumApps = 50
	apps, _ := Generate(cfg)
	durs := TaskDurations(apps)
	st := Summarize(apps)
	if len(durs) != st.NumJobs {
		t.Fatalf("%d durations for %d jobs", len(durs), st.NumJobs)
	}
	sort.Float64s(durs)
	const points = 20
	prev := 0.0
	for i := 1; i <= points; i++ {
		d := percentile(durs, float64(i)/points)
		if d <= 0 || d < prev {
			t.Fatalf("CDF not monotone at point %d: %v after %v", i, d, prev)
		}
		prev = d
	}
	if prev != st.TaskDurationMax {
		t.Errorf("CDF should end at the longest task %v, got %v", st.TaskDurationMax, prev)
	}
	if d := TaskDurations(nil); d != nil {
		t.Error("durations of an empty trace should be nil")
	}
}

// TestAdvanceWorkConservation property: over random splits of an interval,
// total accrued work equals rate × elapsed regardless of how the interval is
// chopped up.
func TestAdvanceWorkConservation(t *testing.T) {
	f := func(chunks []uint8) bool {
		j := NewJob("a", 0, 1000, 4)
		now := 0.0
		for _, c := range chunks {
			dt := float64(c%17) + 0.25
			elapsed, _ := j.Advance(now, dt, 4, 0.75)
			now += elapsed
		}
		wantWork := 3.0 * now // 4 GPUs × 0.75
		if j.DoneAt != NotFinished {
			wantWork = j.TotalWork
		}
		return math.Abs(j.DoneWork-wantWork) < 1e-6 && j.DoneWork <= j.TotalWork+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
