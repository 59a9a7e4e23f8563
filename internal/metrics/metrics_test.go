package metrics

import (
	"context"
	"math"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/sim"
	"themis/internal/workload"
)

func TestJainsIndex(t *testing.T) {
	if got := JainsIndex(nil); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	if got := JainsIndex([]float64{3, 3, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal values = %v, want 1", got)
	}
	// One app hogging everything: index tends to 1/n.
	got := JainsIndex([]float64{1, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("skewed = %v, want 0.25", got)
	}
	if got := JainsIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero = %v, want 1", got)
	}
	mixed := JainsIndex([]float64{1, 2, 3, 4})
	if mixed <= 0.25 || mixed >= 1 {
		t.Errorf("mixed = %v, want strictly between 1/n and 1", mixed)
	}
}

func TestStatHelpers(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	if got := Mean(vals); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Max(vals); got != 4 {
		t.Errorf("Max = %v", got)
	}
	if got := Percentile(vals, 0.5); got != 2 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(vals, 1.0); got != 4 {
		t.Errorf("P100 = %v", got)
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Percentile(nil, 0.5) != 0 {
		t.Error("empty inputs should return 0")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 10)
	if len(c.Values) != 10 {
		t.Fatalf("CDF has %d points", len(c.Values))
	}
	if c.Values[9] != 10 || c.Fractions[9] != 1 {
		t.Errorf("CDF tail = (%v,%v)", c.Values[9], c.Fractions[9])
	}
	if c.Values[4] != 5 || math.Abs(c.Fractions[4]-0.5) > 1e-9 {
		t.Errorf("CDF median point = (%v,%v), want (5,0.5)", c.Values[4], c.Fractions[4])
	}
	empty := NewCDF(nil, 5)
	if len(empty.Values) != 0 {
		t.Error("empty CDF misbehaves")
	}
}

func TestIdealMaxFairness(t *testing.T) {
	if got := IdealMaxFairness(4.76); got != 4.76 {
		t.Errorf("IdealMaxFairness(4.76) = %v", got)
	}
	if got := IdealMaxFairness(0.5); got != 1 {
		t.Errorf("under-contended cluster should have ideal 1, got %v", got)
	}
}

// fullPolicy grants every app its full demand immediately (test helper).
type fullPolicy struct{}

func (fullPolicy) Name() string { return "full-test" }
func (fullPolicy) Allocate(now float64, free cluster.Alloc, view *sim.View) (map[workload.AppID]cluster.Alloc, error) {
	out := make(map[workload.AppID]cluster.Alloc)
	remaining := free.Clone()
	var picker placement.Picker
	for _, st := range view.Apps {
		want := st.UnmetDemand()
		if want == 0 || remaining.Total() == 0 {
			continue
		}
		alloc := picker.PickInto(nil, view.Topo, remaining, st.Held, want)
		out[st.App.ID] = alloc
		_ = remaining.Debit(alloc)
	}
	return out, nil
}

func TestSummarizeOnSimulation(t *testing.T) {
	topo, err := cluster.Config{
		MachineSpecs: []cluster.MachineSpec{{Count: 4, GPUs: 4, SlotSize: 2}},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var apps []*workload.App
	for i := 0; i < 3; i++ {
		j := workload.NewJob(workload.AppID(string(rune('a'+i))), 0, 100, 4)
		apps = append(apps, workload.NewApp(workload.AppID(string(rune('a'+i))), float64(i*5), placement.ResNet50, []*workload.Job{j}))
	}
	s, err := sim.New(sim.Config{Topology: topo, Apps: apps, Policy: fullPolicy{}, LeaseDuration: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res)
	if sum.Policy != "full-test" {
		t.Errorf("Policy = %q", sum.Policy)
	}
	if sum.AppsFinished != 3 || sum.AppsTotal != 3 {
		t.Errorf("finished %d/%d", sum.AppsFinished, sum.AppsTotal)
	}
	if sum.MaxFairness < sum.MedianFairness || sum.MedianFairness < sum.MinFairness {
		t.Errorf("fairness ordering violated: %+v", sum)
	}
	if sum.JainsIndex <= 0 || sum.JainsIndex > 1 {
		t.Errorf("Jain's index = %v", sum.JainsIndex)
	}
	if sum.GPUTime < 300-1 {
		t.Errorf("GPU time = %v, want ≥ ~300", sum.GPUTime)
	}
	if sum.MeanPlacementScore <= 0 {
		t.Errorf("placement score = %v", sum.MeanPlacementScore)
	}
	if tl := res.TimelineFor(apps[0].ID); len(tl) < 2 {
		t.Errorf("timeline has %d events, want at least 2: %v", len(tl), tl)
	}
}
