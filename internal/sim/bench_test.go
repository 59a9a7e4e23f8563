package sim

// Event-core benchmarks: a saturated-cluster workload driven through the
// indexed-heap event core at 64/512/2048 apps. The workload uses single-trial
// apps and a trivial FIFO policy so the measured time is dominated by the
// event loop itself — next-event discovery, lease bookkeeping and progress
// integration — rather than by policy or tuner work.
//
// Run with:
//
//	go test -run '^$' -bench BenchmarkSimEventCore -benchtime 1x ./internal/sim/

import (
	"context"
	"fmt"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/workload"
)

// benchTopology is a 256-GPU cluster (64 machines × 4 GPUs).
func benchTopology(b *testing.B) *cluster.Topology {
	b.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 64, GPUs: 4, SlotSize: 2, GPU: cluster.GPUTypeP100}},
		MachinesPerRack: 16,
	}.Build()
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// benchApps builds n single-trial apps arriving much faster than the
// cluster drains them, so the active set grows to O(n) and the event core's
// per-round costs dominate.
func benchApps(n int) []*workload.App {
	apps := make([]*workload.App, n)
	for i := 0; i < n; i++ {
		id := workload.AppID(fmt.Sprintf("bench-%05d", i))
		j := workload.NewJob(id, 0, 60+float64(i%5)*20, 4)
		j.Seed = int64(i)
		apps[i] = workload.NewApp(id, float64(i)*0.05, placement.ResNet50, []*workload.Job{j})
	}
	return apps
}

// benchPolicy grants free GPUs first-come-first-served in view order (the
// zero-padded bench app IDs sort in submit order) without the per-round sort
// fifoPolicy performs, so policy work stays negligible next to the event
// core being measured.
type benchPolicy struct{}

func (benchPolicy) Name() string { return "bench-fifo" }

func (benchPolicy) Allocate(now float64, free cluster.Alloc, view *View) (map[workload.AppID]cluster.Alloc, error) {
	var out map[workload.AppID]cluster.Alloc
	var picker placement.Picker
	picker.Load(view.Topo, free)
	for _, st := range view.Apps {
		if picker.Total() == 0 {
			break
		}
		want := st.UnmetDemand()
		if want <= 0 {
			continue
		}
		alloc := picker.Draw(nil, st.Held, want)
		if alloc.Total() == 0 {
			continue
		}
		if out == nil {
			out = make(map[workload.AppID]cluster.Alloc)
		}
		out[st.App.ID] = alloc
	}
	return out, nil
}

func benchmarkEventCore(b *testing.B, apps int) {
	topo := benchTopology(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		trace := benchApps(apps) // fresh runtime state per run
		b.StartTimer()
		s, err := New(Config{
			Topology:        topo,
			Apps:            trace,
			Policy:          benchPolicy{},
			LeaseDuration:   20,
			RestartOverhead: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Finished()) != apps {
			b.Fatalf("only %d of %d apps finished", len(res.Finished()), apps)
		}
	}
}

// BenchmarkSimEventCore measures a full simulation run at increasing app
// counts.
func BenchmarkSimEventCore(b *testing.B) {
	for _, apps := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("heap/apps-%d", apps), func(b *testing.B) {
			benchmarkEventCore(b, apps)
		})
	}
}
