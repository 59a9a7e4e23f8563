package themis_test

// Facade-level coverage for trace format v2: placement blocks ride the wire,
// survive save/load, and — the point of carrying them at all — change how a
// replay schedules compared to the same trace with constraints stripped.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"themis"
)

// constrainedTrace builds a v2 trace of n gang-of-4 apps whose placement
// block pins each gang to a single machine (MaxMachines 1) — satisfiable on
// the testbed's 4-GPU machines but violated whenever the scheduler scatters
// a gang across the 2- and 1-GPU machines.
func constrainedTrace(n int) themis.Trace {
	tr := themis.Trace{Version: themis.TraceFormatVersion, Name: "v2-replay"}
	for i := 0; i < n; i++ {
		tr.Apps = append(tr.Apps, themis.AppSpec{
			ID:         fmt.Sprintf("app-%02d", i),
			SubmitTime: float64(i * 5),
			Model:      "VGG16",
			Placement:  &themis.PlacementSpec{MaxMachines: 1},
			Jobs: []themis.JobSpec{{
				TotalWork: 120 + float64(i%4)*30,
				GangSize:  4,
				Quality:   float64(i%7) / 7,
				Seed:      int64(i + 1),
			}},
		})
	}
	return tr
}

// stripPlacement returns a copy of tr with every placement block removed.
func stripPlacement(tr themis.Trace) themis.Trace {
	out := tr
	out.Apps = append([]themis.AppSpec(nil), tr.Apps...)
	for i := range out.Apps {
		out.Apps[i].Placement = nil
	}
	return out
}

func replay(t *testing.T, tr themis.Trace) *themis.Report {
	t.Helper()
	s, err := themis.NewSimulation(
		themis.WithCluster(themis.ClusterTestbed),
		themis.WithPolicy("themis"),
		themis.WithTrace(tr),
		themis.WithHorizon(20000),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The acceptance bar for the v2 format: a trace carrying placement
// constraints must replay differently from the identical trace with the
// constraints stripped. Both runs are deterministic, so if the constraints
// never influenced a placement decision the reports would be bit-identical.
func TestV2ConstraintsChangeReplay(t *testing.T) {
	tr := constrainedTrace(12)

	// The constraints must survive the wire: run the replay from a
	// re-decoded copy, not the in-memory original.
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := themis.ImportTrace(&buf, themis.TraceFormatJSON, themis.ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}

	constrained := replay(t, decoded)
	unconstrained := replay(t, stripPlacement(tr))

	if constrained.Summary.AppsFinished == 0 {
		t.Fatal("constrained replay finished no apps — constraints starved the workload")
	}
	same := constrained.Summary.Makespan == unconstrained.Summary.Makespan &&
		constrained.Summary.MeanCompletionTime == unconstrained.Summary.MeanCompletionTime &&
		constrained.Summary.GPUTime == unconstrained.Summary.GPUTime &&
		constrained.Summary.MeanPlacementScore == unconstrained.Summary.MeanPlacementScore
	if same {
		t.Fatalf("placement constraints had no effect on the replay: both runs report makespan %.2f, mean JCT %.2f, GPU time %.0f, placement %.3f",
			constrained.Summary.Makespan, constrained.Summary.MeanCompletionTime,
			constrained.Summary.GPUTime, constrained.Summary.MeanPlacementScore)
	}
}

// Placement blocks and per-job constraints must survive SaveTrace/LoadTrace,
// and a v1 file must load under v2 code (lossless upgrade-on-read).
func TestV2TraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := constrainedTrace(3)
	path := dir + "/v2.json"
	if err := themis.SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := themis.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != themis.TraceFormatVersion {
		t.Errorf("loaded version %d, want %d", back.Version, themis.TraceFormatVersion)
	}
	if back.Apps[0].Placement == nil || back.Apps[0].Placement.MaxMachines != 1 {
		t.Errorf("placement block lost on disk round trip: %+v", back.Apps[0])
	}

	v1 := `{"version":1,"apps":[{"id":"a","model":"VGG16","jobs":[{"total_work":10,"gang_size":2}]}]}`
	v1Path := dir + "/v1.json"
	if err := os.WriteFile(v1Path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := themis.LoadTrace(v1Path)
	if err != nil {
		t.Fatalf("v1 trace no longer reads: %v", err)
	}
	if old.Version != themis.TraceFormatVersion {
		t.Errorf("v1 read produced version %d, want upgrade to %d", old.Version, themis.TraceFormatVersion)
	}
}

// ImportTraceStream must deliver progress and honour the placement stamp end
// to end through the facade.
func TestImportTraceStreamFacade(t *testing.T) {
	csv := "jobid,submit_time,gpus,duration,status\n"
	for i := 0; i < 25; i++ {
		csv += fmt.Sprintf("j-%02d,%d,4,60,Pass\n", i, (i*13)%25)
	}
	var snaps []themis.ImportProgress
	tr, err := themis.ImportTraceStream(strings.NewReader(csv), themis.TraceFormatAuto,
		themis.ImportOptions{
			MaxApps:       10,
			ProgressEvery: 10,
			Placement:     &themis.PlacementSpec{Profile: "VGG16", MaxMachines: 1},
		},
		func(p themis.ImportProgress) { snaps = append(snaps, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Apps) != 10 {
		t.Fatalf("imported %d apps, want the 10 earliest", len(tr.Apps))
	}
	if len(snaps) == 0 || !snaps[len(snaps)-1].Done {
		t.Fatalf("progress snapshots: %+v", snaps)
	}
	apps, err := tr.ToApps()
	if err != nil {
		t.Fatal(err)
	}
	if apps[0].Profile.Name != "VGG16" || apps[0].Jobs[0].MaxMachines != 1 {
		t.Errorf("stamped placement did not materialise: profile %q, constraints %+v",
			apps[0].Profile.Name, apps[0].Jobs[0])
	}
	// Bad options surface as errors through the facade, not garbage traces.
	if _, err := themis.ImportTrace(strings.NewReader(csv), themis.TraceFormatAuto,
		themis.ImportOptions{TimeScale: -1}); err == nil {
		t.Error("negative TimeScale accepted")
	}
}

// A v2 trace replays under several policies through RunSweep: each run
// rematerialises fresh apps from the trace, and an unknown policy fails the
// sweep.
func TestRunSweepReplaysV2Trace(t *testing.T) {
	tr := constrainedTrace(4)
	var specs []themis.SweepSpec
	for _, policy := range []string{"themis", "tiresias"} {
		specs = append(specs, themis.SweepSpec{Name: policy, Options: []themis.Option{
			themis.WithCluster(themis.ClusterTestbed),
			themis.WithPolicy(policy),
			themis.WithTrace(tr),
			themis.WithHorizon(20000),
		}})
	}
	results, err := themis.RunSweep(context.Background(), 2, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Report == nil || res.Report.Summary.Policy != specs[i].Name || res.Report.Summary.AppsTotal != 4 {
			t.Errorf("spec %s has no usable report: %+v", specs[i].Name, res.Report)
		}
	}
	bad := []themis.SweepSpec{{Name: "nope", Options: []themis.Option{themis.WithPolicy("nope"), themis.WithTrace(tr)}}}
	if _, err := themis.RunSweep(context.Background(), 1, bad); err == nil {
		t.Error("unknown policy should fail")
	}
}
