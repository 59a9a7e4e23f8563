package trace

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"themis/internal/workload"
)

func genApps(t *testing.T, n int) []*workload.App {
	t.Helper()
	cfg := workload.DefaultGeneratorConfig()
	cfg.NumApps = n
	cfg.Seed = 21
	apps, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return apps
}

func TestRoundTrip(t *testing.T) {
	apps := genApps(t, 10)
	tr := FromApps("unit", apps)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "unit" || back.Version != FormatVersion {
		t.Errorf("header lost: %+v", back)
	}
	apps2, err := back.ToApps()
	if err != nil {
		t.Fatal(err)
	}
	if len(apps2) != len(apps) {
		t.Fatalf("app count %d != %d", len(apps2), len(apps))
	}
	for i := range apps {
		a, b := apps[i], apps2[i]
		if a.ID != b.ID || a.SubmitTime != b.SubmitTime || a.Profile.Name != b.Profile.Name {
			t.Fatalf("app %d header mismatch", i)
		}
		if len(a.Jobs) != len(b.Jobs) {
			t.Fatalf("app %d job count mismatch", i)
		}
		for k := range a.Jobs {
			if a.Jobs[k].TotalWork != b.Jobs[k].TotalWork ||
				a.Jobs[k].GangSize != b.Jobs[k].GangSize ||
				a.Jobs[k].Quality != b.Jobs[k].Quality ||
				a.Jobs[k].Seed != b.Jobs[k].Seed {
				t.Fatalf("app %d job %d mismatch", i, k)
			}
		}
		// Runtime state must be fresh.
		for _, j := range b.Jobs {
			if j.DoneWork != 0 || j.Killed || j.DoneAt != workload.NotFinished {
				t.Fatalf("replayed job has stale runtime state: %+v", j)
			}
		}
	}
}

func TestSaveLoad(t *testing.T) {
	apps := genApps(t, 5)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := Save(path, FromApps("disk", apps)); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Apps) != 5 {
		t.Errorf("loaded %d apps, want 5", len(back.Apps))
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestToAppsValidation(t *testing.T) {
	var verErr *UnsupportedVersionError
	bad := Trace{Version: 99}
	if _, err := bad.ToApps(); !errors.As(err, &verErr) || verErr.Version != 99 {
		t.Errorf("unsupported version error = %v, want UnsupportedVersionError{99}", err)
	}
	var idErr *MissingAppIDError
	bad = Trace{Version: FormatVersion, Apps: []AppSpec{{ID: "", Jobs: []JobSpec{{TotalWork: 1, GangSize: 1}}}}}
	if _, err := bad.ToApps(); !errors.As(err, &idErr) || idErr.Index != 0 {
		t.Errorf("empty app ID error = %v, want MissingAppIDError{0}", err)
	}
	var jobErr *JobError
	bad = Trace{Version: FormatVersion, Apps: []AppSpec{{ID: "a", Model: "VGG16", Jobs: []JobSpec{{TotalWork: 0, GangSize: 4}}}}}
	if _, err := bad.ToApps(); !errors.As(err, &jobErr) {
		t.Errorf("zero work error = %v, want JobError", err)
	}
	var dupErr *DuplicateAppIDError
	job := []JobSpec{{TotalWork: 1, GangSize: 1}}
	bad = Trace{Version: FormatVersion, Apps: []AppSpec{{ID: "a", Jobs: job}, {ID: "b", Jobs: job}, {ID: "a", Jobs: job}}}
	if _, err := bad.ToApps(); !errors.As(err, &dupErr) || dupErr.ID != "a" || dupErr.First != 0 || dupErr.Second != 2 {
		t.Errorf("duplicate app ID error = %v, want DuplicateAppIDError{a,0,2}", err)
	}
	// Unknown model falls back to a generic profile rather than failing.
	ok := Trace{Version: FormatVersion, Apps: []AppSpec{{ID: "a", Model: "UnknownNet", Jobs: []JobSpec{{TotalWork: 10, GangSize: 2}}}}}
	apps, err := ok.ToApps()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(apps[0].Profile.Name, "generic") {
		t.Errorf("unknown model mapped to %q", apps[0].Profile.Name)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Error("garbage input should fail")
	}
}

// Read must reject structurally invalid traces at decode time, not replay
// time, with the typed errors callers negotiate on.
func TestReadValidates(t *testing.T) {
	var verErr *UnsupportedVersionError
	if _, err := Read(strings.NewReader(`{"version":3,"apps":[]}`)); !errors.As(err, &verErr) {
		t.Errorf("future version error = %v, want UnsupportedVersionError", err)
	}
	if _, err := Read(strings.NewReader(`{"apps":[]}`)); !errors.As(err, &verErr) || verErr.Version != 0 {
		t.Errorf("missing version error = %v, want UnsupportedVersionError{0}", err)
	}
	var dupErr *DuplicateAppIDError
	dup := `{"version":1,"apps":[
		{"id":"a","jobs":[{"total_work":1,"gang_size":1}]},
		{"id":"a","jobs":[{"total_work":1,"gang_size":1}]}]}`
	if _, err := Read(strings.NewReader(dup)); !errors.As(err, &dupErr) {
		t.Errorf("duplicate ID error = %v, want DuplicateAppIDError", err)
	}
}

// TestToAppsJobsAreNewJobs: ToApps makes an app's jobs in one slab, and every
// job comes out field for field as NewJob makes it, with the trace's
// per-job and placement-block fields set on top and its ID "<app>/j<index>",
// a slice of the app's one ID string.
func TestToAppsJobsAreNewJobs(t *testing.T) {
	tr := FromApps("unit", genApps(t, 12))
	tr.Apps[0].Placement = &PlacementSpec{MinGPUsPerMachine: 2, MaxMachines: 3, Domain: "pod-a", Flavor: "V100"}
	tr.Apps[1].Jobs[0].MaxParallelism = 8
	tr.Apps[1].Jobs[0].MaxMachines = 1
	apps, err := tr.ToApps()
	if err != nil {
		t.Fatal(err)
	}
	for a, app := range apps {
		base := unsafe.StringData(string(app.Jobs[0].ID))
		off := 0
		for i, j := range app.Jobs {
			want := *workload.NewJob(app.ID, i, j.TotalWork, j.GangSize)
			want.MaxParallelism, want.TotalIterations = j.MaxParallelism, j.TotalIterations
			want.MinGPUsPerMachine, want.MaxMachines = j.MinGPUsPerMachine, j.MaxMachines
			want.DomainAffinity, want.FlavorAffinity = j.DomainAffinity, j.FlavorAffinity
			want.Quality, want.Seed = j.Quality, j.Seed
			if *j != want {
				t.Fatalf("app %s job %d = %+v, NewJob makes %+v", app.ID, i, *j, want)
			}
			if id := workload.JobID(fmt.Sprintf("%s/j%d", app.ID, i)); j.ID != id {
				t.Fatalf("app %s job %d has ID %q, want %q", app.ID, i, j.ID, id)
			}
			if unsafe.StringData(string(j.ID)) != (*byte)(unsafe.Add(unsafe.Pointer(base), off)) {
				t.Fatalf("app %s job %d: its ID is not the next slice of the app's ID string", app.ID, i)
			}
			off += len(j.ID)
			spec := tr.Apps[a].Jobs[i]
			if j.TotalWork != spec.TotalWork || j.GangSize != spec.GangSize || j.Quality != spec.Quality || j.Seed != spec.Seed {
				t.Fatalf("app %s job %d = %+v, the trace says %+v", app.ID, i, *j, spec)
			}
		}
	}
	if j := apps[0].Jobs[0]; j.MinGPUsPerMachine != 2 || j.MaxMachines != 3 || j.DomainAffinity != "pod-a" || j.FlavorAffinity != "V100" {
		t.Errorf("placement block not applied: %+v", *j)
	}
	if j := apps[1].Jobs[0]; j.MaxParallelism != 8 || j.MaxMachines != 1 {
		t.Errorf("per-job fields not applied: %+v", *j)
	}
}
