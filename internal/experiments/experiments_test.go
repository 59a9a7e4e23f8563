package experiments

import (
	"slices"
	"strings"
	"testing"

	"themis/internal/workload"
)

// tiny returns the smallest options that still exercise every figure's code
// path; the full Quick()/Default() scales are reserved for benchmarks and
// the expdriver binary.
func tiny() Options {
	o := Quick()
	o.SimApps = 6
	o.TestbedApps = 6
	o.JobsPerAppMedian = 3
	o.MaxJobsPerApp = 5
	o.SimDurationScale = 0.1
	o.TestbedDurationScale = 0.1
	o.SimClusterScale = 0.2
	o.MeanInterArrival = 3
	o.LeaseDuration = 8
	o.Horizon = 6000
	return o
}

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{Default(), Quick(), tiny()} {
		if err := o.Validate(); err != nil {
			t.Errorf("options %+v invalid: %v", o, err)
		}
	}
	bad := Default()
	bad.SimApps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SimApps should be invalid")
	}
	bad = Default()
	bad.FairnessKnob = 2
	if err := bad.Validate(); err == nil {
		t.Error("fairness knob 2 should be invalid")
	}
}

// table builds the one named table at tiny scale.
func table(t *testing.T, name string) Table {
	t.Helper()
	tables, err := Tables(tiny(), name)
	if err != nil {
		t.Fatal(err)
	}
	return tables[0]
}

// distinct returns the distinct cells of the named column, in first-seen
// order.
func distinct(tab Table, col string) []any {
	var out []any
	for _, c := range tab.Cells(col) {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

func TestTablesRequestOrderAndUnknownName(t *testing.T) {
	tables, err := Tables(tiny(), "5a", "7")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].Name != "5a" || tables[1].Name != "7" {
		t.Fatalf("Tables(5a, 7) returned %d tables named %v", len(tables), tableNames(tables))
	}
	_, err = Tables(tiny(), "2", "3")
	if err == nil {
		t.Fatal("unknown figure 3 did not fail")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list figure %s", err, name)
		}
	}
	if want := []string{"1", "2", "4a", "4b", "4c", "5a", "5b", "6", "7", "8", "9a", "9b", "10", "11"}; !slices.Equal(Names(), want) {
		t.Errorf("Names() = %v, want %v", Names(), want)
	}
}

func tableNames(tables []Table) []string {
	var names []string
	for _, tab := range tables {
		names = append(names, tab.Name)
	}
	return names
}

func TestFigure1(t *testing.T) {
	tab := table(t, "1")
	durations, fractions := tab.Floats("duration_min"), tab.Floats("cdf")
	if len(durations) != 100 || len(fractions) != 100 {
		t.Fatalf("CDF lengths %d,%d", len(durations), len(fractions))
	}
	for i := 1; i < len(durations); i++ {
		if durations[i] < durations[i-1] || fractions[i] < fractions[i-1] {
			t.Fatalf("duration CDF not monotone at %d", i)
		}
	}
	if fractions[99] != 1 {
		t.Errorf("CDF ends at %v, want 1", fractions[99])
	}
	// The trace tops out near the paper's 1000-minute cap and has the
	// paper's jobs-per-app range.
	if durations[99] > 1000.01 {
		t.Errorf("max duration %v exceeds 1000-minute cap", durations[99])
	}
	apps, err := figure1Trace(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if st := workload.Summarize(apps); st.JobsPerAppMax > 98 || st.JobsPerAppMin < 1 {
		t.Errorf("jobs per app out of the paper's range: %+v", st)
	}
}

func TestFigure2Shape(t *testing.T) {
	tab := table(t, "2")
	if len(tab.Rows) != 5 {
		t.Fatalf("Figure 2 has %d models, want 5", len(tab.Rows))
	}
	one, two := tab.Floats("one_server"), tab.Floats("two_by_two")
	for i, model := range tab.Cells("model") {
		if one[i] <= 0 || two[i] <= 0 {
			t.Errorf("%s throughput non-positive", model)
		}
		if two[i] > one[i]+1e-9 {
			t.Errorf("%s: spreading across servers should never speed up", model)
		}
	}
	// The paper's key contrast: VGG16 suffers badly from spreading,
	// ResNet50 barely at all.
	if s := tab.Lookup("model", "VGG16", "slowdown"); s > vgg16SlowdownMax {
		t.Errorf("VGG16 2x2 slowdown %v, want < %v", s, vgg16SlowdownMax)
	}
	if s := tab.Lookup("model", "ResNet50", "slowdown"); s < resnet50SlowdownMin {
		t.Errorf("ResNet50 2x2 slowdown %v, want > %v", s, resnet50SlowdownMin)
	}
}

func TestFigure4aShape(t *testing.T) {
	tab := table(t, "4a")
	if len(tab.Rows) != len(fairnessKnobs) {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	maxRho, median, minRho := tab.Floats("max_rho"), tab.Floats("median_rho"), tab.Floats("min_rho")
	for i, f := range tab.Floats("f") {
		if maxRho[i] < median[i] || median[i] < minRho[i] {
			t.Errorf("fairness ordering violated at f=%v: %v", f, tab.Rows[i])
		}
		if maxRho[i] <= 0 {
			t.Errorf("non-positive max fairness at f=%v", f)
		}
	}
	// Higher f should not make worst-case fairness dramatically worse: the
	// paper's trend is decreasing max fairness with f. Allow noise at tiny
	// scale but require the f=0.8 point to be no worse than 1.5× the f=0 point.
	f0 := tab.Lookup("f", 0.0, "max_rho")
	f08 := tab.Lookup("f", 0.8, "max_rho")
	if f08 > f0*1.5 {
		t.Errorf("max fairness at f=0.8 (%v) much worse than at f=0 (%v)", f08, f0)
	}
}

func TestComparisonFigures5Through7(t *testing.T) {
	tables, err := Tables(tiny(), "5a", "5b", "6", "7")
	if err != nil {
		t.Fatal(err)
	}
	fig5a, fig5b, fig6, fig7 := tables[0], tables[1], tables[2], tables[3]
	if len(fig5a.Rows) != 4 {
		t.Fatalf("Figure 5a rows = %d, want 4 schemes", len(fig5a.Rows))
	}
	// Every scheme should finish apps at this tiny scale: a scheme that
	// finished none has no completion-time CDF.
	if got := distinct(fig6, "scheme"); len(got) != 4 {
		t.Errorf("schemes with finished apps: %v, want all 4", got)
	}
	if got := distinct(fig7, "scheme"); len(got) != 4 {
		t.Errorf("Figure 7 schemes: %v, want 4", got)
	}
	maxRho := fig5a.Floats("max_rho")
	worst := 0
	for i, scheme := range fig5a.Cells("scheme") {
		if maxRho[i] <= 0 {
			t.Errorf("%s max fairness %v", scheme, maxRho[i])
		}
		if maxRho[i] > maxRho[worst] {
			worst = i
		}
	}
	// Themis must not be the worst scheme on max fairness.
	if fig5a.Cells("scheme")[worst] == "themis" {
		t.Errorf("Themis has the worst max fairness: %v", fig5a.Rows)
	}
	jains := fig5b.Floats("jains_index")
	for i, scheme := range fig5b.Cells("scheme") {
		if jains[i] <= 0 || jains[i] > 1 {
			t.Errorf("%s Jain's index %v out of range", scheme, jains[i])
		}
	}
	for i, v := range fig7.Floats("placement_score") {
		if v < 0.5-1e-9 || v > 1+1e-9 {
			t.Errorf("%s placement score %v outside [0.5,1]", fig7.Rows[i][0], v)
		}
	}
	if ideal := fig5a.Notes[0].Args[0].(float64); ideal < 1 {
		t.Errorf("ideal max fairness %v < 1", ideal)
	}
	// A heading, then one mean-JCT improvement per other scheme.
	if n := len(fig6.Footer) - 1; n != 3 {
		t.Errorf("JCT improvement entries = %d, want 3", n)
	}
}

func TestFigure8Timeline(t *testing.T) {
	tab := table(t, "8")
	events := map[any]int{}
	peak := map[any]float64{}
	gpus := tab.Floats("gpus")
	for i, app := range tab.Cells("app") {
		events[app]++
		peak[app] = max(peak[app], gpus[i])
	}
	if events["short"] < 2 || events["long"] < 2 {
		t.Fatalf("timelines too short: short=%d long=%d", events["short"], events["long"])
	}
	// Both apps must eventually receive GPUs.
	if peak["short"] == 0 || peak["long"] == 0 {
		t.Errorf("an app never received GPUs: short peak %v, long peak %v", peak["short"], peak["long"])
	}
	res, err := figure8Sim(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Finished()); n < 2 {
		t.Errorf("only %d apps finished in the Figure 8 scenario", n)
	}
}

func TestFigure11ErrorRobustness(t *testing.T) {
	tab := table(t, "11")
	if len(tab.Rows) != len(bidErrors) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	maxRho := tab.Floats("max_rho")
	for i, pct := range tab.Floats("pct_error") {
		if maxRho[i] <= 0 {
			t.Errorf("error %v%%: non-positive max fairness", pct)
		}
		// The paper's point: even 20% error does not change max fairness
		// significantly. Allow a generous 2× band at tiny scale.
		if maxRho[i] > maxRho[0]*2 {
			t.Errorf("error %v%%: max fairness %v far from baseline %v", pct, maxRho[i], maxRho[0])
		}
	}
}
