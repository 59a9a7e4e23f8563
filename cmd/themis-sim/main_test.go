package main

import (
	"bytes"
	"flag"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"themis"
)

// A fit report's arrival rate reaches the simulated apps: run without
// -interarrival, -scale or -contention, `themis-sim -scenario fitted.json`
// generates exactly the apps ComposeWorkload makes from the fitted config,
// not apps at the default workload's 20-minute mean inter-arrival.
func TestFitReportArrivalRateReachesApps(t *testing.T) {
	generated, err := themis.GenerateScenario("paper-mix", themis.ScenarioParams{Seed: 1, NumApps: 40, MeanInterArrival: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := themis.FitTrace(themis.NewTrace("ia5", generated))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fit.json")
	if err := themis.SaveFitReport(path, rep); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	fs := flag.NewFlagSet("themis-sim", flag.ContinueOnError)
	if err := run(fs, []string{"-scenario", path, "-apps", "40", "-seed", "7", "-per-app"}, &out); err != nil {
		t.Fatal(err)
	}
	submits := submitColumn(t, out.String())

	want, err := themis.ComposeWorkload(themis.ScenarioParams{Seed: 7, NumApps: 40}.Apply(rep.Config))
	if err != nil {
		t.Fatal(err)
	}
	if len(submits) != len(want) {
		t.Fatalf("themis-sim printed %d apps, want %d", len(submits), len(want))
	}
	for i, app := range want {
		if got := fmt.Sprintf("%.1f", app.SubmitTime); submits[i] != got {
			t.Fatalf("app %d submitted at %s, want %s from the fitted config", i, submits[i], got)
		}
	}
	last, err := strconv.ParseFloat(submits[len(submits)-1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if gap, fitted := last/float64(len(submits)-1), rep.Config.MeanInterArrival; gap > 2*fitted {
		t.Errorf("mean inter-arrival %.2f min, want near the fitted %.2f min", gap, fitted)
	}
}

// submitColumn returns the submit times of -per-app's table, in app order.
func submitColumn(t *testing.T, out string) []string {
	t.Helper()
	_, table, ok := strings.Cut(out, "app\tmodel\tsubmit\t")
	if !ok {
		t.Fatalf("no per-app table in:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(table), "\n")[1:]
	submits := make([]string, len(lines))
	for i, line := range lines {
		fields := strings.Split(line, "\t")
		if len(fields) < 3 {
			t.Fatalf("per-app line %q", line)
		}
		submits[i] = fields[2]
	}
	return submits
}
