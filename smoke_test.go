package themis

import (
	"testing"

	"themis/internal/experiments"
)

// TestExperimentOptions sanity-checks the two experiment scales the
// repository ships (benchmarks use Quick, cmd/expdriver defaults to
// Default).
func TestExperimentOptions(t *testing.T) {
	for name, opts := range map[string]experiments.Options{
		"default": experiments.Default(),
		"quick":   experiments.Quick(),
	} {
		if err := opts.Validate(); err != nil {
			t.Errorf("%s options invalid: %v", name, err)
		}
	}
}

// TestFigure2Smoke runs the cheapest figure end-to-end from the root package
// so `go test` exercises the experiment harness even without -bench.
func TestFigure2Smoke(t *testing.T) {
	tables, err := experiments.Tables(experiments.Quick(), "2")
	if err != nil {
		t.Fatal(err)
	}
	fig2 := tables[0]
	if len(fig2.Rows) != 5 {
		t.Fatalf("Figure 2 produced %d rows, want 5", len(fig2.Rows))
	}
	slowdown := fig2.Floats("slowdown")
	for i, model := range fig2.Cells("model") {
		if slowdown[i] <= 0 || slowdown[i] > 1 {
			t.Errorf("%s slowdown %v outside (0,1]", model, slowdown[i])
		}
	}
}
