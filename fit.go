package themis

import (
	"fmt"
	"io"
	"os"

	"themis/internal/fit"
)

// Trace calibration: learn a ScenarioConfig from an observed workload, so a
// single imported trace becomes an unbounded family of seedable synthetic
// twins. The estimators live in internal/fit; this file is their public face
// and the bridge into the scenario registry.

type (
	// FitReport is the outcome of one calibration: the learned ScenarioConfig
	// (ready for ComposeWorkload or registration), the per-axis estimates
	// with goodness-of-fit evidence (KS distances, AIC), and provenance.
	FitReport = fit.Report
	// FitProvenance identifies the trace a scenario was calibrated from.
	FitProvenance = fit.Provenance
	// ArrivalFit is the fitted arrival process plus its detection evidence.
	ArrivalFit = fit.ArrivalFit
	// SizeLawFit is the fitted job-size law plus both candidates' evidence.
	SizeLawFit = fit.SizeFit
)

// FitScenario learns a scenario description from an observed workload —
// typically the output of ImportTrace(...).ToApps() or a previously generated
// scenario. The fitted config recovers the arrival process (Poisson rate,
// diurnal day shape, or bursty spikes), the job-size law (lognormal vs Pareto
// by AIC), the gang-size population and the auxiliary generator knobs, and
// the report documents the evidence behind every choice. Fitting never
// mutates the apps and is deterministic for a fixed input.
func FitScenario(apps []*App) (*FitReport, error) {
	rep, err := fit.Fit(apps)
	if err != nil {
		return nil, fmt.Errorf("themis: %w", err)
	}
	return rep, nil
}

// FitTrace materialises a trace and fits a scenario to it, stamping the
// trace's name as the report's provenance source.
func FitTrace(tr Trace) (*FitReport, error) {
	apps, err := tr.ToApps()
	if err != nil {
		return nil, fmt.Errorf("themis: %w", err)
	}
	rep, err := FitScenario(apps)
	if err != nil {
		return nil, err
	}
	rep.Provenance.Source = tr.Name
	return rep, nil
}

// ReadFitReport parses a fit report from a stream (the JSON form written by
// FitReport.WriteJSON and the tracegen fit subcommand), validating that the
// carried scenario configuration is generatable.
func ReadFitReport(r io.Reader) (*FitReport, error) {
	rep, err := fit.ReadReport(r)
	if err != nil {
		return nil, fmt.Errorf("themis: %w", err)
	}
	return rep, nil
}

// LoadFitReport reads a fit report from a file.
func LoadFitReport(path string) (*FitReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("themis: %w", err)
	}
	defer f.Close()
	return ReadFitReport(f)
}

// SaveFitReport writes a fit report to a file.
func SaveFitReport(path string, rep *FitReport) error {
	if rep == nil {
		return fmt.Errorf("themis: SaveFitReport(nil report)")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("themis: %w", err)
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("themis: %w", err)
	}
	return f.Close()
}

// RegisterCalibratedScenario adds a fitted scenario to the registry under a
// caller-chosen name, so WithScenario, Grid sweeps, RunSweep and the CLIs
// pick it up exactly like a built-in. The entry's description is the
// report's provenance line (DescribeScenario renders it), and the full
// report stays retrievable through ScenarioFit, keeping calibrated entries
// distinguishable from hand-written ones. Registering a name twice is an
// error, as with RegisterScenario.
func RegisterCalibratedScenario(name string, rep *FitReport) error {
	if rep == nil {
		return fmt.Errorf("themis: RegisterCalibratedScenario(%q, nil report)", name)
	}
	return registerScenario(name, rep.Describe(), ScenarioFromConfig(rep.Config), rep)
}

// ScenarioFit returns the calibration report a scenario was registered with
// via RegisterCalibratedScenario, or ok=false for built-ins and scenarios
// registered through plain RegisterScenario.
func ScenarioFit(name string) (*FitReport, bool) {
	entry, err := scenarios.lookup(name)
	if err != nil || entry.fit == nil {
		return nil, false
	}
	return entry.fit, true
}
