package themis

import (
	"fmt"
	"os"

	"themis/internal/fit"
)

// Trace calibration: learn a ScenarioConfig from an observed workload, so a
// single imported trace becomes an unbounded family of seedable synthetic
// twins: ComposeWorkload(params.Apply(rep.Config)). The estimators live in
// internal/fit; this file is their public face.

type (
	// FitReport is the outcome of one calibration: the learned ScenarioConfig
	// (ready for ComposeWorkload), the per-axis estimates
	// with goodness-of-fit evidence (KS distances, AIC), and provenance.
	FitReport = fit.Report
	// FitProvenance identifies the trace a scenario was calibrated from.
	FitProvenance = fit.Provenance
	// ArrivalFit is the fitted arrival process plus its detection evidence.
	ArrivalFit = fit.ArrivalFit
	// SizeLawFit is the fitted job-size law plus both candidates' evidence.
	SizeLawFit = fit.SizeFit
)

// FitTrace learns a scenario description from an observed workload: the
// trace's apps, as ImportTrace or LoadTrace returns them. The fitted config
// recovers the arrival process (Poisson rate, diurnal day shape, or bursty
// spikes), the job-size law (lognormal vs Pareto by AIC), the gang-size
// population and the auxiliary generator knobs, and the report documents the
// evidence behind every choice and names the trace as its provenance source.
// Fitting is deterministic for a fixed input.
func FitTrace(tr Trace) (*FitReport, error) {
	apps, err := tr.ToApps()
	if err != nil {
		return nil, fmt.Errorf("themis: %w", err)
	}
	rep, err := fit.Fit(apps)
	if err != nil {
		return nil, fmt.Errorf("themis: %w", err)
	}
	rep.Provenance.Source = tr.Name
	return rep, nil
}

// LoadFitReport reads a fit report from a file (the JSON form written by
// SaveFitReport and the tracegen fit subcommand), validating that the carried
// scenario configuration is generatable.
func LoadFitReport(path string) (*FitReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("themis: %w", err)
	}
	defer f.Close()
	rep, err := fit.ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("themis: %w", err)
	}
	return rep, nil
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
