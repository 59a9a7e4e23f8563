package fit

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"themis/internal/workload"
)

// Report is the full outcome of one calibration: the learned scenario
// configuration, the per-axis estimates with their goodness-of-fit evidence,
// and the provenance that makes a calibrated registry entry distinguishable
// from a hand-written one.
type Report struct {
	// Config is the learned scenario, ready for workload.GenerateScenario
	// (knobs the input carried no evidence for are zero and default like any
	// hand-written config).
	Config workload.ScenarioConfig
	// Arrival is the fitted arrival process and its evidence.
	Arrival ArrivalFit
	// Size is the fitted job-size law and both candidates' evidence.
	Size SizeFit
	// Gangs is the fitted gang-size population, sizes ascending, weights
	// summing to 1.
	Gangs []workload.GangMix
	// Provenance records where the fit came from.
	Provenance Provenance
}

// Provenance identifies the trace a scenario was calibrated from.
type Provenance struct {
	// Source names the input trace (empty when fitted from bare apps).
	Source string `json:"source,omitempty"`
	// FittedAt is the calibration date, e.g. "2026-07-30". Fit leaves it
	// empty — fitting is deterministic and dates are not — so callers that
	// want a date stamp it themselves (cmd/tracegen does).
	FittedAt string `json:"fitted_at,omitempty"`
	// Apps and Jobs count the input.
	Apps int `json:"apps"`
	Jobs int `json:"jobs"`
	// Notes lists estimator degradations (samples too small for a detector,
	// knobs left to defaults), in the order they were hit.
	Notes []string `json:"notes,omitempty"`
}

func (p *Provenance) note(msg string) { p.Notes = append(p.Notes, msg) }

// Render produces the human-readable fit-quality report: every estimate,
// both size-law candidates' evidence, and the degradation notes. The output
// is deterministic for a fixed input (six significant digits), so it doubles
// as the golden-snapshot form.
func (r *Report) Render() string {
	var b strings.Builder
	source := r.Provenance.Source
	if source == "" {
		source = "workload"
	}
	fmt.Fprintf(&b, "calibration report\n")
	fmt.Fprintf(&b, "source               %s (%d apps, %d jobs)\n", source, r.Provenance.Apps, r.Provenance.Jobs)
	if r.Provenance.FittedAt != "" {
		fmt.Fprintf(&b, "fitted               %s\n", r.Provenance.FittedAt)
	}

	a := r.Arrival
	fmt.Fprintf(&b, "arrival pattern      %s\n", a.Pattern)
	fmt.Fprintf(&b, "  arrivals           %d over %.6g min\n", a.Samples, a.Span)
	fmt.Fprintf(&b, "  mean inter-arrival %.6g min (exponential KS %.6g)\n", a.MeanInterArrival, a.ExponentialKS)
	fmt.Fprintf(&b, "  index of dispersion %.6g\n", a.IndexOfDispersion)
	if a.PeakToTrough > 0 {
		fmt.Fprintf(&b, "  diurnal amplitude  %.6g (peak/trough %.6g)\n", a.DiurnalAmplitude, a.PeakToTrough)
	}
	if a.BurstFraction > 0 {
		fmt.Fprintf(&b, "  burst fraction     %.6g (spike size %.6g, interval %.6g min, spread %.6g min)\n",
			a.BurstFraction, a.BurstApps, a.BurstInterval, a.BurstSpread)
	}

	s := r.Size
	fmt.Fprintf(&b, "size law             %s\n", s.Law)
	fmt.Fprintf(&b, "  durations          %d, max %.6g min\n", s.Samples, s.MaxDuration)
	if s.Lognormal.OK {
		fmt.Fprintf(&b, "  lognormal          median %.6g min, sigma %.6g (KS %.6g, AIC %.6g)\n",
			s.LognormalMedian, s.LognormalSigma, s.Lognormal.KS, s.Lognormal.AIC)
	}
	if s.Pareto.OK {
		fmt.Fprintf(&b, "  pareto             alpha %.6g, min %.6g min (KS %.6g, AIC %.6g)\n",
			s.ParetoAlpha, s.ParetoMin, s.Pareto.KS, s.Pareto.AIC)
	}

	if len(r.Gangs) > 0 {
		fmt.Fprintf(&b, "gang population      ")
		for i, g := range r.Gangs {
			if i > 0 {
				fmt.Fprintf(&b, ", ")
			}
			fmt.Fprintf(&b, "%d GPUs %.1f%%", g.Size, g.Weight*100)
		}
		fmt.Fprintf(&b, "\n")
	}

	cfg := r.Config
	fmt.Fprintf(&b, "jobs per app         median %.6g, sigma %.6g, range [%d, %d]\n",
		cfg.JobsPerAppMedian, cfg.JobsPerAppSigma, cfg.MinJobsPerApp, cfg.MaxJobsPerApp)
	fmt.Fprintf(&b, "network-intensive    %.1f%% of apps\n", cfg.FractionNetworkIntensive*100)
	for _, n := range r.Provenance.Notes {
		fmt.Fprintf(&b, "note                 %s\n", n)
	}
	return b.String()
}

// fitFormatVersion versions the serialised fit-report form; the marker field
// also distinguishes a fit report from a native trace when both are sniffed
// from JSON files.
const fitFormatVersion = 1

// jsonReport is the wire form of a Report. The scenario config is spelled
// out knob by knob rather than embedding workload.ScenarioConfig, so the file
// format stays stable under generator-struct evolution and never serialises
// placement-profile catalogs.
type jsonReport struct {
	FitFormat  int        `json:"fit_format"`
	Provenance Provenance `json:"provenance"`
	Arrival    ArrivalFit `json:"arrival"`
	Size       SizeFit    `json:"size"`
	Gangs      []gangMix  `json:"gangs,omitempty"`
	Config     jsonConfig `json:"config"`
}

type gangMix struct {
	Size   int     `json:"size"`
	Weight float64 `json:"weight"`
}

type jsonConfig struct {
	NumApps                  int     `json:"num_apps"`
	MeanInterArrival         float64 `json:"mean_interarrival,omitempty"`
	ContentionFactor         float64 `json:"contention_factor,omitempty"`
	FractionNetworkIntensive float64 `json:"fraction_network_intensive"`
	JobsPerAppMedian         float64 `json:"jobs_per_app_median,omitempty"`
	JobsPerAppSigma          float64 `json:"jobs_per_app_sigma,omitempty"`
	MinJobsPerApp            int     `json:"min_jobs_per_app,omitempty"`
	MaxJobsPerApp            int     `json:"max_jobs_per_app,omitempty"`

	Arrival             string  `json:"arrival"`
	DiurnalPeriod       float64 `json:"diurnal_period,omitempty"`
	DiurnalPeakToTrough float64 `json:"diurnal_peak_to_trough,omitempty"`
	BurstInterval       float64 `json:"burst_interval,omitempty"`
	BurstApps           int     `json:"burst_apps,omitempty"`
	BurstSpread         float64 `json:"burst_spread,omitempty"`
	BurstFraction       float64 `json:"burst_fraction,omitempty"`

	JobSize           string  `json:"job_size"`
	ShortTaskMedian   float64 `json:"short_task_median,omitempty"`
	LongTaskMedian    float64 `json:"long_task_median,omitempty"`
	TaskSigma         float64 `json:"task_sigma,omitempty"`
	LongTaskFraction  float64 `json:"long_task_fraction,omitempty"`
	MaxTaskDuration   float64 `json:"max_task_duration,omitempty"`
	ParetoAlpha       float64 `json:"pareto_alpha,omitempty"`
	ParetoMinDuration float64 `json:"pareto_min_duration,omitempty"`
	DurationScale     float64 `json:"duration_scale,omitempty"`
}

// WriteJSON serialises the report (fitted config, evidence and provenance)
// as indented JSON — the form `tracegen fit` emits and ReadReport accepts.
func (r *Report) WriteJSON(w io.Writer) error {
	cfg := r.Config
	out := jsonReport{
		FitFormat:  fitFormatVersion,
		Provenance: r.Provenance,
		Arrival:    r.Arrival,
		Size:       r.Size,
		Config: jsonConfig{
			NumApps:                  cfg.NumApps,
			MeanInterArrival:         cfg.MeanInterArrival,
			ContentionFactor:         cfg.ContentionFactor,
			FractionNetworkIntensive: cfg.FractionNetworkIntensive,
			JobsPerAppMedian:         cfg.JobsPerAppMedian,
			JobsPerAppSigma:          cfg.JobsPerAppSigma,
			MinJobsPerApp:            cfg.MinJobsPerApp,
			MaxJobsPerApp:            cfg.MaxJobsPerApp,
			Arrival:                  string(cfg.Arrival),
			DiurnalPeriod:            cfg.DiurnalPeriod,
			DiurnalPeakToTrough:      cfg.DiurnalPeakToTrough,
			BurstInterval:            cfg.BurstInterval,
			BurstApps:                cfg.BurstApps,
			BurstSpread:              cfg.BurstSpread,
			BurstFraction:            cfg.BurstFraction,
			JobSize:                  string(cfg.JobSize),
			ShortTaskMedian:          cfg.ShortTaskMedian,
			LongTaskMedian:           cfg.LongTaskMedian,
			TaskSigma:                cfg.TaskSigma,
			LongTaskFraction:         cfg.LongTaskFraction,
			MaxTaskDuration:          cfg.MaxTaskDuration,
			ParetoAlpha:              cfg.ParetoAlpha,
			ParetoMinDuration:        cfg.ParetoMinDuration,
			DurationScale:            cfg.DurationScale,
		},
	}
	for _, g := range r.Gangs {
		out.Gangs = append(out.Gangs, gangMix{Size: g.Size, Weight: g.Weight})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadReport parses a serialised fit report and validates that the carried
// scenario configuration is generatable.
func ReadReport(r io.Reader) (*Report, error) {
	dec := json.NewDecoder(r)
	var in jsonReport
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("fit: decoding report: %w", err)
	}
	if in.FitFormat != fitFormatVersion {
		return nil, fmt.Errorf("fit: unsupported fit_format %d (want %d)", in.FitFormat, fitFormatVersion)
	}
	rep := &Report{
		Provenance: in.Provenance,
		Arrival:    in.Arrival,
		Size:       in.Size,
	}
	c := in.Config
	rep.Config = workload.ScenarioConfig{
		GeneratorConfig: workload.GeneratorConfig{
			NumApps:                  c.NumApps,
			MeanInterArrival:         c.MeanInterArrival,
			ContentionFactor:         c.ContentionFactor,
			FractionNetworkIntensive: c.FractionNetworkIntensive,
			JobsPerAppMedian:         c.JobsPerAppMedian,
			JobsPerAppSigma:          c.JobsPerAppSigma,
			MinJobsPerApp:            c.MinJobsPerApp,
			MaxJobsPerApp:            c.MaxJobsPerApp,
			ShortTaskMedian:          c.ShortTaskMedian,
			LongTaskMedian:           c.LongTaskMedian,
			TaskSigma:                c.TaskSigma,
			LongTaskFraction:         c.LongTaskFraction,
			MaxTaskDuration:          c.MaxTaskDuration,
			DurationScale:            c.DurationScale,
		},
		Arrival:             workload.ArrivalPattern(c.Arrival),
		DiurnalPeriod:       c.DiurnalPeriod,
		DiurnalPeakToTrough: c.DiurnalPeakToTrough,
		BurstInterval:       c.BurstInterval,
		BurstApps:           c.BurstApps,
		BurstSpread:         c.BurstSpread,
		BurstFraction:       c.BurstFraction,
		JobSize:             workload.SizePattern(c.JobSize),
		ParetoAlpha:         c.ParetoAlpha,
		ParetoMinDuration:   c.ParetoMinDuration,
	}
	for _, g := range in.Gangs {
		rep.Gangs = append(rep.Gangs, workload.GangMix{Size: g.Size, Weight: g.Weight})
		rep.Config.GangSizes = append(rep.Config.GangSizes, workload.GangMix{Size: g.Size, Weight: g.Weight})
	}
	if err := rep.Config.WithDefaults().Validate(); err != nil {
		return nil, fmt.Errorf("fit: report carries invalid scenario config: %w", err)
	}
	return rep, nil
}
