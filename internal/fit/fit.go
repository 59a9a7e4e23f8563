// Package fit is the trace-calibration subsystem: it learns a full
// workload.ScenarioConfig from an observed workload — any imported cluster
// trace or previously generated scenario — turning one concrete trace into an
// unbounded family of seedable synthetic twins.
//
// Fit estimates three independent model axes, mirroring the knobs of the
// scenario engine it feeds:
//
//   - the arrival process: Poisson rate MLE over inter-arrival times, with
//     diurnal day-shape detection (time-of-day rate binning → first-harmonic
//     amplitude → peak-to-trough ratio for the Lewis-thinning generator) and
//     burstiness detection (index of dispersion of windowed arrival counts →
//     spike clustering → bursty-spike parameters);
//   - the job-size law: lognormal and Pareto maximum-likelihood fits over
//     per-task serial durations, selected by AIC with Kolmogorov–Smirnov
//     distances reported for both candidates;
//   - the gang-size population: a weighted histogram of observed gang sizes.
//
// It also recovers the auxiliary generator knobs (jobs-per-app lognormal,
// network-intensive fraction, app count and mean inter-arrival) so that
// GenerateScenario(report.Config) produces workloads statistically matched to
// the input.
//
// Fitting is deterministic: the same apps always produce the same Report,
// bit for bit. There is no RNG anywhere in the pipeline, and every
// aggregation iterates in sorted order.
//
// # Known biases
//
// The estimators degrade gracefully on small samples but are documented to
// be biased there:
//
//   - diurnal detection needs ≥ minDiurnalArrivals arrivals spanning at least
//     one full DiurnalPeriod; below that, diurnal traces classify as Poisson.
//     The amplitude threshold means peak-to-trough ratios under ~1.9 are
//     indistinguishable from Poisson noise and classify as Poisson.
//   - burst detection needs ≥ minPatternArrivals arrivals; spikes smaller
//     than minSpikeSize apps are absorbed into the background process.
//   - the lognormal law fitted to the base generator's short/long mixture
//     recovers the mixture's geometric median and effective log-sd, not the
//     two component medians (LongTaskFraction is 0 in fitted configs).
//   - durations at MaxTaskDuration are treated as ordinary samples, so a
//     heavily truncated input slightly deflates the fitted tail.
//   - MeanInterArrival is the span MLE (span / (n−1)); a single-app trace
//     carries no rate information and leaves the knob to its default.
package fit

import (
	"fmt"
	"math"
	"sort"

	"themis/internal/workload"
)

// sigmaFloor keeps fitted log-sd knobs strictly positive: a zero TaskSigma or
// JobsPerAppSigma would be re-defaulted by ScenarioConfig.WithDefaults, so a
// degenerate (constant) sample fits an effectively deterministic lognormal
// instead of silently inheriting the paper's spread.
const sigmaFloor = 1e-6

// Fit learns a scenario description from an observed workload. The returned
// Report carries the fitted workload.ScenarioConfig (ready for
// GenerateScenario), the per-axis estimates and the goodness-of-fit evidence
// behind each model choice. Fit never mutates the apps and is deterministic
// for a fixed input.
func Fit(apps []*workload.App) (*Report, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("fit: no apps to calibrate from")
	}
	rep := &Report{}

	// Collect the observable samples in deterministic order.
	arrivals := make([]float64, 0, len(apps))
	var durations []float64
	gangHist := map[int]int{}
	jobsPerApp := make([]float64, 0, len(apps))
	network := 0
	jobs := 0
	for _, a := range apps {
		if a == nil {
			return nil, fmt.Errorf("fit: nil app in workload")
		}
		arrivals = append(arrivals, a.SubmitTime)
		jobsPerApp = append(jobsPerApp, float64(len(a.Jobs)))
		if a.Profile.NetworkIntensive {
			network++
		}
		for _, j := range a.Jobs {
			jobs++
			if j.GangSize > 0 && j.TotalWork > 0 {
				durations = append(durations, j.TotalWork/float64(j.GangSize))
				gangHist[j.GangSize]++
			}
		}
	}
	sort.Float64s(arrivals)
	sort.Float64s(durations)

	rep.Provenance.Apps = len(apps)
	rep.Provenance.Jobs = jobs

	rep.Arrival = fitArrival(arrivals, &rep.Provenance)
	rep.Size = fitSize(durations, &rep.Provenance)
	rep.Gangs = fitGangs(gangHist)
	if len(rep.Gangs) == 0 {
		rep.Provenance.note("no schedulable jobs: gang population left to defaults")
	}

	rep.Config = assembleConfig(rep, jobsPerApp, network, len(apps))
	if err := rep.Config.WithDefaults().Validate(); err != nil {
		return nil, fmt.Errorf("fit: fitted config invalid: %w", err)
	}
	return rep, nil
}

// fitGangs converts the gang-size histogram into the scenario engine's
// weighted population, sizes ascending, weights normalised to sum to 1.
func fitGangs(counts map[int]int) []workload.GangMix {
	if len(counts) == 0 {
		return nil
	}
	sizes := make([]int, 0, len(counts))
	total := 0
	for size, n := range counts {
		sizes = append(sizes, size)
		total += n
	}
	sort.Ints(sizes)
	out := make([]workload.GangMix, 0, len(sizes))
	for _, size := range sizes {
		out = append(out, workload.GangMix{
			Size:   size,
			Weight: float64(counts[size]) / float64(total),
		})
	}
	return out
}

// assembleConfig threads the per-axis estimates into one ScenarioConfig.
// Knobs the input carries no evidence for stay zero, so WithDefaults fills
// them exactly like any hand-written scenario.
func assembleConfig(rep *Report, jobsPerApp []float64, networkApps, numApps int) workload.ScenarioConfig {
	var cfg workload.ScenarioConfig
	cfg.NumApps = numApps
	cfg.ContentionFactor = 1
	cfg.DurationScale = 1
	cfg.FractionNetworkIntensive = float64(networkApps) / float64(numApps)

	// Jobs-per-app lognormal MLE over the observed trial counts; the clamp
	// range is the observed range.
	mu, sigma := logMoments(jobsPerApp)
	cfg.JobsPerAppMedian = math.Exp(mu)
	cfg.JobsPerAppSigma = math.Max(sigma, sigmaFloor)
	cfg.MinJobsPerApp = int(jobsPerApp[argMin(jobsPerApp)])
	cfg.MaxJobsPerApp = int(jobsPerApp[argMax(jobsPerApp)])

	// Arrival process.
	cfg.Arrival = rep.Arrival.Pattern
	if rep.Arrival.MeanInterArrival > 0 {
		cfg.MeanInterArrival = rep.Arrival.MeanInterArrival
	}
	switch rep.Arrival.Pattern {
	case workload.ArrivalDiurnal:
		cfg.DiurnalPeriod = diurnalPeriod
		cfg.DiurnalPeakToTrough = rep.Arrival.PeakToTrough
	case workload.ArrivalBursty:
		cfg.BurstFraction = rep.Arrival.BurstFraction
		cfg.BurstApps = int(math.Round(rep.Arrival.BurstApps))
		if cfg.BurstApps < 1 {
			cfg.BurstApps = 1
		}
		cfg.BurstInterval = rep.Arrival.BurstInterval
		cfg.BurstSpread = rep.Arrival.BurstSpread
	}

	// Size law.
	cfg.JobSize = rep.Size.Law
	cfg.MaxTaskDuration = rep.Size.MaxDuration
	switch rep.Size.Law {
	case workload.SizePareto:
		cfg.ParetoAlpha = rep.Size.ParetoAlpha
		cfg.ParetoMinDuration = rep.Size.ParetoMin
	default:
		cfg.ShortTaskMedian = rep.Size.LognormalMedian
		cfg.LongTaskMedian = rep.Size.LognormalMedian
		cfg.TaskSigma = math.Max(rep.Size.LognormalSigma, sigmaFloor)
		cfg.LongTaskFraction = 0
	}

	cfg.GangSizes = append([]workload.GangMix(nil), rep.Gangs...)
	return cfg
}

// logMoments returns the mean and population standard deviation of the
// natural logs of strictly positive values; non-positive values are skipped.
func logMoments(values []float64) (mu, sigma float64) {
	n := 0
	for _, v := range values {
		if v > 0 {
			mu += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	mu /= float64(n)
	var ss float64
	for _, v := range values {
		if v > 0 {
			d := math.Log(v) - mu
			ss += d * d
		}
	}
	return mu, math.Sqrt(ss / float64(n))
}

func argMin(v []float64) int {
	best := 0
	for i := range v {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

func argMax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
