package fit

import (
	"math"

	"themis/internal/workload"
)

// Job-size law selection: lognormal vs Pareto maximum likelihood over
// per-task serial durations (TotalWork / GangSize, in minutes), chosen by
// AIC, with Kolmogorov–Smirnov distances reported for both candidates.

// minSizeSamples is the sample size below which model selection is skipped
// and the lognormal default is kept (both laws fit two parameters; with
// fewer than this many durations AIC is noise).
const minSizeSamples = 8

// CandidateFit is the goodness-of-fit evidence for one size-law candidate.
type CandidateFit struct {
	// KS is the one-sample Kolmogorov–Smirnov distance between the data and
	// the fitted law.
	KS float64 `json:"ks"`
	// LogLik is the maximised log-likelihood.
	LogLik float64 `json:"log_lik"`
	// AIC is 2k − 2·LogLik with k = 2 parameters; lower is better.
	AIC float64 `json:"aic"`
	// OK marks a candidate whose MLE exists for this sample (a degenerate
	// all-equal sample has no Pareto MLE, for example).
	OK bool `json:"ok"`
}

// SizeFit is the fitted job-size law plus both candidates' evidence.
type SizeFit struct {
	// Law is the selected duration law.
	Law workload.SizePattern `json:"law"`
	// Samples is the number of task durations the fit saw.
	Samples int `json:"samples"`
	// MaxDuration is the largest observed duration (minutes); fitted configs
	// truncate there.
	MaxDuration float64 `json:"max_duration"`

	// LognormalMedian and LognormalSigma are the lognormal MLE (median in
	// minutes, log-space standard deviation).
	LognormalMedian float64      `json:"lognormal_median,omitempty"`
	LognormalSigma  float64      `json:"lognormal_sigma,omitempty"`
	Lognormal       CandidateFit `json:"lognormal"`

	// ParetoAlpha and ParetoMin are the Pareto MLE (tail index and scale in
	// minutes).
	ParetoAlpha float64      `json:"pareto_alpha,omitempty"`
	ParetoMin   float64      `json:"pareto_min,omitempty"`
	Pareto      CandidateFit `json:"pareto"`
}

// fitSize fits both candidate laws to the sorted positive durations and
// selects by AIC.
func fitSize(durations []float64, prov *Provenance) SizeFit {
	fit := SizeFit{Law: workload.SizeLognormal, Samples: len(durations)}
	if len(durations) == 0 {
		prov.note("no task durations: size law left to defaults")
		return fit
	}
	fit.MaxDuration = durations[len(durations)-1]
	n := float64(len(durations))

	// Lognormal MLE: mean and population sd of the logs.
	mu, sigma := logMoments(durations)
	fit.LognormalMedian = math.Exp(mu)
	fit.LognormalSigma = sigma
	if sigma > 0 {
		var sumLog float64
		for _, d := range durations {
			sumLog += math.Log(d)
		}
		ll := -n*math.Log(sigma*math.Sqrt(2*math.Pi)) - n/2 - sumLog
		fit.Lognormal = CandidateFit{
			KS: ksDistance(durations, func(x float64) float64 {
				return normalCDF((math.Log(x) - mu) / sigma)
			}),
			LogLik: ll,
			AIC:    4 - 2*ll,
			OK:     true,
		}
	}

	// Pareto MLE: scale = sample minimum, shape from the log-ratio sum.
	xmin := durations[0]
	var logRatio float64
	for _, d := range durations {
		logRatio += math.Log(d / xmin)
	}
	if xmin > 0 && logRatio > 0 {
		alpha := n / logRatio
		fit.ParetoAlpha = alpha
		fit.ParetoMin = xmin
		ll := n*math.Log(alpha) + n*alpha*math.Log(xmin) - (alpha+1)*(logRatio+n*math.Log(xmin))
		fit.Pareto = CandidateFit{
			KS: ksDistance(durations, func(x float64) float64 {
				if x < xmin {
					return 0
				}
				return 1 - math.Pow(xmin/x, alpha)
			}),
			LogLik: ll,
			AIC:    4 - 2*ll,
			OK:     true,
		}
	}

	switch {
	case len(durations) < minSizeSamples:
		prov.note("too few task durations for size-law selection: lognormal assumed")
	case fit.Lognormal.OK && fit.Pareto.OK && fit.Pareto.AIC < fit.Lognormal.AIC:
		fit.Law = workload.SizePareto
	case !fit.Lognormal.OK && fit.Pareto.OK:
		fit.Law = workload.SizePareto
	}
	return fit
}

// normalCDF is the standard normal cumulative distribution.
func normalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// ksDistance computes the one-sample Kolmogorov–Smirnov statistic between
// sorted data and a model CDF.
func ksDistance(sorted []float64, cdf func(float64) float64) float64 {
	n := float64(len(sorted))
	if n == 0 {
		return 0
	}
	var d float64
	for i, x := range sorted {
		f := cdf(x)
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}
