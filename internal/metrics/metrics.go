// Package metrics computes the evaluation metrics the paper reports (§8.1):
// worst-case ("max") finish-time fairness, Jain's fairness index over ρ,
// placement-score distributions, app-completion-time distributions and GPU
// time, all derived from a simulation Result.
//
// This package is about the *scheduling outcome* of a finished simulation.
// Operational metrics of a *running deployment* — auction round timings, RPC
// latencies, served on /metrics — are internal/telemetry's job; the two share
// no code because they answer different questions ("was the schedule fair?"
// vs "is the daemon healthy right now?").
package metrics

import (
	"math"
	"sort"

	"themis/internal/sim"
	"themis/internal/workload"
)

// FairnessValues extracts the realised finish-time fairness (ρ) of every
// finished app in the result.
func FairnessValues(r *sim.Result) []float64 {
	var out []float64
	for i := range r.Apps {
		if rec := &r.Apps[i]; finished(rec) {
			out = append(out, rec.FinishTimeFairness)
		}
	}
	return out
}

// finished reports whether rec is one of Result.Finished's records; the
// metrics read the records in place rather than through that copy.
func finished(rec *sim.AppRecord) bool { return rec.FinishTime != workload.NotFinished }

// MaxFairness returns the worst (largest) finish-time fairness across
// finished apps — the paper's "Max Fairness" metric. Lower is fairer.
func MaxFairness(r *sim.Result) float64 {
	return Max(FairnessValues(r))
}

// MedianFairness returns the median ρ across finished apps.
func MedianFairness(r *sim.Result) float64 {
	return Percentile(FairnessValues(r), 0.5)
}

// MinFairness returns the best (smallest) ρ across finished apps.
func MinFairness(r *sim.Result) float64 {
	vals := FairnessValues(r)
	if len(vals) == 0 {
		return 0
	}
	min := vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// JainsIndex computes Jain's fairness index over the per-app ρ values:
// (Σx)² / (n·Σx²). It is 1 when all apps have identical ρ and approaches
// 1/n as the distribution becomes maximally skewed.
func JainsIndex(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	return (sum * sum) / (float64(len(values)) * sumSq)
}

// JainsIndexOf computes Jain's index over the result's finished-app ρ values.
func JainsIndexOf(r *sim.Result) float64 { return JainsIndex(FairnessValues(r)) }

// CompletionTimes returns the completion times (minutes) of finished apps.
func CompletionTimes(r *sim.Result) []float64 {
	var out []float64
	for i := range r.Apps {
		if rec := &r.Apps[i]; finished(rec) {
			out = append(out, rec.CompletionTime)
		}
	}
	return out
}

// MeanCompletionTime returns the average app completion time of finished apps.
func MeanCompletionTime(r *sim.Result) float64 { return Mean(CompletionTimes(r)) }

// PlacementScores returns the time-weighted average placement score of every
// app that held GPUs during the run.
func PlacementScores(r *sim.Result) []float64 {
	var out []float64
	for _, rec := range r.Apps {
		if rec.PlacementScore > 0 {
			out = append(out, rec.PlacementScore)
		}
	}
	return out
}

// GPUTime returns the cluster's total GPU time (GPU-minutes in use) — the
// paper's efficiency metric; for the same workload, a scheduler with lower
// GPU time used the cluster more efficiently.
func GPUTime(r *sim.Result) float64 { return r.ClusterGPUTime }

// IdealMaxFairness returns the ρ an ideal scheduler would achieve at the
// observed peak contention: with contention c (demand / capacity), every app
// can at best get a 1/c share, so ρ_ideal ≈ c (the paper reports 4.76 for
// its testbed workload).
func IdealMaxFairness(peakContention float64) float64 {
	if peakContention < 1 {
		return 1
	}
	return peakContention
}

// CDF is an empirical cumulative distribution: Values[i] is the largest
// value within the bottom Fractions[i] of the distribution.
type CDF struct {
	Values    []float64
	Fractions []float64
}

// NewCDF builds an empirical CDF over values with the given number of
// points. It returns an empty CDF for empty input.
func NewCDF(values []float64, points int) CDF {
	if len(values) == 0 || points <= 0 {
		return CDF{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	cdf := CDF{Values: make([]float64, points), Fractions: make([]float64, points)}
	for i := 0; i < points; i++ {
		q := float64(i+1) / float64(points)
		cdf.Values[i] = Percentile(sorted, q)
		cdf.Fractions[i] = q
	}
	return cdf
}

// Mean returns the arithmetic mean of values (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Max returns the maximum of values (0 for empty input).
func Max(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	max := values[0]
	for _, v := range values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the q-quantile (0 < q ≤ 1) of values; the input need
// not be sorted.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Summary condenses one simulation run into the headline numbers the
// comparison figures plot.
type Summary struct {
	Policy             string
	AppsFinished       int
	AppsTotal          int
	MaxFairness        float64
	MedianFairness     float64
	MinFairness        float64
	JainsIndex         float64
	MeanCompletionTime float64
	P95CompletionTime  float64
	MeanPlacementScore float64
	GPUTime            float64
	PeakContention     float64
	Makespan           float64
}

// Summarize computes a Summary from a simulation result.
func Summarize(r *sim.Result) Summary {
	done := 0
	for i := range r.Apps {
		if finished(&r.Apps[i]) {
			done++
		}
	}
	return Summary{
		Policy:             r.Policy,
		AppsFinished:       done,
		AppsTotal:          len(r.Apps),
		MaxFairness:        MaxFairness(r),
		MedianFairness:     MedianFairness(r),
		MinFairness:        MinFairness(r),
		JainsIndex:         JainsIndexOf(r),
		MeanCompletionTime: MeanCompletionTime(r),
		P95CompletionTime:  Percentile(CompletionTimes(r), 0.95),
		MeanPlacementScore: Mean(PlacementScores(r)),
		GPUTime:            GPUTime(r),
		PeakContention:     r.PeakContention,
		Makespan:           r.Makespan,
	}
}
