package core

import "themis/internal/cluster"

// Entry points into the estimator that only tests call: each loads a holding
// the way the probe and bid paths do and reads one quantity from it.

// TShared estimates the app's total shared running time if, from time now
// onward, it holds the aggregate allocation total until completion (§5.2
// step 4): elapsed time so far plus the time for the quickest constituent
// job to finish given a greedy placement-sensitive split of total across
// jobs. With work remaining it returns Unbounded·(1+elapsed) when total is
// empty, and Unbounded when the split feeds no job.
func (e *RhoEstimator) TShared(now float64, total cluster.Alloc) float64 {
	e.beginCall(total)
	return e.tShared(now)
}

// Rho estimates the finish-time fairness metric ρ = T_SH / T_ID the app
// would achieve if extra were added to current and held until completion
// (§5.2 steps 1–7). Perturbation, if configured, is applied to the result.
func (e *RhoEstimator) Rho(now float64, current, extra cluster.Alloc) float64 {
	e.beginCall(current)
	e.picker.Credit(extra)
	return e.rho(now)
}

// FinalRho returns the realised finish-time fairness of a finished app:
// actual shared running time over ideal running time. For unfinished apps it
// returns the estimate at time now.
func (e *RhoEstimator) FinalRho(now float64, current cluster.Alloc) float64 {
	if e.App.Finished() {
		return (e.App.FinishedAt - e.App.SubmitTime) / e.TIdeal()
	}
	return e.CurrentRho(now, current)
}
