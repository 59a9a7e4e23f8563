package themis

import (
	"themis/internal/metrics"
	"themis/internal/schedulers"
	"themis/internal/sim"
)

// Report is the typed outcome of one simulation run: the headline Summary
// the paper's tables report, per-app records, the GPU-allocation timeline,
// and — when the Themis policy ran — the arbiter's auction telemetry.
type Report struct {
	// Summary holds the run's fairness (max/median ρ, Jain's index), JCT and
	// GPU-time metrics.
	Summary Summary
	// Apps holds one record per app, in AppID order.
	Apps []AppRecord
	// Timeline is every allocation change of the run, in time order.
	Timeline []AllocationEvent
	// Auction carries the Themis arbiter's statistics; nil under baselines.
	Auction *AuctionStats
	// Fragmentation is the run's time-weighted free-pool fragmentation
	// summary: mean free GPUs, the largest free blocks at the machine, rack
	// and fabric-domain levels, and the fragmentation score.
	Fragmentation FragStats

	result *sim.Result
}

// newReport wraps a simulator result into the public Report.
func newReport(res *sim.Result, policy SchedulerPolicy) *Report {
	r := &Report{
		Summary:       metrics.Summarize(res),
		Apps:          res.Apps,
		Timeline:      res.Timeline,
		Fragmentation: res.Fragmentation,
		result:        res,
	}
	if t, ok := policy.(*schedulers.Themis); ok && t.Arbiter() != nil {
		stats := t.Arbiter().Stats
		r.Auction = &stats
	}
	return r
}

// Finished returns the records of apps that completed within the run.
func (r *Report) Finished() []AppRecord { return r.result.Finished() }

// TimelineFor returns one app's allocation timeline, in time order
// (Figure 8's series).
func (r *Report) TimelineFor(id AppID) []AllocationEvent { return r.result.TimelineFor(id) }
