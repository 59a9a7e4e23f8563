package core

import (
	"themis/internal/cluster"
	"themis/internal/estimator"
	"themis/internal/hyperparam"
	"themis/internal/workload"
)

// Agent is the per-app intermediary between the app's own scheduler (its
// hyperparameter tuner) and the cross-app Arbiter (§3.1). It answers the
// Arbiter's ρ probes and prepares bid tables for offers, using the narrow
// API the tuner exposes: per-job work left, per-job maximum parallelism and
// the app's placement-sensitivity profile.
type Agent struct {
	App       *workload.App
	Estimator *RhoEstimator

	// PlacementBlind makes the Agent bid on arbitrarily spread GPU subsets
	// instead of placement-packed ones. It exists only for the ablation
	// benchmarks that quantify the value of placement-aware bidding; the
	// real system always bids placement-sensitively.
	PlacementBlind bool
}

// DefaultMaxBidRows bounds the size of a prepared bid table.
const DefaultMaxBidRows = 12

// NewAgent builds an Agent for app on topo, with an optional error model for
// the Figure 11 sensitivity study.
func NewAgent(topo *cluster.Topology, app *workload.App, tuner hyperparam.Tuner, errs *estimator.ErrorModel) *Agent {
	est := NewRhoEstimator(topo, app, tuner)
	est.Errors = errs
	return &Agent{App: app, Estimator: est}
}

// ID returns the app's identifier.
func (ag *Agent) ID() workload.AppID { return ag.App.ID }

// ReportRho answers the Arbiter's probe (Figure 3 step 1) with the app's
// current finish-time fairness estimate given its present allocation.
func (ag *Agent) ReportRho(now float64, current cluster.Alloc) float64 {
	return ag.Estimator.CurrentRho(now, current)
}

// UnmetParallelism returns how many more GPUs the app could still use: the
// sum of its active jobs' maximum parallelism minus what it already holds.
func (ag *Agent) UnmetParallelism(current cluster.Alloc) int {
	e := ag.Estimator
	e.refresh()
	return max(e.width-current.Total(), 0)
}

// PrepareBid responds to an offer (Figure 3 step 3): it enumerates candidate
// subsets of the offered GPUs — placement-sensitively anchored on the app's
// existing allocation — and values each subset with the ρ the app would
// achieve after receiving it. The empty subset (current ρ) is always
// included.
//
// A standalone call allocates its own scratch; the Arbiter batches the
// round's calls through one BidValuator instead (same result, recycled
// buffers).
func (ag *Agent) PrepareBid(now float64, offer, current cluster.Alloc) BidTable {
	v := BidValuator{offer: offer}
	return ag.prepareBidInto(now, current, &v, nil)
}

// prepareBidInto is PrepareBid of the valuator's offer with caller-owned
// scratch: the valuator provides the candidate-size buffer, the pool and, in
// a batched round, the unanchored draws, and entries is the (possibly
// recycled) backing buffer for the table rows, whose slots' maps are reused
// (nextRow). The candidate enumeration order and the valuation math are
// exactly PrepareBid's — the batched and standalone paths must stay
// bit-identical.
func (ag *Agent) prepareBidInto(now float64, current cluster.Alloc, v *BidValuator, entries []BidEntry) BidTable {
	// One job context and one load of current value every row: nothing below
	// changes job state, and each row leaves the estimator's pool as it was.
	e := ag.Estimator
	e.beginCall(current)
	rows := nextRow(entries[:0])
	rows[0].Rho = e.rho(now)
	unmet := max(e.width-e.picker.Total(), 0)
	if unmet == 0 {
		return BidTable{App: ag.App.ID, Entries: rows}
	}
	pool := v.pool(e.Topo)
	e.anchor.Load(e.Topo, current)
	unanchored := v.shared != nil && !ag.PlacementBlind && len(e.anchor.Entries()) == 0
	// Every candidate is drawn from the whole offer (the draw is handed back
	// before the next), no size exceeds it, an unconstrained draw fills its
	// size and the sizes are distinct: so every row holds exactly its size,
	// and no row is empty or equal to another (TestBidRowsHoldTheirSizes).
	for _, size := range v.candidateSizes(pool.Total(), unmet, e.gang) {
		if len(rows) >= DefaultMaxBidRows {
			break
		}
		rows = nextRow(rows)
		row := &rows[len(rows)-1]
		log := e.readySplit()
		if unanchored {
			*log = append(*log, v.unanchoredDraw(size)...)
		} else {
			pool.DrawTakesAt(log, &e.anchor, size, ag.PlacementBlind)
			pool.CreditTakes(*log, 1)
		}
		for _, t := range *log {
			row.Alloc[t.Machine] += t.GPUs
		}
		row.Rho = e.rho(now)
	}
	return BidTable{App: ag.App.ID, Entries: rows}
}

// GangSize returns the gang size the app's active jobs typically need: the
// mode across active jobs (the larger size on a tie), falling back to 1. Bid
// tables step by it and the Arbiter uses it as the chunk size for leftover
// grants. It is read from the job context.
func (ag *Agent) GangSize() int {
	e := ag.Estimator
	e.refresh()
	return e.gang
}
