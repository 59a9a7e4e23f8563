package core

import (
	"slices"

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
	Tuner     hyperparam.Tuner
	Estimator *RhoEstimator

	// MaxBidRows caps the bid table size; zero means DefaultMaxBidRows.
	MaxBidRows int
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
	return &Agent{App: app, Tuner: tuner, Estimator: est}
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
	return ag.App.UnmetWidth(current.Total())
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
	var v BidValuator
	return ag.prepareBidInto(now, offer, current, &v, nil)
}

// prepareBidInto is PrepareBid with caller-owned scratch: the valuator
// provides the candidate-size buffer and the picker, and entries is the
// (possibly recycled) backing buffer for the table rows, whose slots' maps
// are reused (nextRow). The candidate enumeration order and the valuation
// math are exactly PrepareBid's — the batched and standalone paths must stay
// bit-identical.
func (ag *Agent) prepareBidInto(now float64, offer, current cluster.Alloc, v *BidValuator, entries []BidEntry) BidTable {
	// One job context values every row: nothing below changes job state.
	ag.Estimator.beginCall()
	rows := nextRow(entries[:0])
	rows[0].Rho = ag.Estimator.rho(now, current, nil)
	gang := ag.GangSize()
	sizes := v.candidateSizes(offer.Total(), ag.UnmetParallelism(current), gang)
	maxRows := ag.MaxBidRows
	if maxRows <= 0 {
		maxRows = DefaultMaxBidRows
	}
	if len(sizes) > 0 {
		v.picker.Load(ag.Estimator.Topo, offer)
	}
	for _, size := range sizes {
		n := len(rows)
		if n >= maxRows {
			break
		}
		rows = nextRow(rows)
		row := &rows[n]
		// Every candidate is drawn from the whole offer: the draw is handed
		// back before the next.
		if ag.PlacementBlind {
			v.picker.DrawSpread(row.Alloc, size)
		} else {
			v.picker.Draw(row.Alloc, current, size)
		}
		v.picker.Credit(row.Alloc)
		// Dedup against the rows already accepted (replacing the old
		// canonical-Key string set: Equal over ≤MaxBidRows rows is cheaper
		// than rendering keys and allocates nothing). The empty row at
		// index 0 can never match: candidates here have a non-zero total.
		dup := func(e BidEntry) bool { return e.Alloc.Equal(row.Alloc) }
		if row.Alloc.Total() == 0 || slices.ContainsFunc(rows[:n], dup) {
			rows = rows[:n] // the slot keeps its map for the next candidate
			continue
		}
		row.Rho = ag.Estimator.rho(now, current, row.Alloc)
	}
	return BidTable{App: ag.App.ID, Entries: rows}
}

// GangSize returns the gang size the app's active jobs typically need: the
// mode across active jobs (the larger size on a tie), falling back to 1. Bid
// tables step by it and the Arbiter uses it as the chunk size for leftover
// grants. One pass tallies the app's few distinct sizes on the stack and keeps
// the lexicographic maximum of (count, size) as the counts grow.
func (ag *Agent) GangSize() int {
	type sizeCount struct{ size, n int }
	var buf [16]sizeCount
	tally, best := buf[:0], sizeCount{size: 1}
	for _, j := range ag.App.Jobs {
		if !j.Active() {
			continue
		}
		k := slices.IndexFunc(tally, func(t sizeCount) bool { return t.size == j.GangSize })
		if k < 0 {
			k, tally = len(tally), append(tally, sizeCount{size: j.GangSize})
		}
		t := &tally[k]
		t.n++
		if t.n > best.n || t.n == best.n && t.size > best.size {
			best = *t
		}
	}
	return best.size
}
