// Package solver computes the proportionally fair winner determination at
// the heart of the partial allocation mechanism (§5.1, Pseudocode 2 line 6):
// given each bidding app's valuation for a set of candidate GPU bundles,
// pick one bundle per app — subject to per-machine capacity — maximising the
// product of valuations (equivalently the sum of log valuations).
//
// The paper solves this with Gurobi; this package substitutes an exact
// branch-and-bound search for small instances and a greedy heuristic for
// large ones: starting from everyone's empty bundle, it repeatedly makes the
// single best-gaining upgrade that fits, and no bidder ever moves twice, so
// it is one walk over the upgrades sorted by gain. Auction instances are
// small (the offer is the currently free GPUs and only the worst 1−f fraction
// of apps bid), so the exact path covers the common case.
package solver

import (
	"themis/internal/cluster"
	"themis/internal/telemetry"
)

// Solver selection counters: the exact-vs-greedy split tells an operator
// whether auction instances are staying under ExactLimit (where the solution
// is provably optimal) or spilling into the heuristic. Single atomic adds —
// the solver runs inside the allocation-free auction round.
var (
	solveExactCount  = telemetry.Default().Counter("themis_solver_solves_total", "Winner-determination solves by mode.", telemetry.L("mode", "exact"))
	solveGreedyCount = telemetry.Default().Counter("themis_solver_solves_total", "Winner-determination solves by mode.", telemetry.L("mode", "greedy"))
)

// Row is one row of a bidder's valuation table (Figure 3b): a candidate
// subset of the offered GPUs and the finish-time fairness ρ the app estimates
// it would achieve with that subset added to its current allocation. It is
// the row the Agent writes (core.BidEntry is this type): the auction hands
// the solver the tables as they were bid, and bidder i is position i
// everywhere — the solver never learns whose table it is.
//
// The solver maximises a product of valuations where higher must mean
// better, so a row's valuation is the reciprocal of its (always positive) ρ:
// V = 1/ρ. That keeps the valuation homogeneous of degree one in the
// allocation, the property the mechanism's truthfulness relies on (§5.1):
// scaling an allocation k× improves ρ — and hence V — k×.
type Row struct {
	Alloc cluster.Alloc
	Rho   float64
}

// Options tunes the solver.
type Options struct {
	// ExactLimit is the largest search-space size (product of per-bidder
	// bundle counts) for which the exact branch-and-bound runs; larger
	// instances use the heuristic. Zero uses DefaultExactLimit.
	ExactLimit int
	// LocalSearchRounds bounds the moves of the heuristic. A move puts one
	// bidder on a better bundle and each bidder moves at most once, so a
	// bound at or above the bidder count never binds. Zero uses
	// DefaultLocalSearchRounds.
	LocalSearchRounds int
}

// Defaults for Options.
const (
	DefaultExactLimit        = 200000
	DefaultLocalSearchRounds = 64
)

func (o Options) withDefaults() Options {
	if o.ExactLimit <= 0 {
		o.ExactLimit = DefaultExactLimit
	}
	if o.LocalSearchRounds <= 0 {
		o.LocalSearchRounds = DefaultLocalSearchRounds
	}
	return o
}

// NoSkip is the Instance.Solve mask that leaves every bidder in the market.
const NoSkip = -1

// minValue is the smallest valuation a row enters the search with: 1/ρ of a
// starved app's ρ underflows towards zero, and the log objective must stay
// finite.
const minValue = 1e-12

// Solve runs the winner determination over the compiled bidders, leaving out
// bidder index skip (a valid index, or NoSkip for none), and returns the objective summed in
// bidder index order. The masked search sees exactly the bidder sequence a
// fresh compile of the remaining bidders would — same exact/greedy choice,
// same search and tie-break order — so its objective and choices are
// bit-identical to that solve's without re-reading a row. A greedy solve
// after an unmasked greedy one with the same LocalSearchRounds does not even
// search from scratch: it replays that solve's moves up to the masked
// bidder's and walks on from there. Choice reads the choices of the most
// recent Solve.
func (sc *Instance) Solve(opts Options, skip int) float64 {
	opts = opts.withDefaults()
	sc.skip = skip
	space := 1
	exact := true
	for i := 0; i < sc.n; i++ {
		if i == skip {
			continue
		}
		rows := int(sc.boff[i+1] - sc.boff[i])
		if space > opts.ExactLimit/rows {
			exact = false
			break
		}
		space *= rows
	}
	clear(sc.used) // the previous solve's allocation; empty bundles add no terms
	if exact && space <= opts.ExactLimit {
		solveExactCount.Inc()
		sc.solveExact()
	} else {
		solveGreedyCount.Inc()
		sc.solveGreedy(opts.LocalSearchRounds)
	}
	obj := 0.0
	for i := 0; i < sc.n; i++ {
		if i != skip {
			obj += sc.bundleAt(i, int32(sc.choice[i])).logValue
		}
	}
	return obj
}

// Choice returns the row index the most recent Solve chose for bidder i and
// the log of that row's valuation. A masked bidder sits on its empty row.
func (sc *Instance) Choice(i int) (row int, logValue float64) {
	row = sc.choice[i]
	return row, sc.bundleAt(i, int32(row)).logValue
}
