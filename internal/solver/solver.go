// Package solver computes the proportionally fair winner determination at
// the heart of the partial allocation mechanism (§5.1, Pseudocode 2 line 6):
// given each bidding app's valuation for a set of candidate GPU bundles,
// pick one bundle per app — subject to per-machine capacity — maximising the
// product of valuations (equivalently the sum of log valuations).
//
// The paper solves this with Gurobi; this package substitutes an exact
// branch-and-bound search for small instances and a greedy + local-search
// heuristic for large ones. Auction instances are small (the offer is the
// currently free GPUs and only the worst 1−f fraction of apps bid), so the
// exact path covers the common case.
package solver

import (
	"fmt"
	"math"

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

// Bundle is one row of a bidder's valuation table: an allocation and the
// bidder's value for receiving it (higher is better, must be positive).
type Bundle struct {
	Alloc cluster.Alloc
	Value float64
}

// Bidder is one participating app with its candidate bundles. Bundles should
// include a zero-allocation row describing the bidder's value if it wins
// nothing; the solver works on a copy with one added where missing and
// non-positive values clamped to a tiny epsilon.
type Bidder struct {
	ID      string
	Bundles []Bundle
}

// Assignment maps bidder ID to the chosen bundle.
type Assignment map[string]Bundle

// Objective returns the sum of log valuations of an assignment.
func (a Assignment) Objective() float64 {
	var sum float64
	for _, b := range a {
		sum += math.Log(b.Value)
	}
	return sum
}

// TotalAlloc returns the union of allocations in the assignment.
func (a Assignment) TotalAlloc() cluster.Alloc {
	out := cluster.NewAlloc()
	for _, b := range a {
		out = out.Add(b.Alloc)
	}
	return out
}

// Options tunes the solver.
type Options struct {
	// ExactLimit is the largest search-space size (product of per-bidder
	// bundle counts) for which the exact branch-and-bound runs; larger
	// instances use the heuristic. Zero uses DefaultExactLimit.
	ExactLimit int
	// LocalSearchRounds bounds the improvement rounds of the heuristic.
	// Zero uses DefaultLocalSearchRounds.
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

// Solve picks one bundle per bidder maximising Σ log(value) subject to the
// per-machine capacity. Every bidder appears in the result (possibly with
// its empty bundle). The second return value is the achieved objective,
// summed in bidder index order so repeated runs return identical bits.
//
// Solve never mutates the caller's bidders: normalization deep-copies each
// bidder's bundle slice into pooled scratch storage before clamping values
// or appending the empty row. It is Compile + one unmasked Instance.Solve;
// callers that solve the same bids repeatedly (the auction's hidden
// payments) hold the Instance instead.
func Solve(capacity cluster.Alloc, bidders []Bidder, opts Options) (Assignment, float64, error) {
	sc, err := Compile(capacity, bidders)
	if err != nil {
		return nil, 0, err
	}
	defer sc.Release()
	obj := sc.Solve(opts, NoSkip)
	return sc.Assignment(), obj, nil
}

// NoSkip is the Instance.Solve mask that leaves every bidder in the market.
const NoSkip = -1

// Compile validates the bidders against capacity, normalises them and builds
// the dense instance (see dense.go) once. The Instance borrows pooled
// storage: the caller owns it until Release and must not share it across
// goroutines; concurrent auctions each compile their own.
func Compile(capacity cluster.Alloc, bidders []Bidder) (*Instance, error) {
	sc := scratchPool.Get().(*Instance)
	if err := sc.validate(capacity, bidders); err != nil {
		sc.Release()
		return nil, err
	}
	sc.normalize(bidders)
	sc.compile(capacity)
	return sc, nil
}

// Solve runs the winner determination over the compiled bidders, leaving out
// bidder index skip (a valid index, or NoSkip for none), and returns the objective summed in
// bidder index order. The masked search sees exactly the bidder sequence a
// fresh Solve over the remaining bidders would — same exact/greedy choice,
// same search and tie-break order — so its objective and choices are
// bit-identical to that solve's without re-validating or re-compiling.
// Assignment reads the choices of the most recent Solve.
func (sc *Instance) Solve(opts Options, skip int) float64 {
	opts = opts.withDefaults()
	sc.skip = skip
	space := 1
	exact := true
	for i, b := range sc.norm {
		if i == skip {
			continue
		}
		if space > opts.ExactLimit/len(b.Bundles) {
			exact = false
			break
		}
		space *= len(b.Bundles)
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
	for i := range sc.norm {
		if i != skip {
			obj += sc.bundleAt(i, int32(sc.choice[i])).logValue
		}
	}
	return obj
}

func (sc *Instance) validate(capacity cluster.Alloc, bidders []Bidder) error {
	if sc.seen == nil {
		sc.seen = make(map[string]bool, len(bidders))
	}
	clear(sc.seen)
	seen := sc.seen
	for _, b := range bidders {
		if b.ID == "" {
			return fmt.Errorf("solver: bidder with empty ID")
		}
		if seen[b.ID] {
			return fmt.Errorf("solver: duplicate bidder %q", b.ID)
		}
		seen[b.ID] = true
		for _, bun := range b.Bundles {
			for m, n := range bun.Alloc {
				if n < 0 {
					return fmt.Errorf("solver: bidder %q bundle with negative GPUs on machine %d", b.ID, m)
				}
				if n > capacity[m] {
					return fmt.Errorf("solver: bidder %q bundle wants %d GPUs on machine %d, capacity %d", b.ID, n, m, capacity[m])
				}
			}
		}
	}
	return nil
}
