package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/solver"
	"themis/internal/workload"
)

// Award is what one bidder comes out of the auction with.
type Award struct {
	// PF is the intrinsically proportionally fair allocation the bidder would
	// have received before hidden payments: the Alloc of the bid row the
	// solver chose, shared with that row and only to be read.
	PF cluster.Alloc
	// Won is the bidder's final allocation after hidden payments, a map of
	// its own; nil when the bidder takes nothing.
	Won cluster.Alloc
	// C is c_i ∈ [0,1]: the fraction of its proportional-fair allocation the
	// bidder actually keeps (§5.1 step 2).
	C float64
}

// AuctionResult is the outcome of one partial-allocation auction.
type AuctionResult struct {
	// Awards is parallel to the bids: Awards[i] is what bids[i].App receives.
	// It is nil when there was nothing to auction (no bids, or an empty offer).
	Awards []Award
	// Leftover is the part of the offer not allocated to any bidder, to be
	// handed out work-conservingly (§5.1 step 3).
	Leftover cluster.Alloc
	// Objective is the log-product objective of the proportional-fair
	// solution.
	Objective float64
	// Payments is how long the hidden payments took: the masked re-solves
	// and scaling each award down by its c_i.
	Payments time.Duration
}

// AuctionOptions tunes the partial-allocation mechanism.
type AuctionOptions struct {
	// Solver configures the proportional-fair winner determination.
	Solver solver.Options
	// DisableHiddenPayments turns off the c_i scaling. This removes the
	// mechanism's truth-telling incentive and exists only for the ablation
	// benchmarks; production auctions keep it enabled.
	DisableHiddenPayments bool
}

// RunPartialAllocation executes the partial allocation mechanism of
// Pseudocode 2 over the given offer and bid tables: it computes the
// proportionally fair allocation maximising the product of valuations,
// scales every winner's allocation down by its hidden payment c_i, and
// reports whatever is left over.
//
// The bids are compiled into one solver instance for the whole auction —
// the compile is also where malformed rows are rejected: one unmasked solve
// gives the proportional-fair allocation, then one masked re-solve per
// bidder whose proportional-fair bundle is non-empty gives its c_i. A bidder
// that takes nothing constrains nobody — the market without it is the market
// with it — so its c_i is 1 without a solve (and scaling an empty bundle
// yields the empty bundle whatever c_i is).
func RunPartialAllocation(topo *cluster.Topology, offer cluster.Alloc, bids []BidTable, opts AuctionOptions) (AuctionResult, error) {
	var sc auctionScratch
	return runPartialAllocation(&sc, topo, offer, bids, opts)
}

// auctionScratch is what the Arbiter's auctions reuse from round to round:
// the compiled solver instance, the picker that scales awards down (and then
// holds the leftover pool), the awards, and the bidders' log valuations.
type auctionScratch struct {
	inst   solver.Instance
	picker placement.Picker
	awards []Award
	logs   []float64
}

// runPartialAllocation is RunPartialAllocation on the caller's scratch: the
// result's Awards are sc.awards, valid until the next call.
func runPartialAllocation(sc *auctionScratch, topo *cluster.Topology, offer cluster.Alloc, bids []BidTable, opts AuctionOptions) (AuctionResult, error) {
	res := AuctionResult{Leftover: offer.Clone()}
	if len(bids) == 0 || offer.Total() == 0 {
		return res, nil
	}
	inst := &sc.inst
	if err := inst.Compile(offer, len(bids), func(i int) []BidEntry { return bids[i].Entries }); err != nil {
		// The solver knows positions only; name the app on the way out.
		for _, b := range bids {
			if named := b.Validate(offer); named != nil {
				err = named
				break
			}
		}
		return res, fmt.Errorf("core: invalid bid: %w", err)
	}
	res.Objective = inst.Solve(opts.Solver, solver.NoSkip)
	// Read the full solution out before the masked re-solves overwrite the
	// instance's choices: each bidder's bundle and its log valuation.
	res.Awards = slices.Grow(sc.awards[:0], len(bids))[:len(bids)]
	logs := slices.Grow(sc.logs[:0], len(bids))[:len(bids)]
	sc.awards, sc.logs = res.Awards, logs
	for i := range bids {
		row, l := inst.Choice(i)
		res.Awards[i].PF = bids[i].Entries[row].Alloc
		logs[i] = l
	}

	paying := time.Now()
	for i := range res.Awards {
		aw := &res.Awards[i]
		aw.C = 1
		if !opts.DisableHiddenPayments && aw.PF.Total() > 0 {
			aw.C = hiddenPayment(inst, logs, i, opts.Solver)
		}
		aw.Won = scaleAllocation(&sc.picker, topo, aw.PF, aw.C)
		if err := res.Leftover.Debit(aw.Won); err != nil {
			return res, fmt.Errorf("core: auction allocated more than offered: %w", err)
		}
	}
	res.Payments = time.Since(paying)
	return res, nil
}

// hiddenPayment computes c_i for bidder i (Pseudocode 2 lines 7–8): the
// ratio of the other bidders' collective valuation in the market with bidder
// i present (logs holds every bidder's log valuation in the full solution)
// to their collective valuation in the market without it — inst re-solved
// with i masked out. The ratio is at most 1; the difference is the "payment"
// the bidder forfeits, which is what makes truthful reporting a dominant
// strategy.
func hiddenPayment(inst *solver.Instance, logs []float64, i int, opts solver.Options) float64 {
	if len(logs) == 1 {
		return 1 // a lone bidder pays nothing
	}
	// Both sides are summed in bidder index order, so repeated auctions
	// produce bit-identical payments.
	var withLog float64
	for j, l := range logs {
		if j != i {
			withLog += l
		}
	}
	withoutLog := inst.Solve(opts, i)
	ci := math.Exp(withLog - withoutLog)
	if ci > 1 {
		ci = 1
	}
	if ci < 0 {
		ci = 0
	}
	return ci
}

// scaleAllocation keeps a c_i fraction of a proportional-fair allocation,
// dropping GPUs while preserving locality: the kept subset is picked
// placement-sensitively from the original bundle. The result never shares
// pf's map (nil when nothing is kept).
func scaleAllocation(picker *placement.Picker, topo *cluster.Topology, pf cluster.Alloc, ci float64) cluster.Alloc {
	total := pf.Total()
	keep := int(math.Floor(ci*float64(total) + 1e-9))
	if keep <= 0 {
		return nil
	}
	if keep >= total {
		return pf.Clone()
	}
	return picker.PickInto(nil, topo, pf, nil, keep)
}

// LeftoverCandidate is one app in line for leftover GPUs.
type LeftoverCandidate struct {
	ID workload.AppID
	// Current is the app's existing allocation, this round's auction win
	// included. It is only read, on the candidate's first visit, into its
	// anchor.
	Current cluster.Alloc
	// Want is the number of additional GPUs the app can still use, counted
	// down as grants land; Chunk its preferred grant granularity (its gang
	// size — zero means one GPU at a time).
	Want, Chunk int
	// Grant accumulates what AllocateLeftovers hands the app: nil until the
	// first grant, the candidate's own map from then on.
	Grant cluster.Alloc

	// anchor is Current prepared for the picks, loaded on the first visit
	// and extended by every grant: it holds Current + Grant, what the app
	// holds by the next pick. pick logs a visit's pick. Their buffers outlive
	// the round when the caller reuses the candidate.
	anchor placement.Anchor
	pick   []placement.Take
}

// AllocateLeftovers distributes leftover GPUs placement-sensitively among
// candidate apps (§5.1 step 3): each grant extends an app's existing
// allocation — a machine it already uses when possible, otherwise the
// tightest-packing pick from what remains. Apps are visited in a
// deterministic rotation over order (the paper breaks ties randomly), each
// visit granting a chunk of up to Chunk GPUs so different apps' grants do not
// interleave on the same machines. The rotation is not the fair one it was
// meant to be: a sweep visits order[(rotation+k) % len], and both k and
// rotation advance after a grant, so each grant skips the next candidate.
// Four candidates that all keep wanting are granted as a, c, a, c, …, and b
// and d get nothing until a and c are sated (ROADMAP item 19).
//
// order lists the indices of cands in ID order, and cands hold only apps with
// Want > 0; each grant is accumulated in its candidate. The grants are drawn
// from the pool loaded into picker, and what it holds on return is what
// nobody could use.
func AllocateLeftovers(picker *placement.Picker, cands []LeftoverCandidate, order []int32) {
	if len(order) == 0 {
		return
	}
	rotation := 0
	for picker.Total() > 0 {
		progress := false
		for k := 0; k < len(order) && picker.Total() > 0; k++ {
			c := &cands[order[(rotation+k)%len(order)]]
			if c.Want <= 0 {
				continue
			}
			// A locality-best draw of at least one GPU from a non-empty pool
			// always takes some, so the first visit is the first grant.
			if c.Grant == nil {
				c.anchor.Load(picker.Topology(), c.Current)
				c.Grant = cluster.NewAlloc()
			}
			c.pick = c.pick[:0]
			picker.DrawTakesAt(&c.pick, &c.anchor, min(max(c.Chunk, 1), c.Want), false)
			for _, t := range c.pick {
				c.Grant[t.Machine] += t.GPUs
				c.Want -= t.GPUs
			}
			c.anchor.Add(c.pick)
			rotation++
			progress = true
		}
		if !progress {
			break // nobody can take more
		}
	}
}
