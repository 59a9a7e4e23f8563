package core

import (
	"fmt"
	"math"
	"sort"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/solver"
	"themis/internal/workload"
)

// AuctionResult is the outcome of one partial-allocation auction.
type AuctionResult struct {
	// Winners holds each bidding app's final allocation after hidden
	// payments (possibly empty).
	Winners map[workload.AppID]cluster.Alloc
	// ProportionalFair holds the intrinsically proportionally fair
	// allocation each app would have received before hidden payments.
	ProportionalFair map[workload.AppID]cluster.Alloc
	// HiddenPayment holds each app's c_i ∈ [0,1]: the fraction of its
	// proportional-fair allocation it actually keeps (§5.1 step 2).
	HiddenPayment map[workload.AppID]float64
	// Leftover is the part of the offer not allocated to any bidder, to be
	// handed out work-conservingly (§5.1 step 3).
	Leftover cluster.Alloc
	// Objective is the log-product objective of the proportional-fair
	// solution.
	Objective float64
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
// The bids are compiled into one solver instance for the whole auction: one
// unmasked solve gives the proportional-fair allocation, then one masked
// re-solve per bidder whose proportional-fair bundle is non-empty gives its
// c_i. A bidder that takes nothing constrains nobody — the market without it
// is the market with it — so its c_i is 1 without a solve (and scaling an
// empty bundle yields the empty bundle whatever c_i is).
func RunPartialAllocation(topo *cluster.Topology, offer cluster.Alloc, bids []BidTable, opts AuctionOptions) (AuctionResult, error) {
	res := AuctionResult{
		Winners:          make(map[workload.AppID]cluster.Alloc),
		ProportionalFair: make(map[workload.AppID]cluster.Alloc),
		HiddenPayment:    make(map[workload.AppID]float64),
		Leftover:         offer.Clone(),
	}
	if len(bids) == 0 || offer.Total() == 0 {
		return res, nil
	}
	for _, b := range bids {
		if err := b.Validate(offer); err != nil {
			return res, fmt.Errorf("core: invalid bid: %w", err)
		}
	}

	bidders := make([]solver.Bidder, 0, len(bids))
	for _, b := range bids {
		bidders = append(bidders, toBidder(b))
	}
	inst, err := solver.Compile(offer, bidders)
	if err != nil {
		return res, fmt.Errorf("core: proportional-fair solve: %w", err)
	}
	defer inst.Release()
	res.Objective = inst.Solve(opts.Solver, solver.NoSkip)
	// Read the full solution out before the masked re-solves overwrite the
	// instance's choices: each bidder's bundle and its log valuation.
	full := inst.Assignment()
	logs := make([]float64, len(bids))
	for i, b := range bids {
		logs[i] = math.Log(full[string(b.App)].Value)
	}

	var picker placement.Picker
	for i, b := range bids {
		id := b.App
		pf := full[string(id)].Alloc
		res.ProportionalFair[id] = pf
		ci := 1.0
		if !opts.DisableHiddenPayments && pf.Total() > 0 {
			ci = hiddenPayment(inst, logs, i, opts.Solver)
		}
		res.HiddenPayment[id] = ci
		final := scaleAllocation(&picker, topo, pf, ci)
		res.Winners[id] = final
		if err := res.Leftover.Debit(final); err != nil {
			return res, fmt.Errorf("core: auction allocated more than offered: %w", err)
		}
	}
	return res, nil
}

// toBidder converts a bid table into a solver bidder using V = 1/ρ values.
func toBidder(b BidTable) solver.Bidder {
	out := solver.Bidder{ID: string(b.App)}
	for _, e := range b.Entries {
		out.Bundles = append(out.Bundles, solver.Bundle{Alloc: e.Alloc, Value: e.Value()})
	}
	return out
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
// placement-sensitively from the original bundle.
func scaleAllocation(picker *placement.Picker, topo *cluster.Topology, pf cluster.Alloc, ci float64) cluster.Alloc {
	total := pf.Total()
	if total == 0 {
		return cluster.NewAlloc()
	}
	keep := int(math.Floor(ci*float64(total) + 1e-9))
	if keep >= total {
		return pf.Clone()
	}
	if keep <= 0 {
		return cluster.NewAlloc()
	}
	return picker.PickInto(nil, topo, pf, nil, keep)
}

// AllocateLeftovers distributes leftover GPUs placement-sensitively among
// candidate apps (§5.1 step 3): each grant extends an app's existing
// allocation — a machine it already uses when possible, otherwise the
// tightest-packing pick from what remains. Apps are visited in a
// deterministic rotation (the paper breaks ties randomly; a rotation keeps
// simulations reproducible without biasing any app), receiving a chunk of up
// to chunkSize GPUs per visit so different apps' grants do not interleave on
// the same machines.
//
// currents maps each candidate app to its existing allocation; wants maps it
// to the maximum number of additional GPUs it can still use; chunks maps it
// to the app's preferred grant granularity (its gang size — zero means one
// GPU at a time). The function returns the per-app grants. leftover is the
// pool the grants are drawn from: it is debited in place, so it must be the
// caller's to change, and what it holds on return is what nobody could use.
func AllocateLeftovers(topo *cluster.Topology, leftover cluster.Alloc, currents map[workload.AppID]cluster.Alloc, wants, chunks map[workload.AppID]int) map[workload.AppID]cluster.Alloc {
	grants := make(map[workload.AppID]cluster.Alloc)
	apps := make([]workload.AppID, 0, len(currents))
	for id := range currents {
		if wants[id] > 0 {
			apps = append(apps, id)
		}
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	if len(apps) == 0 {
		return grants
	}
	granted := make(map[workload.AppID]int)
	rotation := 0
	var picker placement.Picker
	var pick cluster.Alloc // scratch: Add below copies out of it
	for len(leftover) > 0 {
		progress := false
		for k := 0; k < len(apps) && len(leftover) > 0; k++ {
			id := apps[(rotation+k)%len(apps)]
			want := wants[id] - granted[id]
			if want <= 0 {
				continue
			}
			chunk := chunks[id]
			if chunk <= 0 {
				chunk = 1
			}
			if chunk > want {
				chunk = want
			}
			anchor := currents[id].Add(grants[id])
			pick = picker.Draw(pick, topo, leftover, anchor, chunk)
			if pick.Total() == 0 {
				continue
			}
			grants[id] = grants[id].Add(pick)
			granted[id] += pick.Total()
			rotation++
			progress = true
		}
		if !progress {
			break // nobody can take more
		}
	}
	return grants
}
