package core

import (
	"sort"

	"themis/internal/cluster"
	"themis/internal/placement"
)

// BidValuator batches bid-table preparation across the participants of one
// auction round, reusing the scratch that a standalone PrepareBid call
// allocates per app: the candidate-size set and slice, the per-participant
// entry buffers and the bid slice itself. The Arbiter owns one valuator and
// runs every round's step 3 through it, so in steady state bid preparation
// recycles one round's buffers into the next instead of leaving them to the
// collector.
//
// Batching is an optimisation only: the tables produced are bit-identical to
// per-app PrepareBid calls (same candidate enumeration order, same float
// math), which TestBatchedBidEquivalence pins. A valuator must not be shared
// across goroutines; each Arbiter (and each sweep worker's policy) owns its
// own.
type BidValuator struct {
	sizeSet map[int]bool
	sizes   []int
	bids    []BidTable
	entries [][]BidEntry

	// arena lends the round's candidate Alloc maps (the per-entry
	// allocations that previously escaped into auction results and defeated
	// pooling). The Arbiter resets it once the round's grants have been
	// applied; everything kept past the round is cloned out first.
	arena *cluster.AllocArena
	// picker reuses placement scratch across candidate picks.
	picker placement.Picker
}

// Arena returns the valuator's round-scoped allocation arena, creating it on
// first use.
func (v *BidValuator) Arena() *cluster.AllocArena {
	if v.arena == nil {
		v.arena = cluster.NewAllocArena()
	}
	return v.arena
}

// EndRound recycles every candidate allocation lent during the round. Call
// only after the round's results have been applied (or cloned): the bid
// tables returned by prepareBids alias the arena's maps.
func (v *BidValuator) EndRound() {
	if v.arena != nil {
		v.arena.Reset()
	}
}

// prepareBids values an offer for every bidding participant. In-process
// *Agent bidders run through the scratch-reusing path; any other Bidder
// (e.g. the rpc package's remote agents) falls back to its own PrepareBid.
// The returned slice and the Entries backing arrays are owned by the
// valuator and valid until the next prepareBids call — exactly the lifetime
// OfferResources needs (the auction copies what it keeps).
func (v *BidValuator) prepareBids(now float64, offer cluster.Alloc, bidding []probedAgent) []BidTable {
	bids := v.bids[:0]
	for len(v.entries) < len(bidding) {
		v.entries = append(v.entries, nil)
	}
	for i, p := range bidding {
		if ag, ok := p.state.Agent.(*Agent); ok {
			table := ag.prepareBidInto(now, offer, p.state.Current, v, v.entries[i][:0])
			v.entries[i] = table.Entries
			bids = append(bids, table)
		} else {
			bids = append(bids, p.state.Agent.PrepareBid(now, offer, p.state.Current))
		}
	}
	v.bids = bids
	return bids
}

// candidateSizes computes the GPU counts an Agent bids on (see the package
// function candidateSizes for the enumeration contract), reusing the
// valuator's set and output slice. The returned slice is valid until the
// next call.
func (v *BidValuator) candidateSizes(offered, unmet, gang int) []int {
	if offered <= 0 || unmet <= 0 {
		return nil
	}
	max := offered
	if unmet < max {
		max = unmet
	}
	if gang <= 0 {
		gang = 1
	}
	if v.sizeSet == nil {
		v.sizeSet = make(map[int]bool)
	}
	clear(v.sizeSet)
	sizes := v.sizeSet
	// Gang multiples: 1×, 2×, 3×, 4× the gang size.
	for k := 1; k <= 4; k++ {
		if s := k * gang; s <= max {
			sizes[s] = true
		}
	}
	// Doublings to reach large offers quickly.
	for s := gang * 8; s < max; s *= 2 {
		sizes[s] = true
	}
	sizes[max] = true
	if gang > 1 && max >= 1 {
		sizes[min(gang/2, max)] = true // a half-gang row for constrained offers
	}
	out := v.sizes[:0]
	for s := range sizes {
		if s > 0 {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	v.sizes = out
	return out
}
