package core

import (
	"slices"

	"themis/internal/cluster"
	"themis/internal/placement"
)

// BidValuator batches bid-table preparation across the participants of one
// auction round, reusing the scratch that a standalone PrepareBid call
// allocates per app: the candidate-size slice, the per-participant entry
// buffers with the Alloc map of every row in them, the bid slice itself, and
// the pool the rows are drawn from. The Arbiter owns one valuator and runs
// every round's step 3 through it, so in steady state bid preparation
// recycles one round's buffers into the next instead of leaving them to the
// collector.
//
// Rows have one lifetime: the tables prepareBids returns — slices, rows and
// the rows' maps — are the valuator's, valid until its next prepareBids call.
// Whatever outlives the round (a decision, a lease) is a copy.
//
// Batching is an optimisation only: the tables produced are bit-identical to
// per-app PrepareBid calls (same candidate enumeration order, same float
// math), which TestBatchedBidEquivalence pins. A valuator must not be shared
// across goroutines; each Arbiter (and each sweep worker's policy) owns its
// own.
type BidValuator struct {
	sizes []int
	bids  []BidTable
	// entries[i] is participant i's row buffer. Rows past a table's length
	// keep the map they were last written with; the next round clears and
	// refills it (see nextRow).
	entries [][]BidEntry
	// offer is the round's offer. picker holds it, loaded on
	// loadedOn by the first table that draws a row: every row is drawn from
	// it and handed back, so each table draws from the offer as loaded.
	offer    cluster.Alloc
	picker   placement.Picker
	loadedOn *cluster.Topology
	// shared is a batched round's unanchored draws; nil in a standalone
	// PrepareBid, which draws every row.
	shared *unanchoredDraws
	// fanout asks the Remote bidders; remote is the scratch of their indexes.
	fanout Fanout
	remote []int
}

// unanchoredDraws holds a round's unanchored draws. A placement-aware row of
// an agent that holds nothing is drawn from the offer with an empty anchor,
// so it depends only on the pool and its size: drawn[size] is that draw's
// run of takes in arena, drawn by the first table that asks for it (hi = 0:
// not yet), and none is the empty anchor it is drawn from.
type unanchoredDraws struct {
	arena []placement.Take
	drawn []takeRun
	none  placement.Anchor
}

// takeRun is the stretch arena[lo:hi] of one unanchored draw.
type takeRun struct{ lo, hi int32 }

// startRound readies the valuator to value a batched round's tables for
// offer, which is only read, sharing the round's unanchored draws among them.
func (v *BidValuator) startRound(offer cluster.Alloc) {
	v.offer, v.loadedOn = offer, nil
	if v.shared == nil {
		v.shared = new(unanchoredDraws)
	}
}

// pool returns the picker holding the round's offer on topo, loading it (and
// emptying the round's unanchored draws) on the first call, or when topo
// changes.
func (v *BidValuator) pool(topo *cluster.Topology) *placement.Picker {
	if v.loadedOn != topo {
		v.loadedOn = topo
		v.picker.Load(topo, v.offer)
		if u := v.shared; u != nil {
			if u.drawn == nil { // sized once for any offer of the cluster
				u.arena = make([]placement.Take, 0, topo.TotalGPUs())
				u.drawn = make([]takeRun, 0, topo.TotalGPUs()+1)
			}
			u.none.Load(topo, nil)
			n := v.picker.Total() + 1
			u.arena, u.drawn = u.arena[:0], slices.Grow(u.drawn[:0], n)[:n]
			clear(u.drawn)
		}
	}
	return &v.picker
}

// unanchoredDraw returns the takes of a placement-aware draw of size GPUs
// from the loaded offer with nothing held, drawing them into the arena and
// handing them back the first time the round asks for size. They are valid
// until the offer is next loaded.
func (v *BidValuator) unanchoredDraw(size int) []placement.Take {
	u := v.shared
	r := &u.drawn[size]
	if r.hi == 0 {
		lo := len(u.arena)
		v.picker.DrawTakesAt(&u.arena, &u.none, size, false)
		v.picker.CreditTakes(u.arena[lo:], 1)
		*r = takeRun{int32(lo), int32(len(u.arena))}
	}
	return u.arena[r.lo:r.hi]
}

// Fanout runs call(i) for every i in [0, n), possibly concurrently, and returns
// once all have returned. The serving layer installs one with SetFanout.
type Fanout func(n int, call func(i int))

// Remote marks a Bidder whose calls leave the process (the rpc package's HTTP
// agents): an Arbiter with a Fanout asks it for ρ and bids through the Fanout.
type Remote interface{ Remote() }

// isRemote reports whether b's calls go through the fanout.
func (v *BidValuator) isRemote(b Bidder) bool {
	_, ok := b.(Remote)
	return ok && v.fanout != nil
}

// nextRow returns entries extended by one row whose Alloc is an empty map:
// the one a previous round left in that slot when the buffer has one, a fresh
// one otherwise. A row the caller decides not to keep is dropped by
// re-slicing; its map stays in the slot for the next candidate.
func nextRow(entries []BidEntry) []BidEntry {
	n := len(entries)
	if n < cap(entries) {
		entries = entries[:n+1]
	} else {
		entries = append(entries, BidEntry{})
	}
	if entries[n].Alloc == nil {
		entries[n].Alloc = cluster.NewAlloc()
	} else {
		clear(entries[n].Alloc)
	}
	return entries
}

// prepareBids values an offer for every bidding participant. In-process
// *Agent bidders run through the scratch-reusing path; any other Bidder falls
// back to its own PrepareBid, inline in index order, but Remote ones are asked
// through the fanout afterwards. Each table lands at its bidder's index, so the
// bid order is the same either way. The returned slice, the Entries backing
// arrays and the rows' Alloc maps are owned by the valuator and valid until the
// next prepareBids call — exactly the lifetime OfferResources needs (the
// auction copies what it keeps). Bidder i is agents[bidding[i].at].
func (v *BidValuator) prepareBids(now float64, offer cluster.Alloc, agents []AgentState, bidding []probe) []BidTable {
	bids, remote := v.bids[:0], v.remote[:0]
	v.startRound(offer)
	for len(v.entries) < len(bidding) {
		v.entries = append(v.entries, nil)
	}
	for i, p := range bidding {
		st := agents[p.at]
		if ag, ok := st.Agent.(*Agent); ok {
			table := ag.prepareBidInto(now, st.Current, v, v.entries[i][:0])
			v.entries[i] = table.Entries
			bids = append(bids, table)
		} else if v.isRemote(st.Agent) {
			remote = append(remote, i)
			bids = append(bids, BidTable{})
		} else {
			bids = append(bids, st.Agent.PrepareBid(now, offer, st.Current))
		}
	}
	// Built only for a remote bidder: an inline round allocates no closure.
	if out, idx := bids, remote; len(idx) > 0 {
		v.fanout(len(idx), func(k int) {
			st := agents[bidding[idx[k]].at]
			out[idx[k]] = st.Agent.PrepareBid(now, offer, st.Current)
		})
	}
	v.bids, v.remote, v.offer = bids, remote, nil
	return bids
}

// candidateSizes returns the GPU counts an Agent bids on, given the total
// offered GPUs, the app's unmet parallelism and its gang size. The Agent
// bids on every gang-size multiple up to a small cap, then doubles, always
// including the largest useful size — bounding the table so bid preparation
// stays cheap (§8.3.2) while covering the allocations that matter. The sizes
// are distinct and ascending, in the valuator's slice: valid until the next
// call.
func (v *BidValuator) candidateSizes(offered, unmet, gang int) []int {
	if offered <= 0 || unmet <= 0 {
		return nil
	}
	most := min(offered, unmet)
	gang = max(gang, 1)
	sizes := v.sizes[:0]
	// Gang multiples: 1×, 2×, 3×, 4× the gang size.
	for k := 1; k <= 4; k++ {
		if s := k * gang; s <= most {
			sizes = append(sizes, s)
		}
	}
	// Doublings to reach large offers quickly.
	for s := gang * 8; s < most; s *= 2 {
		sizes = append(sizes, s)
	}
	sizes = append(sizes, most)
	if gang > 1 {
		sizes = append(sizes, min(gang/2, most)) // a half-gang row for constrained offers
	}
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)
	v.sizes = sizes
	return sizes
}
