package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"themis/internal/cluster"
	"themis/internal/workload"
)

// Config holds the Arbiter's tunables.
type Config struct {
	// FairnessKnob is f ∈ [0,1] (§5): available GPUs are offered to the
	// worst 1−f fraction of apps by finish-time fairness. Higher f gives
	// stronger fairness guarantees; lower f widens visibility and lets the
	// Arbiter find more placement-efficient allocations. The paper settles
	// on 0.8.
	FairnessKnob float64
	// LeaseDuration is how long (minutes) a granted allocation is held
	// before the GPUs return to the pool. The paper settles on 20 minutes.
	LeaseDuration float64
	// Auction configures the partial-allocation mechanism.
	Auction AuctionOptions
}

// DefaultConfig returns the configuration the paper converges on (§8.2):
// f = 0.8 and a 20-minute lease.
func DefaultConfig() Config {
	return Config{FairnessKnob: 0.8, LeaseDuration: 20}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.FairnessKnob < 0 || c.FairnessKnob > 1 {
		return fmt.Errorf("fairness knob %v outside [0,1]", c.FairnessKnob)
	}
	if c.LeaseDuration <= 0 {
		return fmt.Errorf("lease duration %v must be positive", c.LeaseDuration)
	}
	return nil
}

// Arbiter is the cross-app scheduler (bottom level of the two-level
// architecture): it pools available GPUs, offers them to the worst-off
// fraction of apps, runs the partial-allocation auction over their bids and
// hands out leftovers work-conservingly (§3.1 steps 1–5, Pseudocode 1).
type Arbiter struct {
	cfg  Config
	topo *cluster.Topology

	// val batches each round's bid preparation, recycling the valuation
	// scratch (candidate sizes, entry buffers and their rows' maps) across
	// auctions instead of reallocating it per participant; step 1 uses its
	// Fanout too.
	val BidValuator
	// probes is step 1's scratch, one 16-byte record per agent, and offered
	// marks the participants by agent index for the leftover pass; neither
	// references a map or a bidder. auction is the partial allocation's
	// scratch, whose picker then holds the leftover pool. cands is the
	// leftover pass's candidate scratch and rank orders it by ID. Whatever
	// holds a map is emptied after each round.
	probes  []probe
	offered []uint64
	auction auctionScratch
	cands   []LeftoverCandidate
	rank    []int32

	// Stats accumulates scheduling telemetry (auction counts, latencies).
	Stats ArbiterStats

	// lastRound is the phase breakdown of the most recent OfferResources
	// call. Written by OfferResources, so reading it is only safe when no
	// round is in flight — the rpc layer reads it under its auctionMu,
	// immediately after the round returns.
	lastRound RoundPhases
}

// LastRound returns the phase breakdown of the most recent auction round.
// It must not be called concurrently with OfferResources; the serving layer
// reads it under the same lock that serialises rounds.
func (a *Arbiter) LastRound() RoundPhases { return a.lastRound }

// ArbiterStats records telemetry about the auctions an Arbiter has run,
// mirroring the overheads the paper reports in §8.3.2 plus the per-phase
// breakdown the runtime telemetry exposes (cumulative across rounds; see
// LastRound for the most recent round alone).
type ArbiterStats struct {
	Auctions           int
	OffersMade         int
	GPUsAuctioned      int
	GPUsLeftOver       int
	TotalAuctionTime   time.Duration
	MaxAuctionTime     time.Duration
	TruthfulPayments   float64 // sum of (1 − c_i) over winners; a bidder with an empty proportional-fair bundle has c_i = 1
	WinnersWithNothing int
	// Cumulative per-phase time across all rounds: ρ probes + offer
	// selection, bid preparation, winner determination (solver + hidden
	// payments), and the leftover pass.
	ProbeTime    time.Duration
	BidTime      time.Duration
	SolveTime    time.Duration
	LeftoverTime time.Duration
	// AuctionWinners counts apps that won a non-empty auction allocation.
	AuctionWinners int
}

// RoundPhases is one auction round's phase breakdown — what OfferResources
// just spent its time on, and what came out. The rpc layer copies it into
// round-duration metrics and the /debug/rounds trace ring after every round.
type RoundPhases struct {
	// Probe covers the ρ probes and worst-1−f offer selection; Bid the
	// batched bid preparation; Solve the partial-allocation auction (winner
	// determination + hidden payments); Leftover the work-conserving
	// leftover pass. Total is the whole OfferResources call. Payments is the
	// hidden-payment part of Solve (AuctionResult.Payments), so it is not a
	// term of the sum.
	Probe    time.Duration
	Bid      time.Duration
	Solve    time.Duration
	Payments time.Duration
	Leftover time.Duration
	Total    time.Duration

	Agents       int // agents probed
	Participants int // agents that received the offer and bid
	Winners      int // apps with a non-empty auction allocation
	OfferedGPUs  int
	GrantedGPUs  int // auction wins + leftover grants
	LeftoverGPUs int // unallocated by the auction, before the leftover pass

	// WinnersWithNothing counts the participants whose award came to nothing
	// (Participants − Winners); ArbiterStats.WinnersWithNothing sums it.
	WinnersWithNothing int
}

// NewArbiter builds an Arbiter over topo with the given configuration.
func NewArbiter(topo *cluster.Topology, cfg Config) (*Arbiter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid arbiter config: %w", err)
	}
	return &Arbiter{cfg: cfg, topo: topo}, nil
}

// Config returns the Arbiter's configuration.
func (a *Arbiter) Config() Config { return a.cfg }

// Topology returns the topology the Arbiter schedules.
func (a *Arbiter) Topology() *cluster.Topology { return a.topo }

// SetFanout installs the hook that asks Remote bidders (nil, the default, calls
// every bidder inline); not concurrently with OfferResources.
func (a *Arbiter) SetFanout(f Fanout) { a.val.fanout = f }

// Bidder is the Arbiter-facing interface of an Agent. The in-process *Agent
// implements it directly; the rpc package provides a remote implementation
// that forwards each call to an agent daemon over HTTP.
type Bidder interface {
	// ID returns the app the bidder represents.
	ID() workload.AppID
	// ReportRho answers a ρ probe given the app's current allocation.
	ReportRho(now float64, current cluster.Alloc) float64
	// PrepareBid returns the app's valuation table for an offer.
	PrepareBid(now float64, offer, current cluster.Alloc) BidTable
	// UnmetParallelism returns how many more GPUs the app can use. It must
	// answer locally, without a network call or a call back into the server:
	// the sharded reconciliation round asks it under the server's registry
	// lock.
	UnmetParallelism(current cluster.Alloc) int
	// GangSize returns the app's typical gang size (leftover-grant chunk).
	GangSize() int
}

// AgentState is one app's view presented to the Arbiter at auction time: its
// Agent plus the allocation it currently holds.
type AgentState struct {
	Agent   Bidder
	Current cluster.Alloc
}

// Allocation is one allocation decision produced by OfferResources.
type Allocation struct {
	App   workload.AppID
	Alloc cluster.Alloc
	// FromAuction distinguishes auction winnings from leftover grants.
	FromAuction bool
}

// OfferResources implements Pseudocode 1. Given the GPUs currently available
// it probes every agent for its finish-time fairness estimate, offers the
// GPUs to the worst 1−f fraction, runs the partial-allocation auction over
// their bids, distributes leftovers to the remaining apps placement
// sensitively, and returns the resulting allocation decisions. The caller
// (simulator or RPC server) applies the decisions and starts leases of
// Config().LeaseDuration. Every decision's Alloc is a map of its own: the bid
// rows the round valued are recycled by the next round, the decisions are the
// caller's to keep.
// With a Fanout installed, Remote bidders' probes and bids may overlap; their
// answers land by index, so the decisions are the inline round's.
func (a *Arbiter) OfferResources(now float64, free cluster.Alloc, agents []AgentState) ([]Allocation, error) {
	if free.Total() == 0 || len(agents) == 0 {
		return nil, nil
	}
	start := time.Now()
	a.Stats.Auctions++
	a.Stats.GPUsAuctioned += free.Total()
	a.lastRound = RoundPhases{Agents: len(agents), OfferedGPUs: free.Total()}

	// Step 1: probe every app for its current ρ, in index order; the fanout
	// probes the Remote ones afterwards, each into its own slot.
	n := len(agents)
	ps := slices.Grow(a.probes[:0], n)[:n]
	a.probes = ps
	remote := a.val.remote[:0]
	for i, st := range agents {
		ps[i] = probe{at: int32(i)}
		if a.val.isRemote(st.Agent) {
			remote = append(remote, i)
		} else {
			ps[i].rho = st.Agent.ReportRho(now, st.Current)
		}
	}
	if idx := remote; len(idx) > 0 {
		a.val.fanout(len(idx), func(k int) {
			st := agents[idx[k]]
			ps[idx[k]].rho = st.Agent.ReportRho(now, st.Current)
		})
	}
	a.val.remote = remote
	// Step 2: offer to the worst 1−f fraction, always at least one app, in
	// WorseOff order. Only they are ordered: the rest go to the leftover pass,
	// which orders its candidates by ID.
	participants := min(max(int(math.Ceil((1-a.cfg.FairnessKnob)*float64(n))), 1), n)
	selectWorst(ps, agents, participants)
	a.Stats.OffersMade += participants
	probed := time.Now()
	a.lastRound.Probe = probed.Sub(start)
	a.lastRound.Participants = participants

	// Step 3: collect bids from the participants, batched through the
	// Arbiter's valuator so the round reuses the previous round's scratch.
	bidding := ps[:participants]
	bids := a.val.prepareBids(now, free, agents, bidding)
	bid := time.Now()
	a.lastRound.Bid = bid.Sub(probed)

	// Step 4: partial allocation over the bids.
	auction, err := runPartialAllocation(&a.auction, a.topo, free, bids, a.cfg.Auction)
	defer clear(auction.Awards) // the awards hold the round's maps
	solved := time.Now()
	a.lastRound.Solve = solved.Sub(bid)
	if err != nil {
		return nil, err
	}
	a.lastRound.Payments = auction.Payments

	// Award i belongs to bids[i], which is bidding[i]. TruthfulPayments is a
	// float sum whose bits depend on the order of its terms: bid order.
	var out []Allocation
	for i, aw := range auction.Awards {
		a.Stats.TruthfulPayments += 1 - aw.C
		if aw.Won.Total() == 0 {
			a.lastRound.WinnersWithNothing++
			continue
		}
		a.lastRound.Winners++
		out = append(out, Allocation{App: bids[i].App, Alloc: aw.Won, FromAuction: true})
	}
	a.Stats.AuctionWinners += a.lastRound.Winners
	a.Stats.WinnersWithNothing += a.lastRound.WinnersWithNothing

	// Step 5 (leftovers): GPUs unallocated by the auction go to apps that
	// did not participate, one at a time, placement sensitively; if none can
	// use them, participants may take them so no GPU is left idle. Both passes
	// draw from one load of the leftover, so the second sees only what is
	// still unplaced.
	a.auction.picker.Load(a.topo, auction.Leftover)
	a.Stats.GPUsLeftOver += a.auction.picker.Total()
	a.lastRound.LeftoverGPUs = a.auction.picker.Total()
	offered := slices.Grow(a.offered[:0], (n+63)/64)[:(n+63)/64]
	clear(offered)
	for _, p := range bidding {
		offered[p.at/64] |= 1 << (p.at % 64)
	}
	a.offered = offered
	out = a.grantLeftovers(out, agents, nil, nil)
	out = a.grantLeftovers(out, agents, bidding, auction.Awards)

	end := time.Now()
	elapsed := end.Sub(start)
	a.Stats.TotalAuctionTime += elapsed
	if elapsed > a.Stats.MaxAuctionTime {
		a.Stats.MaxAuctionTime = elapsed
	}
	a.lastRound.Leftover = end.Sub(solved)
	a.lastRound.Total = elapsed
	for _, d := range out {
		a.lastRound.GrantedGPUs += d.Alloc.Total()
	}
	a.Stats.ProbeTime += a.lastRound.Probe
	a.Stats.BidTime += a.lastRound.Bid
	a.Stats.SolveTime += a.lastRound.Solve
	a.Stats.LeftoverTime += a.lastRound.Leftover
	// Stable: an app's auction win stays ahead of its leftover grant.
	slices.SortStableFunc(out, func(x, y Allocation) int { return cmp.Compare(x.App, y.App) })
	return out, nil
}

// probe is an agent's answer to this round's ρ probe: the ρ and the agent's
// index in the round's agents, which hold its state and ID.
type probe struct {
	rho float64
	at  int32
}

// WorseOff orders apps for an offer, worst-off first: higher ρ, then lower app
// ID. Equal ρ — every starved app at one instant, every degraded remote
// bidder — falls back on the ID, so who is offered GPUs never depends on the
// order the caller listed the apps in (the serving layer ranges over maps).
// It is a total order, NaN included: cmp.Compare ranks a NaN ρ below every
// number and equal to another NaN, which the ID then settles.
func WorseOff(rhoA float64, a workload.AppID, rhoB float64, b workload.AppID) int {
	if c := cmp.Compare(rhoB, rhoA); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// selectWorst reorders ps so that ps[:k] holds its k worst-off probes in
// WorseOff order, reading a probe's ID from agents only when two ρ tie;
// the order of ps[k:] is unspecified. Quickselect
// (median-of-three pivot, Hoare partition) narrows a window [lo, hi) around
// position k, keeping everything before the window ahead of it and
// everything after it behind; a small window, or one that stops shrinking
// within the depth budget, is sorted outright, so no input costs more than a
// sort. Then only the prefix is sorted.
func selectWorst(ps []probe, agents []AgentState, k int) {
	worseOff := func(a, b probe) int {
		if c := cmp.Compare(b.rho, a.rho); c != 0 {
			return c
		}
		return cmp.Compare(agents[a.at].Agent.ID(), agents[b.at].Agent.ID())
	}
	lo, hi := 0, len(ps)
	for depth := 2 * bits.Len(uint(hi)); lo < k && k < hi; depth-- {
		if hi-lo <= 12 || depth == 0 {
			slices.SortFunc(ps[lo:hi], worseOff)
			break
		}
		mid := lo + (hi-lo)/2
		if worseOff(ps[mid], ps[lo]) < 0 {
			ps[lo], ps[mid] = ps[mid], ps[lo]
		}
		if worseOff(ps[hi-1], ps[mid]) < 0 {
			ps[mid], ps[hi-1] = ps[hi-1], ps[mid]
			if worseOff(ps[mid], ps[lo]) < 0 {
				ps[lo], ps[mid] = ps[mid], ps[lo]
			}
		}
		// ps[lo] ≤ pivot ≤ ps[hi-1] keeps both scans inside the window, and
		// the first swap (around mid) shrinks it on both sides.
		pivot := ps[mid]
		i, j := lo, hi-1
		for i <= j {
			for worseOff(ps[i], pivot) < 0 {
				i++
			}
			for worseOff(pivot, ps[j]) < 0 {
				j--
			}
			if i <= j {
				ps[i], ps[j] = ps[j], ps[i]
				i, j = i+1, j-1
			}
		}
		// Now ps[lo:j+1] ≤ pivot ≤ ps[i:hi], and anything between equals it.
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			lo, hi = k, k
		}
	}
	slices.SortFunc(ps[:k], worseOff)
}

// grantLeftovers runs the leftover-allocation rule over a candidate set and
// appends the grants, drawn from the leftover pool loaded into the Arbiter's
// picker, to out. Without bidding the candidates are the agents not marked
// offered, in the caller's order; with it they are the bidders, and awards,
// parallel to bidding, says what each has just won in this round's auction,
// which counts as held. Either way they are visited by ID.
func (a *Arbiter) grantLeftovers(out []Allocation, agents []AgentState, bidding []probe, awards []Award) []Allocation {
	if a.auction.picker.Total() == 0 {
		return out
	}
	cands := a.cands[:0]
	if bidding == nil {
		for i, st := range agents {
			if a.offered[i/64]&(1<<(i%64)) == 0 {
				cands = addCandidate(cands, st.Agent, st.Current)
			}
		}
	}
	for j, p := range bidding {
		// Candidates without a fresh win keep their (caller-owned, read-only)
		// Current as-is.
		st := agents[p.at]
		if won := awards[j].Won; won.Total() > 0 {
			st.Current = st.Current.Add(won)
		}
		cands = addCandidate(cands, st.Agent, st.Current)
	}
	rank := a.rank[:0]
	for j := range cands {
		rank = append(rank, int32(j))
	}
	slices.SortFunc(rank, func(x, y int32) int { return cmp.Compare(cands[x].ID, cands[y].ID) })
	AllocateLeftovers(&a.auction.picker, cands, rank)
	for i := range cands {
		c := &cands[i]
		if c.Grant != nil {
			out = append(out, Allocation{App: c.ID, Alloc: c.Grant})
		}
		c.Current, c.Grant = nil, nil // keep the capacity and the anchors, not the round's maps
	}
	a.cands, a.rank = cands[:0], rank[:0]
	return out
}

// addCandidate appends the agent to cands if it can use more GPUs than cur.
// Most agents at scale cannot; the slot appended reuses its buffers.
func addCandidate(cands []LeftoverCandidate, b Bidder, cur cluster.Alloc) []LeftoverCandidate {
	if want := b.UnmetParallelism(cur); want > 0 {
		cands = slices.Grow(cands, 1)[:len(cands)+1]
		lc := &cands[len(cands)-1]
		lc.ID, lc.Current, lc.Want, lc.Chunk = b.ID(), cur, want, b.GangSize()
	}
	return cands
}
