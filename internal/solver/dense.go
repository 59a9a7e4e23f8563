// Dense winner-determination engine. Bid rows arrive as sparse cluster.Alloc
// maps, but every instance is compiled to flat vectors once and the search
// never touches a Go map:
//
//   - capacity and the incrementally maintained `used` vector are []int32
//     indexed by MachineID (offset-shifted so arbitrary ID ranges still
//     work),
//   - each row is a (value, log value, total, term-range) record whose
//     non-zero machine terms live in one shared flat []term slice,
//   - bidders are index-ordered slices, so greedy tie-breaks are
//     deterministic instead of map-iteration-order dependent.
//
// The compiled instance lives in an Instance its caller owns and reuses:
// Compile builds it, each Instance.Solve searches it (optionally with one
// bidder masked out) and Choice reads the winning row indexes out. The search
// results are bit-identical to the previous map-based implementation (pinned
// by TestDenseSolverMatchesReference): bidder ordering, per-depth bundle
// ordering, pruning comparisons and float accumulation order are all
// preserved; log values are computed once per bundle with the same math.Log
// the old code called per visit.
package solver

import (
	"fmt"
	"math"
	"slices"

	"themis/internal/cluster"
)

// term is one non-zero machine entry of a bundle's allocation.
type term struct {
	m int32 // dense machine index (MachineID + offset)
	n int32
}

// denseBundle is one compiled row: its valuation with precomputed log and a
// term range into Instance.terms.
type denseBundle struct {
	value    float64
	logValue float64
	total    int32
	toff     int32
	tlen     int32
}

// upgrade is one greedy candidate: bidder i moving from its empty row to row
// local, worth gain in the log objective.
type upgrade struct {
	gain   float64
	bidder int32
	local  int32
}

// Instance is one compiled auction instance plus every slice the search
// needs, kept by its owner from one auction to the next so a warmed instance
// compiles and solves without allocating. The zero value is ready for
// Compile. What Compile builds (capacity, bundles, terms, spread, valIdx) is
// invariant across Solve calls; used, order, maxLog and the choices are
// per-solve. The greedy walk's upgrade list is built by the first greedy
// solve and its trail by the last unmasked one; Compile invalidates both. It
// is single-goroutine state; concurrent auctions each own one. It references
// nothing of the caller's: rows are compiled to machine indexes and values.
type Instance struct {
	capacity []int32
	used     []int32
	offset   int32 // dense index = MachineID + offset

	n        int     // bidders
	boff     []int32 // bundles of bidder i: bundles[boff[i]:boff[i+1]]
	bundles  []denseBundle
	terms    []term
	emptyIdx []int32   // local index of bidder i's empty bundle
	spread   []float64 // bundleSpread per bidder
	valIdx   []int32   // per-bidder value-desc local bundle order, same offsets as bundles

	skip       int // bidder masked out of the current solve, or NoSkip
	order      []int
	maxLog     []float64
	choice     []int
	bestChoice []int
	bestObj    float64 // the exact search's incumbent
	haveBest   bool

	upgrades    []upgrade // every upgrade over an empty row, in greedy pick order
	haveUps     bool      // upgrades is built for the compiled rows
	trail       []int32   // upgrades positions the unmasked greedy walk took, in order
	trailRounds int       // the move bound trail was walked with; 0 when there is none
}

// Compile builds the dense instance for n bidders whose tables rows(i)
// returns, over the storage of whatever sc compiled before, reading every row
// — and every row's Alloc map — exactly once. That one walk is also the
// auction's input check: a row asking for negative GPUs or more than
// capacity holds on a machine, a ρ that is not positive (NaN included) or
// whose reciprocal overflows, or a table without the empty row (the bidder's
// value for winning nothing) is an error, after which sc holds nothing to
// solve. A row's positive terms must fit capacity, so capacity's machines
// bound the dense index range. The rows are only read, and nothing of them
// is kept: the Instance holds machine indexes and values, so the caller may
// recycle the tables as soon as it has mapped the chosen row indexes back.
func (sc *Instance) Compile(capacity cluster.Alloc, n int, rows func(i int) []Row) error {
	minID, maxID := 0, -1
	for m, c := range capacity {
		if c == 0 {
			continue
		}
		if maxID < minID {
			minID, maxID = int(m), int(m)
		}
		minID, maxID = min(minID, int(m)), max(maxID, int(m))
	}
	nm := 0
	sc.offset = 0
	if maxID >= minID {
		nm = maxID - minID + 1
		sc.offset = int32(-minID)
	}
	sc.capacity = zeroed(sc.capacity, nm)
	sc.used = zeroed(sc.used, nm)
	for m, c := range capacity {
		if c != 0 {
			sc.capacity[int32(m)+sc.offset] = int32(c)
		}
	}

	sc.n = n
	sc.haveUps, sc.trailRounds = false, 0
	sc.boff = append(sc.boff[:0], 0)
	sc.bundles = sc.bundles[:0]
	sc.terms = sc.terms[:0]
	sc.emptyIdx = sc.emptyIdx[:0]
	sc.spread = sc.spread[:0]
	sc.valIdx = sc.valIdx[:0]
	for i := 0; i < n; i++ {
		empty := int32(-1)
		loLog, hiLog := math.Inf(1), math.Inf(-1)
		start := len(sc.bundles)
		for bi, row := range rows(i) {
			value := 1 / row.Rho
			if !(row.Rho > 0) || math.IsInf(value, 1) {
				return fmt.Errorf("solver: bidder %d row %d has ρ %v, want a positive number whose reciprocal is finite", i, bi, row.Rho)
			}
			toff := int32(len(sc.terms))
			total := int32(0)
			for m, g := range row.Alloc {
				if g == 0 {
					continue
				}
				if g < 0 {
					return fmt.Errorf("solver: bidder %d row %d has negative GPUs on machine %d", i, bi, m)
				}
				dm := int(m) + int(sc.offset)
				if dm < 0 || dm >= nm || g > int(sc.capacity[dm]) {
					return fmt.Errorf("solver: bidder %d row %d wants %d GPUs on machine %d, capacity %d", i, bi, g, m, capacity[m])
				}
				sc.terms = append(sc.terms, term{m: int32(dm), n: int32(g)})
				total += int32(g)
			}
			if value < minValue {
				value = minValue
			}
			l := math.Log(value)
			sc.bundles = append(sc.bundles, denseBundle{
				value:    value,
				logValue: l,
				total:    total,
				toff:     toff,
				tlen:     int32(len(sc.terms)) - toff,
			})
			if total == 0 && empty < 0 {
				empty = int32(bi)
			}
			if l < loLog {
				loLog = l
			}
			if l > hiLog {
				hiLog = l
			}
			sc.valIdx = append(sc.valIdx, int32(bi))
		}
		if empty < 0 {
			return fmt.Errorf("solver: bidder %d lacks the empty-allocation row", i)
		}
		sc.boff = append(sc.boff, int32(len(sc.bundles)))
		sc.emptyIdx = append(sc.emptyIdx, empty)
		sc.spread = append(sc.spread, hiLog-loLog)

		// Value-descending bundle order, computed once per bidder with the
		// same sort the old per-node code ran (deterministic for a given
		// input, so precomputing preserves the exact search order).
		mine := sc.bundles[start:]
		slices.SortFunc(sc.valIdx[start:], func(x, y int32) int {
			if mine[x].value > mine[y].value {
				return -1
			}
			return 1
		})
	}
	return nil
}

// zeroed returns v resized to n zeros, reusing its backing array when it is
// large enough.
func zeroed(v []int32, n int) []int32 {
	if cap(v) < n {
		return make([]int32, n)
	}
	v = v[:n]
	clear(v)
	return v
}

func (sc *Instance) bundleAt(bidder int, local int32) *denseBundle {
	return &sc.bundles[sc.boff[bidder]+local]
}

func (sc *Instance) addTerms(b *denseBundle) {
	for _, t := range sc.terms[b.toff : b.toff+b.tlen] {
		sc.used[t.m] += t.n
	}
}

func (sc *Instance) subTerms(b *denseBundle) {
	for _, t := range sc.terms[b.toff : b.toff+b.tlen] {
		sc.used[t.m] -= t.n
	}
}

// fitsTerms reports whether adding the bundle to used stays within capacity.
func (sc *Instance) fitsTerms(b *denseBundle) bool {
	for _, t := range sc.terms[b.toff : b.toff+b.tlen] {
		if sc.used[t.m]+t.n > sc.capacity[t.m] {
			return false
		}
	}
	return true
}

// solveExact runs the same depth-first branch and bound as before, over the
// compiled instance: bidders ordered by decreasing value spread, bundles
// tried in descending value, suffix log bounds for pruning.
func (sc *Instance) solveExact() {
	sc.order = sc.order[:0]
	for i := 0; i < sc.n; i++ {
		if i != sc.skip {
			sc.order = append(sc.order, i)
		}
	}
	order := sc.order
	nb := len(order)
	slices.SortFunc(order, func(a, b int) int {
		if sc.spread[a] > sc.spread[b] {
			return -1
		}
		return 1
	})
	sc.maxLog = sc.maxLog[:0]
	for i := 0; i <= nb; i++ {
		sc.maxLog = append(sc.maxLog, 0)
	}
	maxLog := sc.maxLog
	for i := nb - 1; i >= 0; i-- {
		best := math.Inf(-1)
		bi := order[i]
		for _, bun := range sc.bundles[sc.boff[bi]:sc.boff[bi+1]] {
			if bun.logValue > best {
				best = bun.logValue
			}
		}
		maxLog[i] = maxLog[i+1] + best
	}

	sc.bestObj, sc.haveBest = math.Inf(-1), false
	sc.choice = sc.choice[:0]
	sc.bestChoice = sc.bestChoice[:0]
	for i := 0; i < sc.n; i++ {
		// choice is depth-indexed during the search (the first nb slots) and
		// bidder-indexed afterwards.
		sc.choice = append(sc.choice, 0)
		sc.bestChoice = append(sc.bestChoice, -1)
	}
	sc.dfs(0, 0)

	// Translate depth-indexed best choices back to bidder-indexed ones.
	choice := sc.choice
	if !sc.haveBest {
		// Only possible if even all-empty is infeasible, which cannot
		// happen; fall back to empty bundles defensively.
		for i := range choice {
			choice[i] = int(sc.emptyIdx[i])
		}
		return
	}
	for d, bi := range order {
		choice[bi] = sc.bestChoice[d]
	}
	if sc.skip >= 0 {
		choice[sc.skip] = int(sc.emptyIdx[sc.skip]) // the masked bidder takes nothing
	}
}

// dfs extends the partial assignment of order[:depth], worth obj, by every
// feasible bundle of order[depth].
func (sc *Instance) dfs(depth int, obj float64) {
	if obj+sc.maxLog[depth] <= sc.bestObj {
		return // cannot beat the incumbent
	}
	if depth == len(sc.order) {
		sc.bestObj, sc.haveBest = obj, true
		copy(sc.bestChoice, sc.choice)
		return
	}
	bi := sc.order[depth]
	start := sc.boff[bi]
	for _, local := range sc.valIdx[start:sc.boff[bi+1]] {
		bun := &sc.bundles[start+local]
		if !sc.fitsTerms(bun) {
			continue
		}
		sc.addTerms(bun)
		sc.choice[depth] = int(local)
		sc.dfs(depth+1, obj+bun.logValue)
		sc.subTerms(bun)
	}
}

// solveGreedy starts every bidder at its empty bundle and repeatedly applies
// the single-bidder bundle change with the largest objective gain that fits,
// until none gains more than 1e-12 or rounds moves are made. Equal gains go
// to the lowest bidder index, then the lowest row, so tie-breaks are
// deterministic.
//
// It makes those moves in one walk over a fixed candidate list instead of a
// rescan of every row per move, and that rests on one fact:
//
//   - No bidder moves twice. Moving again from bundle X to Y needs Y to gain
//     more than 1e-12 over X, so Y gains more than X does from the empty
//     bundle; greedy took X, so Y did not fit then. Only a second move can
//     free a machine, so until the first one Y still does not fit: there is
//     none, and `used` only grows.
//
// Every move is therefore an upgrade from an empty bundle: sc.upgrades lists
// those once, in the order the round-by-round scan prefers them. A moved
// bidder never moves again and an upgrade that did not fit never fits later,
// so each move is the first eligible upgrade past the previous move's, and
// the walk visits each upgrade at most once.
//
// A masked solve resumes the unmasked walk instead of starting over. Leaving
// out a bidder that did not win a move changes no move, so the masked walk
// repeats the unmasked one's moves (sc.trail) up to the masked bidder's and
// carries on just past that bidder's upgrade; a bidder that never moved
// leaves the unmasked solution as it is. TestGreedyWalkMatchesRoundByRound
// holds the walk and the resume to the round-by-round scan they replaced.
//
// There is deliberately no pair-move pass ("bidder a upgrades while victim v
// reverts to its empty bundle") behind the single moves; the map-based oracle
// in reference_test.go still has one and judges that it is never taken: at a
// single-move optimum, any pair move (a to bundle X, v to empty) was open to
// a as a single move in the round v was picked — v was still on its empty
// bundle and everything else held no more than it does now, so X fit. Greedy
// preferred v's gain to a's gain for X in that round (and a's gain for X from
// its empty bundle is no smaller than from a later bundle), so the pair's
// gain — a's gain minus v's — is ≤ 0, never above the 1e-12 threshold.
func (sc *Instance) solveGreedy(rounds int) {
	if !sc.haveUps {
		sc.listUpgrades()
	}
	sc.choice = sc.choice[:0]
	for i := 0; i < sc.n; i++ {
		sc.choice = append(sc.choice, int(sc.emptyIdx[i]))
	}
	from, moves := 0, 0
	record := sc.skip == NoSkip && sc.trailRounds != rounds
	if record {
		sc.trail, sc.trailRounds = sc.trail[:0], rounds
	} else if sc.trailRounds == rounds {
		from = len(sc.upgrades) // unless the masked bidder moved, the trail is the whole solution
		for _, pos := range sc.trail {
			if int(sc.upgrades[pos].bidder) == sc.skip {
				from = int(pos) + 1
				break
			}
			sc.take(int(pos))
			moves++
		}
	}
	for pos := from; pos < len(sc.upgrades) && moves < rounds; pos++ {
		up := &sc.upgrades[pos]
		i := int(up.bidder)
		if i == sc.skip || sc.choice[i] != int(sc.emptyIdx[i]) || !sc.fitsTerms(sc.bundleAt(i, up.local)) {
			continue
		}
		sc.take(pos)
		moves++
		if record {
			sc.trail = append(sc.trail, int32(pos))
		}
	}
}

// listUpgrades lists every bundle change the greedy scan could ever make —
// a bidder's move from its empty bundle to a row worth more by over 1e-12 —
// by gain descending, then bidder, then row: the order in which the scan's
// strict comparison picks among them.
func (sc *Instance) listUpgrades() {
	sc.upgrades = sc.upgrades[:0]
	for i := 0; i < sc.n; i++ {
		empty := sc.bundleAt(i, sc.emptyIdx[i])
		for local := int32(0); local < sc.boff[i+1]-sc.boff[i]; local++ {
			bun := sc.bundleAt(i, local)
			if gain := bun.logValue - empty.logValue; bun.value > empty.value && gain > 1e-12 {
				sc.upgrades = append(sc.upgrades, upgrade{gain: gain, bidder: int32(i), local: local})
			}
		}
	}
	// Gains are finite — Compile refuses a ρ whose 1/ρ is NaN or overflows —
	// so < and > order them totally. This sort is most of what a solve costs
	// on small instances, hence the comparator returns at the first field
	// that differs.
	slices.SortFunc(sc.upgrades, func(a, b upgrade) int {
		switch {
		case a.gain > b.gain:
			return -1
		case a.gain < b.gain:
			return 1
		case a.bidder != b.bidder:
			return int(a.bidder - b.bidder)
		}
		return int(a.local - b.local)
	})
	sc.haveUps = true
}

// take moves upgrades[pos]'s bidder onto its row.
func (sc *Instance) take(pos int) {
	up := &sc.upgrades[pos]
	sc.choice[up.bidder] = int(up.local)
	sc.addTerms(sc.bundleAt(int(up.bidder), up.local))
}
