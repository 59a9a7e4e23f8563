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
// The compiled instance lives in a pooled Instance; Compile borrows one and
// builds it, each Instance.Solve searches it (optionally with one bidder
// masked out), Choice reads the winning row indexes out, and Release returns
// the storage. The search results are bit-identical to the previous map-based
// implementation (pinned by TestDenseSolverMatchesReference): bidder ordering,
// per-depth bundle ordering, pruning comparisons and float accumulation order
// are all preserved; log values are computed once per bundle with the same
// math.Log the old code called per visit.
package solver

import (
	"fmt"
	"math"
	"slices"
	"sync"

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

// Instance is one compiled auction instance plus every slice the search
// needs, recycled through scratchPool. What Compile builds (capacity,
// bundles, terms, spread, valIdx) is invariant across Solve calls; used,
// order, maxLog and the choices are per-solve. It is single-goroutine state;
// concurrent callers each compile their own. It references nothing of the
// caller's: rows are compiled to machine indexes and values.
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
}

var scratchPool = sync.Pool{New: func() any { return new(Instance) }}

// Release returns the instance's storage to the pool; the instance must not
// be used afterwards.
func (sc *Instance) Release() { scratchPool.Put(sc) }

// compile validates the rows against capacity and builds the dense instance
// in the same walk. A row's positive terms must fit capacity, so capacity's
// machines bound the dense index range and each row's map is ranged once.
func (sc *Instance) compile(capacity cluster.Alloc, n int, rows func(i int) []Row) error {
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
			if row.Rho <= 0 {
				return fmt.Errorf("solver: bidder %d row %d has non-positive ρ %v", i, bi, row.Rho)
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
			value := 1 / row.Rho
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
// the single-bidder bundle change with the largest feasible objective gain,
// until none gains more than 1e-12 or rounds run out. Bidders are visited in
// index order and comparisons are strict, so tie-breaks are deterministic.
//
// There is deliberately no pair-move pass ("bidder a upgrades while victim v
// reverts to its empty bundle") behind the single moves; the map-based oracle
// in reference_test.go still has one and judges that it is never taken:
//
//   - No bidder moves twice. A bidder's first move takes the largest-gain
//     bundle that fits beside everyone else's; a second move needs a better
//     bundle, which did not fit then, to fit now — a machine must have freed
//     up. Nothing frees a machine before the first second-move, so there is
//     none, and `used` only grows.
//   - So at a single-move optimum, any pair move (a to bundle X, v to empty)
//     was open to a as a single move in the round v was picked: v was still
//     on its empty bundle and everything else held no more than it does now,
//     so X fit. Greedy preferred v's gain to a's gain for X in that round
//     (and a's gain for X from its empty bundle is no smaller than from a
//     later bundle), so the pair's gain — a's gain minus v's — is ≤ 0, never
//     above the 1e-12 threshold.
func (sc *Instance) solveGreedy(rounds int) {
	nb := sc.n
	sc.choice = sc.choice[:0]
	for i := 0; i < nb; i++ {
		sc.choice = append(sc.choice, int(sc.emptyIdx[i]))
	}
	choice := sc.choice
	for r := 0; r < rounds; r++ {
		bestGain := 1e-12
		bestBidder, bestLocal := -1, int32(-1)
		for i := 0; i < nb; i++ {
			if i == sc.skip {
				continue // masked out: stays on its empty bundle
			}
			cur := sc.bundleAt(i, int32(choice[i]))
			sc.subTerms(cur)
			for local := int32(0); local < sc.boff[i+1]-sc.boff[i]; local++ {
				bun := sc.bundleAt(i, local)
				if bun.value <= cur.value {
					continue
				}
				if !sc.fitsTerms(bun) {
					continue
				}
				gain := bun.logValue - cur.logValue
				if gain > bestGain {
					bestGain, bestBidder, bestLocal = gain, i, local
				}
			}
			sc.addTerms(cur)
		}
		if bestBidder < 0 {
			break
		}
		sc.subTerms(sc.bundleAt(bestBidder, int32(choice[bestBidder])))
		choice[bestBidder] = int(bestLocal)
		sc.addTerms(sc.bundleAt(bestBidder, bestLocal))
	}
}
