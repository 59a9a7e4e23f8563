package solver

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"themis/internal/cluster"
)

// This file preserves the pre-dense, map-based solver verbatim (modulo ref
// prefixes and a non-mutating normalization) as the reference oracle for
// TestDenseSolverMatchesReference: the dense rewrite must reproduce its
// output bit-for-bit on instances whose optima and tie-breaks are unique,
// which randomized float values guarantee almost surely.
//
// Beside it lives the API the oracle and the tests are written in: bidders
// named by ID, bundles denominated in value, results as a map. The package
// proper reads bid rows by index (Compile / Choice); Solve below is the
// adapter, and the only caller of the old names.

// Bundle is one row of a bidder's valuation table: an allocation and the
// bidder's value for receiving it (higher is better).
type Bundle struct {
	Alloc cluster.Alloc
	Value float64
}

// Bidder is one participating app with its candidate bundles.
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

// asCompiled returns the bidders as Compile will see them once their values
// have crossed as ρ = 1/value: normalised like the oracle's input (values
// clamped, the empty row production callers always bid appended where a test
// left it out — Compile rejects a table without one), with every value
// replaced by the 1/ρ Compile recovers, which can differ from the original in
// the last bit. The oracle is run on this view so values compare bit for bit.
// The caller's bidders are not touched.
func asCompiled(bidders []Bidder) []Bidder {
	out := make([]Bidder, len(bidders))
	for i, b := range bidders {
		out[i] = Bidder{ID: b.ID, Bundles: append([]Bundle(nil), b.Bundles...)}
		out[i].Normalize()
		for k := range out[i].Bundles {
			v := &out[i].Bundles[k].Value
			if *v = 1 / (1 / *v); *v < minValue {
				*v = minValue
			}
		}
	}
	return out
}

// tablesOf renders asCompiled bidders as the rows Compile reads.
func tablesOf(compiled []Bidder) [][]Row {
	tables := make([][]Row, len(compiled))
	for i, b := range compiled {
		for _, bun := range b.Bundles {
			tables[i] = append(tables[i], Row{Alloc: bun.Alloc, Rho: 1 / bun.Value})
		}
	}
	return tables
}

// Solve picks one bundle per bidder maximising Σ log(value) subject to the
// per-machine capacity, through the package's by-index API: Compile over the
// bidders' rows, one unmasked Instance.Solve, Choice per bidder. Every bidder
// appears in the result (possibly with its empty bundle); the second return
// value is the objective, summed in bidder index order.
func Solve(capacity cluster.Alloc, bidders []Bidder, opts Options) (Assignment, float64, error) {
	compiled := asCompiled(bidders)
	tables := tablesOf(compiled)
	sc := new(Instance)
	if err := sc.Compile(capacity, len(tables), func(i int) []Row { return tables[i] }); err != nil {
		return nil, 0, err
	}
	obj := sc.Solve(opts, NoSkip)
	return assignmentOf(sc, compiled), obj, nil
}

// assignmentOf reads the most recent Solve's choices out by index; a masked
// bidder is absent.
func assignmentOf(sc *Instance, compiled []Bidder) Assignment {
	asg := make(Assignment, len(compiled))
	for i, b := range compiled {
		if i == sc.skip {
			continue
		}
		row, l := sc.Choice(i)
		if got := sc.bundleAt(i, int32(row)).value; got != b.Bundles[row].Value || l != math.Log(got) {
			panic(fmt.Sprintf("bidder %d row %d: compiled value %v (log %v), asCompiled predicted %v", i, row, got, l, b.Bundles[row].Value))
		}
		asg[b.ID] = b.Bundles[row]
	}
	return asg
}

func refSolve(capacity cluster.Alloc, bidders []Bidder, opts Options) (Assignment, float64, error) {
	opts = opts.withDefaults()
	if err := refValidate(capacity, bidders); err != nil {
		return nil, 0, err
	}
	norm := make([]Bidder, len(bidders))
	copy(norm, bidders)
	for i := range norm {
		norm[i].Bundles = append([]Bundle(nil), norm[i].Bundles...)
		norm[i].Normalize()
	}
	space := 1
	exact := true
	for _, b := range norm {
		if space > opts.ExactLimit/len(b.Bundles) {
			exact = false
			break
		}
		space *= len(b.Bundles)
	}
	var asg Assignment
	if exact && space <= opts.ExactLimit {
		asg = refSolveExact(capacity, norm)
	} else {
		asg = refSolveGreedy(capacity, norm, opts.LocalSearchRounds)
	}
	return asg, asg.Objective(), nil
}

// Normalize ensures the bidder has an empty-allocation bundle and that all
// values are positive; non-positive values are clamped to a tiny epsilon so
// the log-objective stays finite.
func (b *Bidder) Normalize() {
	const eps = 1e-12
	hasEmpty := false
	for i := range b.Bundles {
		if b.Bundles[i].Value < eps {
			b.Bundles[i].Value = eps
		}
		if b.Bundles[i].Alloc.Total() == 0 {
			hasEmpty = true
		}
	}
	if !hasEmpty {
		b.Bundles = append(b.Bundles, Bundle{Alloc: cluster.NewAlloc(), Value: eps})
	}
}

func refValidate(capacity cluster.Alloc, bidders []Bidder) error {
	seen := make(map[string]bool, len(bidders))
	for _, b := range bidders {
		if b.ID == "" || seen[b.ID] {
			return errRefInvalid
		}
		seen[b.ID] = true
		for _, bun := range b.Bundles {
			for m, n := range bun.Alloc {
				if n < 0 || n > capacity[m] {
					_ = m
					return errRefInvalid
				}
			}
		}
	}
	return nil
}

var errRefInvalid = errString("ref: invalid instance")

type errString string

func (e errString) Error() string { return string(e) }

func refSolveExact(capacity cluster.Alloc, bidders []Bidder) Assignment {
	order := make([]int, len(bidders))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return refBundleSpread(bidders[order[a]]) > refBundleSpread(bidders[order[b]])
	})
	maxLog := make([]float64, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		best := math.Inf(-1)
		for _, bun := range bidders[order[i]].Bundles {
			if l := math.Log(bun.Value); l > best {
				best = l
			}
		}
		maxLog[i] = maxLog[i+1] + best
	}

	bestObj := math.Inf(-1)
	var bestChoice []int
	choice := make([]int, len(order))
	used := cluster.NewAlloc()

	var dfs func(depth int, obj float64)
	dfs = func(depth int, obj float64) {
		if obj+maxLog[depth] <= bestObj {
			return
		}
		if depth == len(order) {
			bestObj = obj
			bestChoice = append([]int(nil), choice...)
			return
		}
		b := bidders[order[depth]]
		idx := make([]int, len(b.Bundles))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool { return b.Bundles[idx[x]].Value > b.Bundles[idx[y]].Value })
		for _, bi := range idx {
			bun := b.Bundles[bi]
			if !refFits(used, bun.Alloc, capacity) {
				continue
			}
			for m, n := range bun.Alloc {
				used[m] += n
			}
			choice[depth] = bi
			dfs(depth+1, obj+math.Log(bun.Value))
			for m, n := range bun.Alloc {
				used[m] -= n
				if used[m] == 0 {
					delete(used, m)
				}
			}
		}
	}
	dfs(0, 0)

	asg := make(Assignment, len(bidders))
	if bestChoice == nil {
		for _, b := range bidders {
			asg[b.ID] = refEmptyBundle(b)
		}
		return asg
	}
	for d, oi := range order {
		asg[bidders[oi].ID] = bidders[oi].Bundles[bestChoice[d]]
	}
	return asg
}

func refBundleSpread(b Bidder) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, bun := range b.Bundles {
		if bun.Value < lo {
			lo = bun.Value
		}
		if bun.Value > hi {
			hi = bun.Value
		}
	}
	return math.Log(hi) - math.Log(lo)
}

func refEmptyBundle(b Bidder) Bundle {
	for _, bun := range b.Bundles {
		if bun.Alloc.Total() == 0 {
			return bun
		}
	}
	return Bundle{Alloc: cluster.NewAlloc(), Value: 1e-12}
}

func refSolveGreedy(capacity cluster.Alloc, bidders []Bidder, rounds int) Assignment {
	asg := make(Assignment, len(bidders))
	for _, b := range bidders {
		asg[b.ID] = refEmptyBundle(b)
	}
	byID := make(map[string]Bidder, len(bidders))
	for _, b := range bidders {
		byID[b.ID] = b
	}
	for r := 0; r < rounds; r++ {
		improved := false
		used := asg.TotalAlloc()
		bestGain := 1e-12
		var bestID string
		var bestBundle Bundle
		for id, cur := range asg {
			without := used.Clone()
			if without.Debit(cur.Alloc) != nil {
				continue
			}
			for _, bun := range byID[id].Bundles {
				if bun.Value <= cur.Value {
					continue
				}
				if !refFits(without, bun.Alloc, capacity) {
					continue
				}
				gain := math.Log(bun.Value) - math.Log(cur.Value)
				if gain > bestGain {
					bestGain, bestID, bestBundle = gain, id, bun
				}
			}
		}
		if bestID != "" {
			asg[bestID] = bestBundle
			improved = true
		}
		if !improved {
			if id, bun, victim, ok := refFindPairMove(capacity, byID, asg); ok {
				asg[victim] = refEmptyBundle(byID[victim])
				asg[id] = bun
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return asg
}

func refFindPairMove(capacity cluster.Alloc, byID map[string]Bidder, asg Assignment) (id string, bundle Bundle, victim string, ok bool) {
	used := asg.TotalAlloc()
	bestGain := 1e-12
	for a, curA := range asg {
		for v, curV := range asg {
			if a == v || curV.Alloc.Total() == 0 {
				continue
			}
			freed := used.Clone()
			if freed.Debit(curA.Alloc) != nil || freed.Debit(curV.Alloc) != nil {
				continue
			}
			lossV := math.Log(curV.Value) - math.Log(refEmptyBundle(byID[v]).Value)
			for _, bun := range byID[a].Bundles {
				if !refFits(freed, bun.Alloc, capacity) {
					continue
				}
				gain := math.Log(bun.Value) - math.Log(curA.Value) - lossV
				if gain > bestGain {
					bestGain, id, bundle, victim, ok = gain, a, bun, v, true
				}
			}
		}
	}
	return id, bundle, victim, ok
}

func refFits(used, alloc, capacity cluster.Alloc) bool {
	for m, n := range alloc {
		if used[m]+n > capacity[m] {
			return false
		}
	}
	return true
}

// randomInstance builds a solver instance with continuous random values so
// ties (which the old map-ordered code broke nondeterministically) occur
// with probability zero.
func randomInstance(rng *rand.Rand) (cluster.Alloc, []Bidder) {
	nm := 1 + rng.Intn(5)
	capacity := cluster.NewAlloc()
	for m := 0; m < nm; m++ {
		capacity[cluster.MachineID(m)] = 1 + rng.Intn(6)
	}
	nb := 1 + rng.Intn(8)
	bidders := make([]Bidder, 0, nb)
	for i := 0; i < nb; i++ {
		b := Bidder{ID: string(rune('a' + i))}
		nbun := 1 + rng.Intn(5)
		for j := 0; j < nbun; j++ {
			a := cluster.NewAlloc()
			for m := 0; m < nm; m++ {
				if rng.Intn(3) == 0 {
					if n := rng.Intn(capacity[cluster.MachineID(m)] + 1); n > 0 {
						a[cluster.MachineID(m)] = n
					}
				}
			}
			b.Bundles = append(b.Bundles, Bundle{Alloc: a, Value: 0.5 + 9*rng.Float64()})
		}
		bidders = append(bidders, b)
	}
	return capacity, bidders
}

// TestDenseSolverMatchesReference pins the dense rewrite to the old
// map-based solver: identical chosen bundles on randomized instances, for
// both the exact branch-and-bound and the forced-greedy path.
func TestDenseSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		capacity, bidders := randomInstance(rng)
		for _, opts := range []Options{{}, {ExactLimit: 1}} {
			got, gotObj, err := Solve(capacity, bidders, opts)
			if err != nil {
				t.Fatalf("trial %d: Solve: %v", trial, err)
			}
			want, wantObj, err := refSolve(capacity, asCompiled(bidders), opts)
			if err != nil {
				t.Fatalf("trial %d: refSolve: %v", trial, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d opts %+v: %d assignments, want %d", trial, opts, len(got), len(want))
			}
			for id, w := range want {
				g, ok := got[id]
				if !ok {
					t.Fatalf("trial %d opts %+v: bidder %s missing", trial, opts, id)
				}
				if g.Value != w.Value || !g.Alloc.Equal(w.Alloc) {
					t.Fatalf("trial %d opts %+v bidder %s: got %v@%v want %v@%v",
						trial, opts, id, g.Alloc, g.Value, w.Alloc, w.Value)
				}
			}
			// Objectives are summed in different orders (the reference sums
			// in map order), so compare within float tolerance.
			if math.Abs(gotObj-wantObj) > 1e-9*math.Max(1, math.Abs(wantObj)) {
				t.Fatalf("trial %d opts %+v: objective %v vs %v", trial, opts, gotObj, wantObj)
			}
		}
	}
}

// TestSolveDeterministicAcrossRuns pins the satellite determinism fix:
// repeated Solve calls on the same instance return identical assignments
// and identical objective bits, including on instances with deliberate
// value ties that the old map-iterated greedy broke arbitrarily.
func TestSolveDeterministicAcrossRuns(t *testing.T) {
	type run struct {
		asg Assignment
		obj float64
	}
	check := func(t *testing.T, capacity cluster.Alloc, bidders []Bidder, opts Options) {
		t.Helper()
		first, obj0, err := Solve(capacity, bidders, opts)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		for rep := 0; rep < 20; rep++ {
			again, obj, err := Solve(capacity, bidders, opts)
			if err != nil {
				t.Fatalf("Solve rep %d: %v", rep, err)
			}
			if obj != obj0 {
				t.Fatalf("rep %d: objective %v != %v", rep, obj, obj0)
			}
			if len(again) != len(first) {
				t.Fatalf("rep %d: %d assignments != %d", rep, len(again), len(first))
			}
			for id, f := range first {
				g := again[id]
				if g.Value != f.Value || !g.Alloc.Equal(f.Alloc) {
					t.Fatalf("rep %d bidder %s: %v@%v != %v@%v", rep, id, g.Alloc, g.Value, f.Alloc, f.Value)
				}
			}
		}
		_ = run{first, obj0}
	}

	t.Run("tied bidders forced greedy", func(t *testing.T) {
		// Every bidder is identical: any of them winning is optimal, so
		// only deterministic tie-breaking makes runs repeatable.
		capacity := cluster.Alloc{0: 4}
		var bidders []Bidder
		for i := 0; i < 12; i++ {
			bidders = append(bidders, Bidder{
				ID: string(rune('a' + i)),
				Bundles: []Bundle{
					{Alloc: cluster.Alloc{0: 4}, Value: 8},
					{Alloc: cluster.Alloc{0: 2}, Value: 4},
				},
			})
		}
		check(t, capacity, bidders, Options{ExactLimit: 1})
	})

	t.Run("randomized instances both paths", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 40; trial++ {
			capacity, bidders := randomInstance(rng)
			check(t, capacity, bidders, Options{})
			check(t, capacity, bidders, Options{ExactLimit: 1})
		}
	})
}

// TestSolveDoesNotMutateCallerBundles is the regression test for the
// shallow-copy satellite: Normalize used to clamp values in place and
// append the empty row into the caller's Bundles backing array.
func TestSolveDoesNotMutateCallerBundles(t *testing.T) {
	capacity := cluster.Alloc{0: 4}
	// Backing array with spare capacity so the old append would have
	// written in place.
	backing := make([]Bundle, 2, 8)
	backing[0] = Bundle{Alloc: cluster.Alloc{0: 2}, Value: 5}
	backing[1] = Bundle{Alloc: cluster.NewAlloc(), Value: -3} // non-positive: old code clamped in place
	bidders := []Bidder{{ID: "a", Bundles: backing[:2]}}

	if _, _, err := Solve(capacity, bidders, Options{}); err != nil {
		t.Fatalf("Solve: %v", err)
	}

	if backing[1].Value != -3 {
		t.Fatalf("Solve clamped the caller's bundle value in place: %v", backing[1].Value)
	}
	if len(bidders[0].Bundles) != 2 {
		t.Fatalf("Solve changed the caller's bundle count: %d", len(bidders[0].Bundles))
	}
	spare := backing[:3]
	if spare[2].Alloc != nil || spare[2].Value != 0 {
		t.Fatalf("Solve wrote into the caller's spare backing capacity: %+v", spare[2])
	}

	// A second bidder missing its empty row: the synthesized row must land
	// in solver-owned storage, not the caller's.
	noEmpty := []Bidder{{ID: "b", Bundles: []Bundle{{Alloc: cluster.Alloc{0: 1}, Value: 2}}}}
	if _, _, err := Solve(capacity, noEmpty, Options{}); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(noEmpty[0].Bundles) != 1 {
		t.Fatalf("Solve appended the empty bundle into the caller's slice")
	}
}
