package solver

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"themis/internal/cluster"
)

// solveGreedyRoundByRound is the greedy search as it was before the walk:
// every round rescans every row of every bidder and applies the single change
// with the largest gain. It is the oracle TestGreedyWalkMatchesRoundByRound
// and FuzzGreedyMatchesRoundByRound hold solveGreedy to.
func (sc *Instance) solveGreedyRoundByRound(rounds int) {
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

// byteSource deals a fuzz input out one byte at a time, and zeros once it
// runs dry, so every input decodes to some instance.
type byteSource []byte

// next returns a value in [0, n).
func (b *byteSource) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v) % n
}

// rho draws a row's ρ: mostly from a handful of quarters, so values and
// gains tie across rows and bidders; sometimes finer; sometimes a hair off a
// quarter, so gains straddle the 1e-12 threshold; sometimes so large that
// 1/ρ clamps to minValue, which ties too.
func (b *byteSource) rho() float64 {
	switch b.next(8) {
	case 0:
		return 1e13 * float64(1+b.next(3))
	case 1:
		return 0.1 + float64(b.next(251))/17
	case 2:
		return float64(1+b.next(6)) / 4 * (1 - float64(b.next(20))*1e-13)
	}
	return float64(1+b.next(6)) / 4
}

// moveBounds are the LocalSearchRounds values the oracle checks.
var moveBounds = []int{1, 2, 5, 64}

// greedyCase decodes a greedy-regime instance: up to 10 bidders over up to
// 4 small machines, tables of 1–6 rows in which about a quarter of the rows
// ask for nothing (so extra zero-total rows appear) and the empty row, when
// one has to be added, lands anywhere in the table; and the move bound.
func greedyCase(data []byte) (capacity cluster.Alloc, tables [][]Row, rounds int) {
	src := byteSource(data)
	rounds = moveBounds[src.next(len(moveBounds))]
	nm := 1 + src.next(4)
	capacity = cluster.NewAlloc()
	for m := 0; m < nm; m++ {
		capacity[cluster.MachineID(m)] = 1 + src.next(6)
	}
	tables = make([][]Row, 1+src.next(10))
	for i := range tables {
		hasEmpty := false
		for j, rows := 0, 1+src.next(5); j < rows; j++ {
			a := cluster.NewAlloc()
			if src.next(4) > 0 {
				for m := cluster.MachineID(0); int(m) < nm; m++ {
					if n := src.next(capacity[m] + 1); n > 0 && src.next(2) == 0 {
						a[m] = n
					}
				}
			}
			hasEmpty = hasEmpty || a.Total() == 0
			tables[i] = append(tables[i], Row{Alloc: a, Rho: src.rho()})
		}
		if !hasEmpty {
			at := src.next(len(tables[i]) + 1)
			tables[i] = slices.Insert(tables[i], at, Row{Alloc: cluster.NewAlloc(), Rho: src.rho()})
		}
	}
	return capacity, tables, rounds
}

// greedyWalkMismatch compiles the instance data decodes and runs, on that one
// instance, a masked greedy solve before any unmasked one, the unmasked
// solve, a masked solve per bidder, the unmasked solve again, and a masked
// solve under a different move bound. Each must leave the choices, the
// `used` vector and the objective bits of the round-by-round scan run on the
// same instance just before it.
func greedyWalkMismatch(data []byte) error {
	capacity, tables, rounds := greedyCase(data)
	inst := new(Instance)
	if err := inst.Compile(capacity, len(tables), func(i int) []Row { return tables[i] }); err != nil {
		return fmt.Errorf("decoded an invalid instance: %v", err)
	}
	n := len(tables)
	last := 0
	if len(data) > 0 {
		last = int(data[len(data)-1])
	}
	first := last % n
	other := moveBounds[(slices.Index(moveBounds, rounds)+1+last%3)%len(moveBounds)]
	type step struct{ skip, rounds int }
	steps := []step{{first, rounds}, {NoSkip, rounds}}
	for k := 0; k < n; k++ {
		steps = append(steps, step{k, rounds})
	}
	steps = append(steps, step{NoSkip, rounds}, step{first, other})
	for _, s := range steps {
		inst.skip = s.skip
		clear(inst.used)
		inst.solveGreedyRoundByRound(s.rounds)
		wantChoice, wantUsed := slices.Clone(inst.choice), slices.Clone(inst.used)
		wantObj := 0.0
		for i, row := range wantChoice {
			if i != s.skip {
				wantObj += inst.bundleAt(i, int32(row)).logValue
			}
		}

		obj := inst.Solve(Options{ExactLimit: 1, LocalSearchRounds: s.rounds}, s.skip)
		if !slices.Equal(inst.choice, wantChoice) || !slices.Equal(inst.used, wantUsed) ||
			math.Float64bits(obj) != math.Float64bits(wantObj) {
			return fmt.Errorf("skip %d, %d moves: walk chose %v (used %v, objective %v), round by round %v (used %v, objective %v)",
				s.skip, s.rounds, inst.choice, inst.used, obj, wantChoice, wantUsed, wantObj)
		}
	}
	return nil
}

// TestGreedyWalkMatchesRoundByRound holds the one-walk greedy search, and its
// resumed masked solves, to the round-by-round scan on 20 000 instances rich
// in ties, clamped values, extra zero-total rows and empty rows out of first
// place, under every move bound the tests use.
func TestGreedyWalkMatchesRoundByRound(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	data := make([]byte, 1024)
	for trial := 0; trial < 20000; trial++ {
		rng.Read(data)
		if err := greedyWalkMismatch(data); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzGreedyMatchesRoundByRound explores the same contract from fuzzed
// instance encodings.
func FuzzGreedyMatchesRoundByRound(f *testing.F) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 8; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := greedyWalkMismatch(data); err != nil {
			t.Fatal(err)
		}
	})
}
