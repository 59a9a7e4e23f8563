package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"themis/internal/cluster"
	"themis/internal/race"
)

// contendedInstance builds nb bidders with up to 6-row tables over nm
// machines of 4–8 GPUs, with continuous random values (no ties) and bundles
// large enough that the bidders compete for every machine.
func contendedInstance(rng *rand.Rand, nb, nm int) (cluster.Alloc, []Bidder) {
	capacity := cluster.NewAlloc()
	for m := 0; m < nm; m++ {
		capacity[cluster.MachineID(m)] = 4 + rng.Intn(5)
	}
	bidders := make([]Bidder, 0, nb)
	for i := 0; i < nb; i++ {
		b := Bidder{ID: fmt.Sprintf("b%03d", i)}
		if rng.Intn(4) > 0 { // most tables carry their own empty row
			b.Bundles = append(b.Bundles, Bundle{Alloc: cluster.NewAlloc(), Value: 0.1 + rng.Float64()})
		}
		for j, rows := 0, 1+rng.Intn(5); j < rows; j++ {
			a := cluster.NewAlloc()
			for k, span := 0, 1+rng.Intn(2); k < span; k++ {
				m := cluster.MachineID(rng.Intn(nm))
				a[m] = 1 + rng.Intn(capacity[m])
			}
			b.Bundles = append(b.Bundles, Bundle{Alloc: a, Value: 0.5 + 9*rng.Float64()})
		}
		bidders = append(bidders, b)
	}
	return capacity, bidders
}

func sameChoices(t *testing.T, what string, got, want Assignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d assignments, want %d", what, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || g.Value != w.Value || !g.Alloc.Equal(w.Alloc) {
			t.Fatalf("%s bidder %s: got %v@%v (present %t), want %v@%v", what, id, g.Alloc, g.Value, ok, w.Alloc, w.Value)
		}
	}
}

// TestMaskedSolveMatchesSolveOverOthers pins the compile-once contract: for
// every bidder i, re-solving one compiled instance with i masked out returns
// the objective bits and the choices of a fresh Solve over the other bidders
// (and the choices of the preserved map-based oracle), in the exact regime
// and — with 64+ bidders — in the greedy one; and an unmasked solve after
// the masked ones still returns the full solution.
func TestMaskedSolveMatchesSolveOverOthers(t *testing.T) {
	cases := []struct {
		name     string
		nb, nm   int
		trials   int
		opts     Options
		wantMode string
	}{
		{"exact", 6, 3, 40, Options{}, "exact"},
		{"straddling-the-limit", 6, 3, 40, Options{ExactLimit: 1500}, ""}, // full solve greedy, some masked ones exact
		{"greedy-64", 64, 10, 2, Options{}, "greedy"},
		{"greedy-96-forced", 96, 16, 1, Options{ExactLimit: 1}, "greedy"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + c.nb)))
			if race.Enabled && c.trials > 1 && c.nb >= 64 {
				c.trials = 1 // single-goroutine arithmetic; the detector only slows it ~10x
			}
			for trial := 0; trial < c.trials; trial++ {
				capacity, bidders := contendedInstance(rng, c.nb, c.nm)
				compiled := asCompiled(bidders)
				tables := tablesOf(compiled)
				exactBefore, greedyBefore := solveExactCount.Value(), solveGreedyCount.Value()
				inst := new(Instance)
				if err := inst.Compile(capacity, len(tables), func(i int) []Row { return tables[i] }); err != nil {
					t.Fatal(err)
				}
				fullObj := inst.Solve(c.opts, NoSkip)
				full := assignmentOf(inst, compiled)
				wantFull, wantFullObj, err := Solve(capacity, bidders, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if fullObj != wantFullObj {
					t.Fatalf("trial %d: unmasked objective %v, Solve %v", trial, fullObj, wantFullObj)
				}
				sameChoices(t, "unmasked", full, wantFull)

				for i := range bidders {
					others := append(append([]Bidder(nil), bidders[:i]...), bidders[i+1:]...)
					obj := inst.Solve(c.opts, i)
					got := assignmentOf(inst, compiled)
					want, wantObj, err := Solve(capacity, others, c.opts)
					if err != nil {
						t.Fatal(err)
					}
					if obj != wantObj {
						t.Fatalf("trial %d mask %d: objective %v (bits %x), Solve over others %v (bits %x)",
							trial, i, obj, math.Float64bits(obj), wantObj, math.Float64bits(wantObj))
					}
					sameChoices(t, fmt.Sprintf("trial %d mask %d vs Solve", trial, i), got, want)
					if c.nb >= 64 && i%4 != 0 {
						continue // the map-based oracle is ~20x slower; sample it on the large cases
					}
					ref, _, err := refSolve(capacity, asCompiled(others), c.opts)
					if err != nil {
						t.Fatal(err)
					}
					sameChoices(t, fmt.Sprintf("trial %d mask %d vs oracle", trial, i), got, ref)
				}

				// The instance is reusable in any order: back to no mask.
				if obj := inst.Solve(c.opts, NoSkip); obj != fullObj {
					t.Fatalf("trial %d: unmasked re-solve %v, first solve %v", trial, obj, fullObj)
				}
				sameChoices(t, "unmasked re-solve", assignmentOf(inst, compiled), full)

				exact, greedy := solveExactCount.Value()-exactBefore, solveGreedyCount.Value()-greedyBefore
				if c.wantMode == "exact" && greedy != 0 || c.wantMode == "greedy" && exact != 0 {
					t.Fatalf("trial %d: %d exact / %d greedy solves, want only %s", trial, exact, greedy, c.wantMode)
				}
			}
		})
	}
}

// TestCompileRejectsInvalidInput pins that the one walk Compile makes over the
// rows is also the auction's input check.
func TestCompileRejectsInvalidInput(t *testing.T) {
	capacity := cluster.Alloc{0: 2}
	empty := Row{Alloc: cluster.NewAlloc(), Rho: 9}
	for name, table := range map[string][]Row{
		"negative GPUs":       {empty, {Alloc: cluster.Alloc{0: -1}, Rho: 1}},
		"over capacity":       {empty, {Alloc: cluster.Alloc{0: 3}, Rho: 1}},
		"machine not offered": {empty, {Alloc: cluster.Alloc{7: 1}, Rho: 1}},
		"zero rho":            {empty, {Alloc: cluster.Alloc{0: 1}, Rho: 0}},
		"negative rho":        {{Alloc: cluster.NewAlloc(), Rho: -2}},
		"NaN rho":             {empty, {Alloc: cluster.Alloc{0: 1}, Rho: math.NaN()}},
		"1/rho overflows":     {empty, {Alloc: cluster.Alloc{0: 1}, Rho: math.SmallestNonzeroFloat64}},
		"no empty row":        {{Alloc: cluster.Alloc{0: 1}, Rho: 1}},
		"no rows at all":      nil,
	} {
		tables := [][]Row{{empty}, table}
		if err := new(Instance).Compile(capacity, len(tables), func(i int) []Row { return tables[i] }); err == nil {
			t.Errorf("%s: Compile accepted %+v", name, table)
		}
	}
	ok := [][]Row{{empty, {Alloc: cluster.Alloc{0: 2, 5: 0}, Rho: 1}, {Alloc: cluster.Alloc{0: 1}, Rho: 1e-300}}}
	inst := new(Instance)
	if err := inst.Compile(capacity, 1, func(i int) []Row { return ok[i] }); err != nil {
		t.Fatalf("valid table (zero entry on an unoffered machine, tiny but invertible ρ) rejected: %v", err)
	}
}
