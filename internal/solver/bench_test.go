package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"themis/internal/cluster"
	"themis/internal/race"
)

// benchInstance builds a greedy-scale auction: nBidders apps bidding 8-row
// tables over a 32-machine × 16-GPU cluster, mirroring the shape the
// arbiter's partial-allocation rounds produce.
func benchInstance(nBidders, nBundles int, seed int64) (cluster.Alloc, []Bidder) {
	rng := rand.New(rand.NewSource(seed))
	const nm = 32
	capacity := cluster.NewAlloc()
	for m := 0; m < nm; m++ {
		capacity[cluster.MachineID(m)] = 16
	}
	bidders := make([]Bidder, 0, nBidders)
	for i := 0; i < nBidders; i++ {
		b := Bidder{ID: fmt.Sprintf("app-%d", i)}
		b.Bundles = append(b.Bundles, Bundle{Alloc: cluster.NewAlloc(), Value: 1e-12})
		for j := 1; j < nBundles; j++ {
			a := cluster.NewAlloc()
			span := 1 + rng.Intn(3)
			for k := 0; k < span; k++ {
				m := cluster.MachineID(rng.Intn(nm))
				a[m] = a[m] + 1 + rng.Intn(4)
				if a[m] > 16 {
					a[m] = 16
				}
			}
			b.Bundles = append(b.Bundles, Bundle{Alloc: a, Value: 0.5 + 9*rng.Float64()})
		}
		bidders = append(bidders, b)
	}
	return capacity, bidders
}

// shardShapedInstance mirrors one shard round of the serve-sharded workload:
// 125 bidders over 20 machines × 8 GPUs, each bidding its empty row, worth
// 1/w, and one or two rows of 1 and 2 GPUs on one machine, worth (1 + GPUs)/w.
func shardShapedInstance(seed int64) (cluster.Alloc, []Bidder) {
	rng := rand.New(rand.NewSource(seed))
	const nm = 20
	capacity := cluster.NewAlloc()
	for m := 0; m < nm; m++ {
		capacity[cluster.MachineID(m)] = 8
	}
	bidders := make([]Bidder, 0, 125)
	for i := 0; i < 125; i++ {
		w := 1 + 9*rng.Float64()
		b := Bidder{ID: fmt.Sprintf("app-%d", i), Bundles: []Bundle{{Alloc: cluster.NewAlloc(), Value: 1 / w}}}
		m := cluster.MachineID(rng.Intn(nm))
		for g, rows := 1, 1+rng.Intn(2); g <= rows; g++ {
			b.Bundles = append(b.Bundles, Bundle{Alloc: cluster.Alloc{m: g}, Value: float64(1+g) / w})
		}
		bidders = append(bidders, b)
	}
	return capacity, bidders
}

// TestSolveSteadyStateAllocs pins a reused instance's contract at shard
// scale, in the greedy regime: once warm, Compile, the unmasked solve and a
// masked solve for every bidder allocate nothing — the upgrade list and the
// trail live in the instance beside its other buffers.
func TestSolveSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; the allocation bound is checked without -race")
	}
	capacity, bidders := shardShapedInstance(42)
	tables := tablesOf(asCompiled(bidders))
	rows := func(i int) []Row { return tables[i] }
	greedyBefore := solveGreedyCount.Value()
	inst := new(Instance)
	round := func() {
		if err := inst.Compile(capacity, len(tables), rows); err != nil {
			t.Fatal(err)
		}
		benchSink += inst.Solve(Options{}, NoSkip)
		for k := range tables {
			benchSink += inst.Solve(Options{}, k)
		}
	}
	round()
	if got := solveGreedyCount.Value() - greedyBefore; got != uint64(1+len(tables)) {
		t.Fatalf("%d of %d solves were greedy; the instance should be past ExactLimit", got, 1+len(tables))
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("warmed Compile + %d solves allocate %.1f objects, want 0", 1+len(tables), allocs)
	}
}

// BenchmarkSolverGreedy measures the heuristic path at auction scale; the
// 8-bundle tables push the search space past ExactLimit so the greedy search
// runs, which is where the old map-based implementation spent ~2/3 of auction
// CPU in Clone/Sub/TotalAlloc chains.
func BenchmarkSolverGreedy(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("bidders-%d", n), func(b *testing.B) {
			capacity, bidders := benchInstance(n, 8, 42)
			benchCompileSolve(b, capacity, bidders)
		})
	}
}

// benchCompileSolve times what one auction pays the solver for its
// proportional-fair solution: Compile over the rows into a reused instance,
// one unmasked solve, the choices read out.
func benchCompileSolve(b *testing.B, capacity cluster.Alloc, bidders []Bidder) {
	tables := tablesOf(asCompiled(bidders))
	rows := func(i int) []Row { return tables[i] }
	inst := new(Instance)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inst.Compile(capacity, len(tables), rows); err != nil {
			b.Fatal(err)
		}
		benchSink += inst.Solve(Options{}, NoSkip)
		for k := range tables {
			row, _ := inst.Choice(k)
			benchSink += float64(row)
		}
	}
}

var benchSink float64

// BenchmarkSolverExact measures the branch-and-bound path on the largest
// instance the default limit admits with 8-row tables (5 bidders: 8^5 =
// 32768 ≤ 200000; a sixth would overflow the limit and flip to greedy).
func BenchmarkSolverExact(b *testing.B) {
	capacity, bidders := benchInstance(5, 8, 42)
	benchCompileSolve(b, capacity, bidders)
}

// BenchmarkReferenceGreedy runs the preserved map-based solver on the same
// instances so the ≥2x speedup of the dense rewrite is measurable in-tree.
// The name deliberately avoids the BenchmarkSolver prefix so a -bench
// BenchmarkSolver run (the production path) does not time the oracle.
func BenchmarkReferenceGreedy(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("bidders-%d", n), func(b *testing.B) {
			capacity, bidders := benchInstance(n, 8, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := refSolve(capacity, bidders, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHiddenPayments times all the searching one auction asks of the
// solver: Compile into a reused instance, the unmasked solve, and one masked
// re-solve per bidder whose chosen bundle is non-empty — the 1 + winners
// solves of core.RunPartialAllocation.
func BenchmarkHiddenPayments(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() (cluster.Alloc, []Bidder)
	}{
		{"bidders-64", func() (cluster.Alloc, []Bidder) { return benchInstance(64, 8, 42) }},
		{"bidders-512", func() (cluster.Alloc, []Bidder) { return benchInstance(512, 8, 42) }},
		{"shard-shaped-125", func() (cluster.Alloc, []Bidder) { return shardShapedInstance(42) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			capacity, bidders := c.build()
			tables := tablesOf(asCompiled(bidders))
			rows := func(i int) []Row { return tables[i] }
			var winners []int
			inst := new(Instance)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := inst.Compile(capacity, len(tables), rows); err != nil {
					b.Fatal(err)
				}
				benchSink += inst.Solve(Options{}, NoSkip)
				winners = winners[:0]
				for k := range tables {
					if row, _ := inst.Choice(k); tables[k][row].Alloc.Total() > 0 {
						winners = append(winners, k)
					}
				}
				for _, k := range winners {
					benchSink += inst.Solve(Options{}, k)
				}
			}
		})
	}
}
