package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"themis/internal/cluster"
)

func TestSolveSimpleWinner(t *testing.T) {
	capacity := cluster.Alloc{0: 4}
	bidders := []Bidder{
		{ID: "a", Bundles: []Bundle{
			{Alloc: cluster.Alloc{0: 4}, Value: 10},
			{Alloc: cluster.NewAlloc(), Value: 1},
		}},
		{ID: "b", Bundles: []Bundle{
			{Alloc: cluster.Alloc{0: 4}, Value: 2},
			{Alloc: cluster.NewAlloc(), Value: 1},
		}},
	}
	asg, obj, err := Solve(capacity, bidders, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if asg["a"].Alloc.Total() != 4 || asg["b"].Alloc.Total() != 0 {
		t.Errorf("high-value bidder should win: %v", asg)
	}
	if math.Abs(obj-math.Log(10)) > 1e-9 {
		t.Errorf("objective = %v, want log 10", obj)
	}
}

func TestSolveSplitsAcrossMachines(t *testing.T) {
	capacity := cluster.Alloc{0: 2, 1: 2}
	bidders := []Bidder{
		{ID: "a", Bundles: []Bundle{
			{Alloc: cluster.Alloc{0: 2}, Value: 5},
			{Alloc: cluster.Alloc{0: 2, 1: 2}, Value: 6},
			{Alloc: cluster.NewAlloc(), Value: 1},
		}},
		{ID: "b", Bundles: []Bundle{
			{Alloc: cluster.Alloc{1: 2}, Value: 5},
			{Alloc: cluster.NewAlloc(), Value: 1},
		}},
	}
	asg, _, err := Solve(capacity, bidders, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Splitting (5×5=25) beats giving everything to a (6×1=6).
	if asg["a"].Alloc.Total() != 2 || asg["b"].Alloc.Total() != 2 {
		t.Errorf("expected split allocation, got %v", asg)
	}
}

func TestSolveRespectsCapacity(t *testing.T) {
	capacity := cluster.Alloc{0: 3}
	bidders := []Bidder{
		{ID: "a", Bundles: []Bundle{{Alloc: cluster.Alloc{0: 2}, Value: 4}, {Alloc: cluster.NewAlloc(), Value: 1}}},
		{ID: "b", Bundles: []Bundle{{Alloc: cluster.Alloc{0: 2}, Value: 4}, {Alloc: cluster.NewAlloc(), Value: 1}}},
	}
	asg, _, err := Solve(capacity, bidders, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := asg.TotalAlloc()
	if total[0] > 3 {
		t.Errorf("allocation %v exceeds capacity", total)
	}
	// Exactly one of the two identical bidders wins.
	if asg["a"].Alloc.Total()+asg["b"].Alloc.Total() != 2 {
		t.Errorf("expected exactly one winner, got %v", asg)
	}
}

func TestSolveRejectsInvalidInput(t *testing.T) {
	capacity := cluster.Alloc{0: 2}
	over := []Bidder{{ID: "a", Bundles: []Bundle{{Alloc: cluster.Alloc{0: 5}, Value: 2}}}}
	if _, _, err := Solve(capacity, over, Options{}); err == nil {
		t.Error("bundle exceeding capacity should fail")
	}
	neg := []Bidder{{ID: "a", Bundles: []Bundle{{Alloc: cluster.Alloc{0: -1}, Value: 2}}}}
	if _, _, err := Solve(capacity, neg, Options{}); err == nil {
		t.Error("negative bundle should fail")
	}
}

func TestSolveAllBiddersPresent(t *testing.T) {
	capacity := cluster.Alloc{0: 1}
	bidders := []Bidder{
		{ID: "a", Bundles: []Bundle{{Alloc: cluster.Alloc{0: 1}, Value: 3}}},
		{ID: "b", Bundles: []Bundle{{Alloc: cluster.Alloc{0: 1}, Value: 2}}},
		{ID: "c", Bundles: nil},
	}
	asg, _, err := Solve(capacity, bidders, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(asg) != 3 {
		t.Fatalf("assignment missing bidders: %v", asg)
	}
	if asg["c"].Alloc.Total() != 0 {
		t.Errorf("bidder without bundles should get nothing")
	}
}

func TestGreedyMatchesExactOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		nMachines := 2 + rng.Intn(3)
		capacity := cluster.NewAlloc()
		for m := 0; m < nMachines; m++ {
			capacity[cluster.MachineID(m)] = 1 + rng.Intn(4)
		}
		nBidders := 2 + rng.Intn(4)
		bidders := make([]Bidder, nBidders)
		for i := range bidders {
			nBundles := 1 + rng.Intn(4)
			b := Bidder{ID: fmt.Sprintf("b%d", i)}
			for k := 0; k < nBundles; k++ {
				alloc := cluster.NewAlloc()
				for m := 0; m < nMachines; m++ {
					if rng.Float64() < 0.5 {
						n := rng.Intn(capacity[cluster.MachineID(m)] + 1)
						if n > 0 {
							alloc[cluster.MachineID(m)] = n
						}
					}
				}
				b.Bundles = append(b.Bundles, Bundle{Alloc: alloc, Value: 1 + rng.Float64()*9})
			}
			b.Bundles = append(b.Bundles, Bundle{Alloc: cluster.NewAlloc(), Value: 1})
			bidders[i] = b
		}
		_, exactObj, err := Solve(capacity, bidders, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, greedyObj, err := Solve(capacity, bidders, Options{ExactLimit: 1}) // force heuristic
		if err != nil {
			t.Fatal(err)
		}
		if greedyObj > exactObj+1e-9 {
			t.Fatalf("trial %d: heuristic %v beat exact %v (exact is wrong)", trial, greedyObj, exactObj)
		}
		// The heuristic should come close to optimal on these small cases.
		if exactObj-greedyObj > math.Abs(exactObj)*0.35+0.7 {
			t.Errorf("trial %d: heuristic %v too far from exact %v", trial, greedyObj, exactObj)
		}
	}
}

func TestAssignmentFeasibilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		capacity := cluster.Alloc{0: 1 + rng.Intn(4), 1: 1 + rng.Intn(4), 2: rng.Intn(4)}
		nBidders := 1 + rng.Intn(8)
		bidders := make([]Bidder, nBidders)
		for i := range bidders {
			b := Bidder{ID: fmt.Sprintf("b%d", i)}
			for k := 0; k < 1+rng.Intn(5); k++ {
				alloc := cluster.NewAlloc()
				for m := cluster.MachineID(0); m < 3; m++ {
					if n := rng.Intn(capacity[m] + 1); n > 0 && rng.Float64() < 0.6 {
						alloc[m] = n
					}
				}
				b.Bundles = append(b.Bundles, Bundle{Alloc: alloc, Value: 0.5 + rng.Float64()*5})
			}
			bidders[i] = b
		}
		asg, _, err := Solve(capacity, bidders, Options{})
		if err != nil {
			t.Fatal(err)
		}
		total := asg.TotalAlloc()
		for m, n := range total {
			if n > capacity[m] {
				t.Fatalf("trial %d: machine %d allocated %d > capacity %d", trial, m, n, capacity[m])
			}
		}
		if len(asg) != nBidders {
			t.Fatalf("trial %d: assignment has %d bidders, want %d", trial, len(asg), nBidders)
		}
	}
}
