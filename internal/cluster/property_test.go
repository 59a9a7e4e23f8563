package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randAlloc builds a small random allocation over machines 0..7.
func randAlloc(seed uint32) Alloc {
	rng := rand.New(rand.NewSource(int64(seed)))
	a := NewAlloc()
	for m := 0; m < 8; m++ {
		if n := rng.Intn(4); n > 0 && rng.Float64() < 0.6 {
			a[MachineID(m)] = n
		}
	}
	return a
}

// TestAllocAddSubRoundTrip: (a + b) − b == a for all allocations.
func TestAllocAddSubRoundTrip(t *testing.T) {
	f := func(sa, sb uint32) bool {
		a, b := randAlloc(sa), randAlloc(sb)
		back := a.Add(b)
		if back.Debit(b) != nil {
			return false
		}
		return back.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAllocAddCommutative: a + b == b + a and totals add up.
func TestAllocAddCommutative(t *testing.T) {
	f := func(sa, sb uint32) bool {
		a, b := randAlloc(sa), randAlloc(sb)
		ab, ba := a.Add(b), b.Add(a)
		return ab.Equal(ba) && ab.Total() == a.Total()+b.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAllocCloneIsolation: mutating a clone never affects the original.
func TestAllocCloneIsolation(t *testing.T) {
	f := func(sa uint32) bool {
		a := randAlloc(sa)
		before := a.Total()
		c := a.Clone()
		c[0] += 5
		return a.Total() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStateGrantReleaseInvariant: after any sequence of random grants and
// releases that the State accepts, Validate still holds and free+used equals
// capacity.
func TestStateGrantReleaseInvariant(t *testing.T) {
	topo, err := Config{MachineSpecs: []MachineSpec{{Count: 8, GPUs: 4, SlotSize: 2}}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint32, ops uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		s := NewState(topo)
		apps := []string{"a", "b", "c"}
		for i := 0; i < int(ops%40); i++ {
			app := apps[rng.Intn(len(apps))]
			if rng.Float64() < 0.6 {
				want := randAlloc(rng.Uint32())
				_ = s.Grant(app, want) // may legitimately fail when over capacity
			} else {
				held := s.Held(app)
				if held.Total() > 0 {
					// Release a random sub-allocation of what is held.
					rel := NewAlloc()
					for m, n := range held {
						rel[m] = rng.Intn(n + 1)
					}
					if err := s.Release(app, rel); err != nil {
						return false
					}
				}
			}
			if err := s.Validate(); err != nil {
				return false
			}
			if s.TotalFree()+s.TotalUsed() != topo.TotalGPUs() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
