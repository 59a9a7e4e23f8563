package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// Alloc is a GPU allocation vector: the number of GPUs held on each machine.
// It is the unit of currency between the Arbiter and the Agents — the paper's
// [G_{x,y,i}] vector aggregated per machine. Machines with zero GPUs are not
// stored.
type Alloc map[MachineID]int

// NewAlloc returns an empty allocation vector.
func NewAlloc() Alloc { return make(Alloc) }

// Clone returns a deep copy of the allocation.
func (a Alloc) Clone() Alloc {
	out := make(Alloc, len(a))
	for m, n := range a {
		if n != 0 {
			out[m] = n
		}
	}
	return out
}

// Reset empties a for reuse and returns it, or returns a fresh allocation
// when a is nil: the destination form of the methods that fill a map.
func (a Alloc) Reset() Alloc {
	if a == nil {
		return NewAlloc()
	}
	clear(a)
	return a
}

// Total returns the total number of GPUs in the allocation.
func (a Alloc) Total() int {
	t := 0
	for _, n := range a {
		t += n
	}
	return t
}

// IsEmpty reports whether the allocation holds no GPUs.
func (a Alloc) IsEmpty() bool { return a.Total() == 0 }

// Add returns a new allocation holding the GPUs of both a and b. Zero
// entries in b are skipped so the result stays canonical (no stored zeros)
// and Equal/Key comparisons cannot diverge on representation.
func (a Alloc) Add(b Alloc) Alloc {
	out := a.Clone()
	out.Credit(b)
	return out
}

// Credit is Add in place: it adds b's GPUs to a itself, which must be the
// caller's to change.
func (a Alloc) Credit(b Alloc) {
	for m, n := range b {
		if n == 0 {
			continue
		}
		a[m] += n
		if a[m] == 0 {
			delete(a, m)
		}
	}
}

// Debit removes b's GPUs from a itself, deleting the keys that reach zero.
// It returns an error if b holds GPUs on a machine where a holds fewer, and
// then leaves a untouched. Zero entries in b are skipped, mirroring Credit. It is for a pool the caller
// owns and has peeked into before committing; loops that pick and commit in
// one step draw through placement.Picker instead.
func (a Alloc) Debit(b Alloc) error {
	for m, n := range b {
		if n != 0 && a[m] < n {
			return fmt.Errorf("alloc: cannot remove %d GPUs from machine %d (have %d)", n, m, a[m])
		}
	}
	for m, n := range b {
		if n == 0 {
			continue
		}
		a[m] -= n
		if a[m] == 0 {
			delete(a, m)
		}
	}
	return nil
}

// Machines returns the machine IDs with a non-zero count, in ascending order.
func (a Alloc) Machines() []MachineID {
	out := make([]MachineID, 0, len(a))
	for m, n := range a {
		if n > 0 {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether two allocations hold the same GPUs per machine.
func (a Alloc) Equal(b Alloc) bool {
	if a.Total() != b.Total() {
		return false
	}
	for m, n := range a {
		if n != 0 && b[m] != n {
			return false
		}
	}
	return true
}

// String renders the allocation as "M3:2G,M7:1G" with machines in ID order,
// matching the bid-table notation in the paper's Figure 3.
func (a Alloc) String() string {
	if a.Total() == 0 {
		return "∅"
	}
	parts := make([]string, 0, len(a))
	for _, m := range a.Machines() {
		parts = append(parts, fmt.Sprintf("M%d:%dG", m, a[m]))
	}
	return strings.Join(parts, ",")
}

// State tracks which app currently holds which GPUs on a Topology. It is the
// Arbiter's (and the simulator's) authoritative view of cluster occupancy.
// State is not safe for concurrent use; callers serialise access.
type State struct {
	topo    *Topology
	used    []int            // per machine ID: GPUs in use
	held    map[string]Alloc // app ID -> allocation
	offline []bool           // per machine ID: currently failed
}

// NewState returns an empty occupancy state over topo.
func NewState(topo *Topology) *State {
	return &State{
		topo:    topo,
		used:    make([]int, topo.NumMachines()),
		held:    make(map[string]Alloc),
		offline: make([]bool, topo.NumMachines()),
	}
}

// FreeOn returns the number of free GPUs on machine m (zero while the
// machine is offline).
func (s *State) FreeOn(m MachineID) int {
	if s.offline[m] {
		return 0
	}
	return s.topo.Machine(m).NumGPUs - s.used[m]
}

// TotalFree returns the number of free GPUs across the whole cluster,
// excluding offline machines. It iterates machines by index rather than via
// Machines() — which copies the machine slice — because the simulator calls
// it once per decision round and the round must stay allocation-free.
func (s *State) TotalFree() int {
	free := 0
	for id := 0; id < s.topo.NumMachines(); id++ {
		free += s.FreeOn(MachineID(id))
	}
	return free
}

// TotalUsed returns the number of GPUs in use across the whole cluster.
func (s *State) TotalUsed() int {
	used := 0
	for _, n := range s.used {
		used += n
	}
	return used
}

// FreeVector returns the free GPUs per machine as an Alloc — the resource
// offer vector the Arbiter auctions. It is FreeVectorInto(nil).
func (s *State) FreeVector() Alloc { return s.FreeVectorInto(nil) }

// FreeVectorInto clears dst and fills it with the free GPUs per machine,
// returning it (a fresh map when dst is nil). Like TotalFree it iterates
// machines by index, so refilling a map that has held the vector before
// allocates nothing.
func (s *State) FreeVectorInto(dst Alloc) Alloc {
	dst = dst.Reset()
	for id := range MachineID(s.topo.NumMachines()) {
		if free := s.FreeOn(id); free > 0 {
			dst[id] = free
		}
	}
	return dst
}

// Held returns a copy of the allocation currently held by app. The state
// updates its holdings in place, so it never hands out its own maps. It is
// HeldInto(nil, app).
func (s *State) Held(app string) Alloc { return s.HeldInto(nil, app) }

// HeldInto clears dst and fills it with the allocation app holds, returning
// it (a fresh map when dst is nil): the copy Held takes, into a map the
// caller keeps from one allocation change to the next.
func (s *State) HeldInto(dst Alloc, app string) Alloc {
	held := s.held[app]
	if dst == nil {
		dst = make(Alloc, len(held))
	}
	clear(dst)
	dst.Credit(held)
	return dst
}

// HeldTotal returns the number of GPUs app currently holds, without copying
// its allocation. Per-agent sweeps (reconciliation, parity accounting) use it
// to sift the many apps holding nothing from the few worth a full Held copy.
func (s *State) HeldTotal(app string) int {
	return s.held[app].Total()
}

// Apps returns the IDs of apps currently holding GPUs, sorted.
func (s *State) Apps() []string {
	out := make([]string, 0, len(s.held))
	for id, a := range s.held {
		if !a.IsEmpty() {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Grant assigns the GPUs in alloc to app. It fails (without partial effect)
// if any machine lacks sufficient free GPUs. The app's holding is credited
// in place; alloc is copied, never kept.
func (s *State) Grant(app string, alloc Alloc) error {
	for m, n := range alloc {
		if n < 0 {
			return fmt.Errorf("cluster: negative grant of %d GPUs on machine %d", n, m)
		}
		if int(m) < 0 || int(m) >= s.topo.NumMachines() {
			return fmt.Errorf("cluster: grant on unknown machine %d", m)
		}
		if s.FreeOn(m) < n {
			return fmt.Errorf("cluster: machine %d has %d free GPUs, cannot grant %d to %s", m, s.FreeOn(m), n, app)
		}
	}
	for m, n := range alloc {
		if n == 0 {
			continue
		}
		s.used[m] += n
	}
	if held, ok := s.held[app]; ok {
		held.Credit(alloc)
	} else if alloc.Total() > 0 {
		s.held[app] = alloc.Clone()
	}
	return nil
}

// Release removes the GPUs in alloc from app's holdings. It fails (without
// partial effect) if app does not hold the GPUs being released: the holding is
// debited in place, and Debit checks every machine before it changes one.
func (s *State) Release(app string, alloc Alloc) error {
	held, ok := s.held[app]
	if !ok {
		held = NewAlloc()
	}
	if err := held.Debit(alloc); err != nil {
		return fmt.Errorf("cluster: app %s: %w", app, err)
	}
	for m, n := range alloc {
		if n == 0 {
			continue
		}
		s.used[m] -= n
	}
	if held.IsEmpty() {
		delete(s.held, app)
	} else {
		s.held[app] = held
	}
	return nil
}

// ReleaseAll removes every GPU held by app and returns the allocation that
// was released.
func (s *State) ReleaseAll(app string) Alloc {
	held := s.Held(app)
	if held.IsEmpty() {
		return held
	}
	if err := s.Release(app, held); err != nil {
		// Held() is by construction releasable; a failure indicates internal
		// state corruption.
		panic("cluster: ReleaseAll internal inconsistency: " + err.Error())
	}
	return held
}

// Validate checks internal invariants: per-machine used counts match the sum
// of per-app holdings and never exceed capacity. It is used by tests and the
// simulator's self-checks.
func (s *State) Validate() error {
	total := NewAlloc()
	for _, a := range s.held {
		total = total.Add(a)
	}
	for _, m := range s.topo.Machines() {
		if s.used[m.ID] > m.NumGPUs || s.used[m.ID] < 0 {
			return fmt.Errorf("machine %d: used=%d out of range [0,%d]", m.ID, s.used[m.ID], m.NumGPUs)
		}
		if total[m.ID] != s.used[m.ID] {
			return fmt.Errorf("machine %d: held sum %d != used %d", m.ID, total[m.ID], s.used[m.ID])
		}
	}
	return nil
}
