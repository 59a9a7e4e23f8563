package cluster

import (
	"fmt"
	"slices"
	"testing"

	"themis/internal/race"
)

// mapState is a model of State that shares none of its layout: per-app
// holdings, per-machine used counts and the offline set are all maps. Grant,
// Release and ReleaseAll keep the semantics of the State that rebuilt an
// app's holding from a Held copy on every call (two or three clones), before
// holdings were updated in place.
type mapState struct {
	topo    *Topology
	held    map[string]Alloc
	used    map[MachineID]int
	offline map[MachineID]bool
}

func newMapState(topo *Topology) *mapState {
	return &mapState{topo: topo, held: map[string]Alloc{}, used: map[MachineID]int{}, offline: map[MachineID]bool{}}
}

func (s *mapState) FreeOn(m MachineID) int {
	if s.offline[m] {
		return 0
	}
	return s.topo.Machine(m).NumGPUs - s.used[m]
}

func (s *mapState) Held(app string) Alloc { return s.held[app].Clone() }

func (s *mapState) HeldTotal(app string) int { return s.held[app].Total() }

func (s *mapState) Apps() []string {
	var out []string
	for app, a := range s.held {
		if !a.IsEmpty() {
			out = append(out, app)
		}
	}
	slices.Sort(out)
	return out
}

func (s *mapState) SetOffline(m MachineID, offline bool) {
	if int(m) >= 0 && int(m) < s.topo.NumMachines() {
		s.offline[m] = offline
	}
}

func (s *mapState) Offline(m MachineID) bool { return s.offline[m] }

func (s *mapState) Grant(app string, alloc Alloc) error {
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
		s.used[m] += n
	}
	s.held[app] = s.Held(app).Add(alloc)
	return nil
}

func (s *mapState) Release(app string, alloc Alloc) error {
	held := s.Held(app).Clone()
	if err := held.Debit(alloc); err != nil {
		return fmt.Errorf("cluster: app %s: %w", app, err)
	}
	for m, n := range alloc {
		s.used[m] -= n
	}
	if held.IsEmpty() {
		delete(s.held, app)
	} else {
		s.held[app] = held
	}
	return nil
}

func (s *mapState) ReleaseAll(app string) Alloc {
	held := s.Held(app)
	if held.IsEmpty() {
		return held
	}
	if err := s.Release(app, held); err != nil {
		panic("cluster: ReleaseAll internal inconsistency: " + err.Error())
	}
	return held
}

// Validate checks the model's used counts against its capacities and its
// holdings, machine by machine, in State.Validate's words.
func (s *mapState) Validate() error {
	for id := range MachineID(s.topo.NumMachines()) {
		used, capacity := s.used[id], s.topo.Machine(id).NumGPUs
		if used > capacity || used < 0 {
			return fmt.Errorf("machine %d: used=%d out of range [0,%d]", id, used, capacity)
		}
		sum := 0
		for _, a := range s.held {
			sum += a[id]
		}
		if sum != used {
			return fmt.Errorf("machine %d: held sum %d != used %d", id, sum, used)
		}
	}
	return nil
}

// stateOps decodes a fuzz input into operations on four apps over six 4-GPU
// machines, four bytes each: the operation, the app, and a one- or
// two-machine allocation whose machine IDs run one past the topology and whose
// counts include zero (and, for grants, a negative count).
type stateOp struct {
	kind  byte // 0–3 grant, 4–5 release, 6 release all, 7 toggle machine offline
	app   string
	alloc Alloc
}

func stateOps(data []byte) []stateOp {
	var ops []stateOp
	for ; len(data) >= 4; data = data[4:] {
		op := stateOp{kind: data[0] % 8, app: fmt.Sprintf("app-%d", data[1]%4), alloc: NewAlloc()}
		lo, hi := -1, 4
		if op.kind >= 4 {
			lo = 0 // a negative release on a machine nobody holds panics on both sides
		}
		op.alloc[MachineID(data[2]%7)] = lo + int(data[2]/7)%(hi-lo)
		if data[3]&1 == 1 {
			op.alloc[MachineID(data[3]/2%7)] = lo + int(data[3]/14)%(hi-lo)
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzStateMatchesCloneOracle: over any sequence of grants, releases, whole
// releases and machine failures, the in-place State and the map model that
// clones every holding it changes agree on every call's error (its text when the allocation names one
// machine, whose check order a map walk cannot change), on what ReleaseAll
// returns, and after every call on Held, HeldTotal, FreeOn, Apps and
// Validate.
func FuzzStateMatchesCloneOracle(f *testing.F) {
	f.Add([]byte{0, 0, 7, 0, 0, 1, 14, 3, 4, 0, 7, 0, 6, 1, 0, 0})
	f.Add([]byte{0, 0, 21, 15, 1, 0, 22, 0, 5, 0, 21, 1, 4, 0, 7, 0, 6, 0, 0, 0, 0, 2, 6, 0})
	f.Add([]byte{7, 0, 0, 0, 0, 1, 0, 0, 7, 0, 0, 0, 0, 1, 0, 0, 2, 2, 13, 0, 4, 2, 6, 29})
	// app-0 is granted 3 GPUs on machines 1 and 2 and app-1 one more on
	// machine 1; app-0 then releases 1 and 2 of them, and 1 more: odd counts
	// granted and partly released, on two machines at once.
	f.Add([]byte{0, 0, 29, 61, 1, 1, 15, 0, 4, 0, 8, 33, 5, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := Config{MachineSpecs: []MachineSpec{{Count: 6, GPUs: 4, SlotSize: 2}}}.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, want := NewState(topo), newMapState(topo)
		apps := []string{"app-0", "app-1", "app-2", "app-3"}
		for i, op := range stateOps(data) {
			var gErr, wErr error
			switch {
			case op.kind < 4:
				gErr, wErr = got.Grant(op.app, op.alloc), want.Grant(op.app, op.alloc)
			case op.kind < 6:
				gErr, wErr = got.Release(op.app, op.alloc), want.Release(op.app, op.alloc)
			case op.kind == 6:
				g, w := got.ReleaseAll(op.app), want.ReleaseAll(op.app)
				if !g.Equal(w) || len(g) != len(w) {
					t.Fatalf("op %d: ReleaseAll(%s) = %v, oracle %v", i, op.app, g, w)
				}
			default:
				for m := range op.alloc {
					off := !want.Offline(m)
					got.SetOffline(m, off)
					want.SetOffline(m, off)
				}
			}
			if (gErr == nil) != (wErr == nil) || (len(op.alloc) == 1 && gErr != nil && gErr.Error() != wErr.Error()) {
				t.Fatalf("op %d (%d %s %v): error %v, oracle %v", i, op.kind, op.app, op.alloc, gErr, wErr)
			}
			for _, app := range apps {
				if g, w := got.Held(app), want.Held(app); !g.Equal(w) || len(g) != len(w) || got.HeldTotal(app) != want.HeldTotal(app) {
					t.Fatalf("op %d: %s holds %v (total %d), oracle %v (total %d)", i, app, g, got.HeldTotal(app), w, want.HeldTotal(app))
				}
			}
			for m := range topo.NumMachines() {
				if g, w := got.FreeOn(MachineID(m)), want.FreeOn(MachineID(m)); g != w {
					t.Fatalf("op %d: machine %d has %d free, oracle %d", i, m, g, w)
				}
			}
			if g, w := got.Apps(), want.Apps(); !slices.Equal(g, w) {
				t.Fatalf("op %d: Apps %v, oracle %v", i, g, w)
			}
			if g, w := got.Validate(), want.Validate(); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("op %d: Validate %v, oracle %v", i, g, w)
			}
		}
	})
}

// TestHeldNeverAliasesState: what Held and ReleaseAll return, and the
// allocation Grant was given, are the caller's. Changing them leaves the
// state alone, and granting or releasing afterwards leaves them alone.
func TestHeldNeverAliasesState(t *testing.T) {
	s := NewState(mustTopo(t, 4, 8, 2))
	grant := Alloc{0: 2, 1: 1}
	if err := s.Grant("a", grant); err != nil {
		t.Fatal(err)
	}
	grant[0] = 7
	held := s.Held("a")
	held[2] = 5
	if err := s.Grant("a", Alloc{0: 1, 3: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Release("a", Alloc{1: 1}); err != nil {
		t.Fatal(err)
	}
	if want := (Alloc{0: 3, 3: 2}); !s.Held("a").Equal(want) {
		t.Errorf("state holds %v, want %v", s.Held("a"), want)
	}
	if want := (Alloc{0: 2, 1: 1, 2: 5}); !held.Equal(want) {
		t.Errorf("the earlier Held copy became %v, want %v", held, want)
	}
	released := s.ReleaseAll("a")
	released[0] = 8
	if err := s.Grant("a", Alloc{0: 1}); err != nil {
		t.Fatal(err)
	}
	if want := (Alloc{0: 8, 3: 2}); !released.Equal(want) {
		t.Errorf("the released allocation became %v, want %v", released, want)
	}
	if want := (Alloc{0: 1}); !s.Held("a").Equal(want) {
		t.Errorf("state holds %v after ReleaseAll and a new grant, want %v", s.Held("a"), want)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

// TestStateGrantReleaseAllocs pins the in-place holdings: a grant onto
// machines the app already holds and a release that leaves GPUs behind cost
// no allocation.
func TestStateGrantReleaseAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewState(mustTopo(t, 4, 1024, 2))
	if err := s.Grant("a", Alloc{0: 2, 1: 2}); err != nil {
		t.Fatal(err)
	}
	more := Alloc{0: 1, 1: 1}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Grant("a", more); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a grant onto an existing holding allocates %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Release("a", more); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a partial release allocates %.0f objects, want 0", n)
	}
	if want := (Alloc{0: 2, 1: 2}); !s.Held("a").Equal(want) {
		t.Errorf("state holds %v, want %v", s.Held("a"), want)
	}
}
