package cluster

import (
	"strings"
	"testing"
)

func TestAllocArenaSparseLifecycle(t *testing.T) {
	ar := NewAllocArena()
	a := ar.Sparse()
	a[2] = 4
	b := ar.Sparse()
	b[2] = 9
	if ar.Lent() != 2 {
		t.Fatalf("Lent = %d, want 2", ar.Lent())
	}
	if a[2] != 4 {
		t.Fatalf("lent maps must be distinct until Reset")
	}
	ar.Reset()
	if ar.Lent() != 0 || ar.FreeSparse() != 2 {
		t.Fatalf("after Reset: lent=%d free=%d", ar.Lent(), ar.FreeSparse())
	}
	c := ar.Sparse()
	if len(c) != 0 {
		t.Fatalf("recycled sparse map not cleared: %v", c)
	}
	if ar.FreeSparse() != 1 {
		t.Fatalf("Sparse should pop the free list, free=%d", ar.FreeSparse())
	}
}

// TestAllocZeroEntryCanonicalization pins the Add/Sub satellite fix: zero
// entries in the operand must not introduce stored zeros (which would break
// Equal/Key canonicalization) and Sub's error must report the actual held
// count rather than the cloned-out zero.
func TestAllocZeroEntryCanonicalization(t *testing.T) {
	tests := []struct {
		name string
		a, b Alloc
		add  Alloc // expected a.Add(b); nil to skip
	}{
		{name: "zero entry on absent machine", a: Alloc{1: 2}, b: Alloc{5: 0}, add: Alloc{1: 2}},
		{name: "zero entry on present machine", a: Alloc{1: 2}, b: Alloc{1: 0}, add: Alloc{1: 2}},
		{name: "all zero operand", a: Alloc{}, b: Alloc{3: 0, 7: 0}, add: Alloc{}},
		{name: "mixed zero and real", a: Alloc{1: 1}, b: Alloc{1: 0, 2: 3}, add: Alloc{1: 1, 2: 3}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.a.Add(tc.b)
			if !got.Equal(tc.add) {
				t.Fatalf("Add = %v, want %v", got, tc.add)
			}
			for m, n := range got {
				if n == 0 {
					t.Fatalf("Add stored a zero entry for machine %d: %v", m, got)
				}
			}
			if got.Key() != tc.add.Key() {
				t.Fatalf("Key diverged: %q vs %q", got.Key(), tc.add.Key())
			}
			sub, err := got.Sub(tc.b)
			if err != nil {
				t.Fatalf("Sub of zero entries failed: %v", err)
			}
			for m, n := range sub {
				if n == 0 {
					t.Fatalf("Sub stored a zero entry for machine %d: %v", m, sub)
				}
			}
			if !sub.Equal(tc.a) {
				t.Fatalf("Add then Sub of b did not restore a: %v vs %v", sub, tc.a)
			}
		})
	}
}

func TestAllocSubErrorReportsHeldCount(t *testing.T) {
	a := Alloc{4: 2}
	if _, err := a.Sub(Alloc{4: 5}); err == nil || !strings.Contains(err.Error(), "(have 2)") {
		t.Fatalf("Sub error should report held count 2, got: %v", err)
	}
	if _, err := a.Sub(Alloc{9: 1}); err == nil || !strings.Contains(err.Error(), "(have 0)") {
		t.Fatalf("Sub from absent machine should report have 0, got: %v", err)
	}
}
