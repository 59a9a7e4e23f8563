package core

import (
	"fmt"
	"testing"

	"themis/internal/cluster"
	"themis/internal/race"
	"themis/internal/workload"
)

func TestLeaseBook(t *testing.T) {
	b := new(LeaseBook)
	b.Grant("a", cluster.Alloc{0: 2}, 0, 20)
	b.Grant("a", cluster.Alloc{1: 2}, 5, 20)
	b.Grant("b", cluster.Alloc{2: 4}, 10, 20)
	b.Grant("c", cluster.NewAlloc(), 0, 20) // ignored
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if next, ok := b.Next(); !ok || next != 20 {
		t.Errorf("Next = (%v, %v), want the first expiry at 20", next, ok)
	}
	if exp := b.Expire(19.9); len(exp) != 0 || b.Len() != 3 {
		t.Errorf("Expire(19.9) = %v, want nothing before the first expiry at 20", exp)
	}
	exp := b.Expire(21)
	if len(exp) != 1 || exp[0].App != "a" || exp[0].Alloc.Total() != 2 {
		t.Errorf("Expire(21) = %v", exp)
	}
	if b.Len() != 2 {
		t.Errorf("Len after expiry = %d, want 2", b.Len())
	}
	// The rest expire soonest first.
	exp = b.Expire(100)
	if len(exp) != 2 || exp[0].App != "a" || exp[0].Expiry != 25 || exp[1].App != "b" || exp[1].Alloc.Total() != 4 {
		t.Errorf("Expire(100) = %v", exp)
	}
	if _, ok := b.Next(); ok || b.Len() != 0 || len(new(LeaseBook).Expire(100)) != 0 {
		t.Error("drained and empty books should hold no leases")
	}
}

// TestLeaseBookExpiresTiesInGrantOrder: leases expire soonest first, and
// leases granted at the same instant for the same term come back in the
// order they were granted — among enough others, granted out of clock order,
// that an insertion ignoring ties would reorder them.
func TestLeaseBookExpiresTiesInGrantOrder(t *testing.T) {
	b := new(LeaseBook)
	granted := make(map[workload.AppID]int)
	for i := range 60 {
		id := workload.AppID(fmt.Sprintf("app%02d", i))
		now := float64(i % 5)
		if i%3 == 0 {
			now = 2 // a third of the leases, all granted at one instant
		}
		b.Grant(id, cluster.Alloc{0: 1}, now, 20)
		granted[id] = i
	}
	exp := b.Expire(100)
	if len(exp) != 60 || b.Len() != 0 {
		t.Fatalf("Expire returned %d leases and kept %d, want all 60 returned", len(exp), b.Len())
	}
	for k := 1; k < len(exp); k++ {
		a, c := exp[k-1], exp[k]
		if a.Expiry > c.Expiry || a.Expiry == c.Expiry && granted[a.App] > granted[c.App] {
			t.Fatalf("position %d: %s (expiry %v, granted %d) before %s (expiry %v, granted %d)",
				k, a.App, a.Expiry, granted[a.App], c.App, c.Expiry, granted[c.App])
		}
	}
}

// TestLeaseBookTrimmedLeaseStillExpires: Trim takes GPUs from an app's
// soonest-expiring leases first, and a lease trimmed to empty stays in the
// book and is returned at its expiry like any other.
func TestLeaseBookTrimmedLeaseStillExpires(t *testing.T) {
	b := new(LeaseBook)
	b.Grant("a", cluster.Alloc{0: 2, 1: 1}, 0, 10)
	b.Grant("b", cluster.Alloc{0: 1}, 0, 10)
	b.Grant("a", cluster.Alloc{0: 1}, 1, 10)
	b.Trim("a", 0, 3) // both of the first lease's GPUs on 0, then the second's
	b.Trim("a", 1, 1) // the first lease's last GPU
	if b.Len() != 3 {
		t.Fatalf("Len after trimming = %d, want 3: trimmed leases stay", b.Len())
	}
	if next, ok := b.Next(); !ok || next != 10 {
		t.Errorf("Next = (%v, %v), want the trimmed lease's expiry 10", next, ok)
	}
	exp := b.Expire(10)
	if len(exp) != 2 || exp[0].App != "a" || exp[0].Alloc.Total() != 0 || exp[1].App != "b" || exp[1].Alloc.Total() != 1 {
		t.Fatalf("Expire(10) = %v, want a's emptied lease, then b's", exp)
	}
	exp = b.Expire(11)
	if len(exp) != 1 || exp[0].App != "a" || exp[0].Expiry != 11 || exp[0].Alloc.Total() != 0 {
		t.Errorf("Expire(11) = %v, want a's second lease, trimmed to empty", exp)
	}
}

// TestLeaseBookDroppedLeasesNeverExpire: after Drop, none of the app's leases
// is returned by Expire, and none sets Next.
func TestLeaseBookDroppedLeasesNeverExpire(t *testing.T) {
	b := new(LeaseBook)
	b.Grant("a", cluster.Alloc{0: 1}, 0, 10)
	b.Grant("b", cluster.Alloc{1: 1}, 1, 10)
	b.Grant("a", cluster.Alloc{2: 1}, 2, 10)
	b.Drop("a")
	if next, ok := b.Next(); !ok || next != 11 || b.Len() != 1 {
		t.Errorf("after Drop(a): Next = (%v, %v), Len = %d; want b's expiry 11 and one lease", next, ok, b.Len())
	}
	exp := b.Expire(100)
	if len(exp) != 1 || exp[0].App != "b" {
		t.Errorf("Expire(100) = %v, want b's lease alone", exp)
	}
	b.Grant("c", cluster.Alloc{0: 1}, 50, 10)
	b.Drop("c")
	if next, ok := b.Next(); ok || b.Len() != 0 {
		t.Errorf("after dropping the only app: Next = (%v, %v), Len = %d; want an empty book", next, ok, b.Len())
	}
}

// TestLeaseBookSteadyStateAllocs pins the book's map recycling: once warmed,
// a cycle that grants every app a lease and expires them all — each Grant
// drawing a map an earlier Expire handed back — allocates nothing.
func TestLeaseBookSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	apps := make([]workload.AppID, 32)
	for i := range apps {
		apps[i] = workload.AppID(fmt.Sprintf("app%02d", i))
	}
	alloc := cluster.Alloc{0: 2, 3: 1}
	b := new(LeaseBook)
	now := 0.0
	cycle := func() {
		for _, app := range apps {
			b.Grant(app, alloc, now, 1)
		}
		now++
		if exp := b.Expire(now); len(exp) != len(apps) {
			t.Fatalf("Expire(%v) returned %d leases, want %d", now, len(exp), len(apps))
		}
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a warmed grant → expire cycle allocates %.1f objects/op, want 0", allocs)
	}
}
