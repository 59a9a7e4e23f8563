package core

// The lease oracle: LeaseTable is the lease code rpc.ArbiterServer ran before
// LeaseBook, kept verbatim (less the Granted field nothing read) as what
// FuzzLeaseBookMatchesTable checks the book against. It keeps its leases in
// grant order and sorts each Expired result stably by expiry, where the book
// keeps (expiry, grant) order as it goes. Drop and Trim, at the end, are the
// oracle's versions of the book's two mutations the table never had.

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"themis/internal/cluster"
	"themis/internal/workload"
)

// LeaseTable tracks the outstanding leases of a cluster. It is a plain data
// structure (no locking); the Arbiter or simulator owning it serialises
// access.
type LeaseTable struct {
	leases  []Lease // in grant order
	expired []Lease // Expired's result, reused by the next call
}

// NewLeaseTable returns an empty lease table.
func NewLeaseTable() *LeaseTable { return &LeaseTable{} }

// Grant records a lease for app over alloc from now until now+duration.
// Empty allocations are ignored.
func (t *LeaseTable) Grant(app workload.AppID, alloc cluster.Alloc, now, duration float64) {
	if alloc.Total() == 0 {
		return
	}
	t.leases = append(t.leases, Lease{App: app, Alloc: alloc.Clone(), Expiry: now + duration})
}

// Expired removes and returns all leases with expiry ≤ now, soonest expiry
// first and, among leases expiring at the same instant, in grant order — the
// order the simulator reclaims them in. The slice is valid until the next
// Expired call.
func (t *LeaseTable) Expired(now float64) []Lease {
	expired, live := t.expired[:0], t.leases[:0]
	for _, l := range t.leases {
		if l.Expiry <= now {
			expired = append(expired, l)
		} else {
			live = append(live, l)
		}
	}
	clear(t.leases[len(live):]) // drop the moved-out leases' maps
	t.leases, t.expired = live, expired
	slices.SortStableFunc(expired, func(a, b Lease) int { return cmp.Compare(a.Expiry, b.Expiry) })
	return expired
}

// Len returns the number of outstanding leases.
func (t *LeaseTable) Len() int { return len(t.leases) }

// byExpiry returns the table's leases soonest expiry first, in grant order
// among ties: the order the book keeps.
func (t *LeaseTable) byExpiry() []Lease {
	out := slices.Clone(t.leases)
	slices.SortStableFunc(out, func(a, b Lease) int { return cmp.Compare(a.Expiry, b.Expiry) })
	return out
}

// Drop removes every lease of app.
func (t *LeaseTable) Drop(app workload.AppID) {
	t.leases = slices.DeleteFunc(t.leases, func(l Lease) bool { return l.App == app })
}

// Trim removes count GPUs on machine m from app's leases, soonest expiry
// first and in grant order among ties, keeping leases trimmed to empty.
func (t *LeaseTable) Trim(app workload.AppID, m cluster.MachineID, count int) {
	for _, l := range t.byExpiry() {
		if l.App != app {
			continue
		}
		take := min(l.Alloc[m], count)
		l.Alloc[m] -= take
		if l.Alloc[m] == 0 {
			delete(l.Alloc, m)
		}
		count -= take
	}
}

// FuzzLeaseBookMatchesTable replays a fuzzed sequence of grants, expiries,
// drops and trims against the book and the table. Grant times step backwards
// as well as forwards and land on shared instants, so expiry ties and grants
// out of clock order are common. After every operation the book's view must
// be the table's leases in (expiry, grant) order, Len and Next must agree,
// and every Expire must return what Expired does, lease for lease.
func FuzzLeaseBookMatchesTable(f *testing.F) {
	// Same-instant grants for three apps, a grant back in time, an expiry
	// of the tie, a trim and a drop.
	f.Add([]byte{0, 0, 1, 2, 0, 0, 1, 1, 1, 0, 0, 2, 2, 3, 0, 0, 0, 0, 1, 0xf8, 1, 30, 3, 1, 1, 1, 2, 0, 1, 100})
	rng := rand.New(rand.NewSource(34))
	for range 8 {
		data := make([]byte, 256)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := leaseBookMismatch(data); err != nil {
			t.Fatal(err)
		}
	})
}

// leaseBookMismatch runs one fuzzed operation sequence (five bytes per
// operation) and reports the first difference between book and table.
func leaseBookMismatch(data []byte) error {
	book, table := new(LeaseBook), NewLeaseTable()
	now := 100.0
	for op := 0; len(data) >= 5; op, data = op+1, data[5:] {
		app := workload.AppID(fmt.Sprintf("app%d", data[1]%4))
		m := cluster.MachineID(data[2] % 3)
		switch data[0] % 4 {
		case 0: // grant, moving the clock by −8…+7 whole minutes first
			now += float64(int8(data[4]) % 8)
			alloc := cluster.Alloc{m: int(data[3] % 3), (m + 1) % 3: int(data[3] / 3 % 2)}
			duration := float64(5 * (1 + data[3]/6%2)) // 5 or 10: frequent expiry ties
			book.Grant(app, alloc, now, duration)
			table.Grant(app, alloc, now, duration)
		case 1: // expire, up to 31 minutes either side of the clock
			cutoff := now + float64(int8(data[4])%32)
			got, want := book.Expire(cutoff), table.Expired(cutoff)
			if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				return fmt.Errorf("op %d: Expire(%v) = %v, the table's Expired = %v", op, cutoff, got, want)
			}
		case 2:
			book.Drop(app)
			table.Drop(app)
		case 3:
			count := int(data[3] % 4)
			book.Trim(app, m, count)
			table.Trim(app, m, count)
		}
		want := table.byExpiry()
		if got := book.leases; len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			return fmt.Errorf("op %d: the book holds %v, the table %v", op, got, want)
		}
		if book.Len() != table.Len() {
			return fmt.Errorf("op %d: Len = %d, the table's = %d", op, book.Len(), table.Len())
		}
		next, ok := book.Next()
		if ok != (len(want) > 0) || ok && next != want[0].Expiry {
			return fmt.Errorf("op %d: Next = (%v, %v), the table's earliest expiry is %v", op, next, ok, want)
		}
	}
	return nil
}
