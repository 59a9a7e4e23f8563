package core

import (
	"cmp"
	"slices"

	"themis/internal/cluster"
	"themis/internal/workload"
)

// Lease records one granted allocation and when it expires. Every GPU in a
// Themis cluster is held under a lease; when a lease expires the GPUs return
// to the free pool and are re-auctioned (§3.1).
type Lease struct {
	App     workload.AppID
	Alloc   cluster.Alloc
	Granted float64
	Expiry  float64
}

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
	t.leases = append(t.leases, Lease{App: app, Alloc: alloc.Clone(), Granted: now, Expiry: now + duration})
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
