package core

import (
	"themis/internal/cluster"
	"themis/internal/workload"
)

// Lease records one granted allocation and when it expires. Every GPU in a
// Themis cluster is held under a lease; when a lease expires the GPUs return
// to the free pool and are re-auctioned (§3.1).
type Lease struct {
	App    workload.AppID
	Alloc  cluster.Alloc
	Expiry float64
}

// LeaseBook holds the outstanding leases of a cluster in (expiry, grant)
// order, so the due leases are always a prefix and the earliest expiry is one
// timer (Next) its owner schedules, not one per lease. It is the lease code
// of both the simulator and rpc.ArbiterServer: a plain data structure (no
// locking) whose owner serialises access.
//
// The zero value is an empty book. The book owns every lease's alloc map:
// Grant copies into a map from the book's pool and Expire and Drop return
// maps to it, so a warmed grant → expire → re-grant cycle allocates nothing.
type LeaseBook struct {
	leases  []Lease         // live, in (expiry, grant) order
	expired []Lease         // Expire's result, recycled by the next call
	pool    []cluster.Alloc // cleared maps, ready for Grant
}

// Grant records a lease for app over a copy of alloc from now until
// now+duration. It goes after every lease expiring no later, so leases
// expiring at the same instant keep grant order, and grants in clock order
// append in O(1). Empty allocations are ignored.
func (b *LeaseBook) Grant(app workload.AppID, alloc cluster.Alloc, now, duration float64) {
	if alloc.Total() == 0 {
		return
	}
	var m cluster.Alloc
	if n := len(b.pool); n > 0 {
		m, b.pool = b.pool[n-1], b.pool[:n-1]
	} else {
		m = make(cluster.Alloc, len(alloc))
	}
	for k, v := range alloc {
		if v != 0 {
			m[k] = v
		}
	}
	l := Lease{App: app, Alloc: m, Expiry: now + duration}
	i := len(b.leases)
	for i > 0 && b.leases[i-1].Expiry > l.Expiry {
		i--
	}
	b.leases = append(b.leases, Lease{})
	copy(b.leases[i+1:], b.leases[i:])
	b.leases[i] = l
}

// Next returns the earliest expiry of an outstanding lease, if any.
func (b *LeaseBook) Next() (float64, bool) {
	if len(b.leases) == 0 {
		return 0, false
	}
	return b.leases[0].Expiry, true
}

// Expire removes and returns the leases expiring at or before cutoff, soonest
// first and in grant order among ties. The slice and its maps are valid until
// the next Expire, which recycles them.
func (b *LeaseBook) Expire(cutoff float64) []Lease {
	for _, l := range b.expired {
		b.recycle(l.Alloc)
	}
	n := 0
	for n < len(b.leases) && b.leases[n].Expiry <= cutoff {
		n++
	}
	b.expired = append(b.expired[:0], b.leases[:n]...)
	if n > 0 {
		live := copy(b.leases, b.leases[n:])
		clear(b.leases[live:])
		b.leases = b.leases[:live]
	}
	return b.expired
}

// Drop removes every lease app holds and recycles their maps: an app that
// finished has released its GPUs already, so its leases must never expire.
func (b *LeaseBook) Drop(app workload.AppID) {
	live := b.leases[:0]
	for _, l := range b.leases {
		if l.App == app {
			b.recycle(l.Alloc)
		} else {
			live = append(live, l)
		}
	}
	clear(b.leases[len(live):])
	b.leases = live
}

// Trim removes count GPUs on machine m from app's leases, soonest expiry
// first, so later expiries do not release GPUs a machine failure already
// revoked. A lease trimmed to empty stays in the book: its expiry still
// re-splits the app's allocation and applies the restart pause.
func (b *LeaseBook) Trim(app workload.AppID, m cluster.MachineID, count int) {
	for _, l := range b.leases {
		if count == 0 {
			break
		}
		if l.App != app || l.Alloc[m] == 0 {
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

// Len returns the number of outstanding leases.
func (b *LeaseBook) Len() int { return len(b.leases) }

// recycle clears m and returns it to the pool for the next Grant.
func (b *LeaseBook) recycle(m cluster.Alloc) {
	clear(m)
	b.pool = append(b.pool, m)
}
