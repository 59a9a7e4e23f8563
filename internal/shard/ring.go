// Package shard partitions a Themis deployment across arbiter shards: a
// consistent-hash ring maps every app to its home shard and Split carves the
// cluster topology into per-shard capacity partitions. Every shard lives in
// the one arbiterd process (arbiterd -shards N); the package is plain data
// structures with no I/O.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the number of ring points per member when a Ring is
// built with vnodes <= 0. More points smooth the key distribution; 64 keeps
// the per-member imbalance under ~15% for small member counts.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring with virtual nodes. The app→shard mapping
// depends only on the member set and the vnode count — never on insertion
// order — so every process that knows the shard count computes the same
// routing. A Ring is built once and only read afterwards; it is not safe for
// concurrent mutation.
type Ring struct {
	vnodes  int
	members map[string]bool
	points  []ringPoint // sorted by (hash, owner)
}

type ringPoint struct {
	hash  uint64
	owner string
}

// NewRing returns an empty ring with the given virtual-node count per member
// (<= 0 uses DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// hash64 is the ring's point and key hash: FNV-1a finished with a
// splitmix64-style avalanche. Raw FNV clusters badly on the short,
// near-identical strings ring points are made of ("shard-0#17"), which
// skews key ownership several-fold; the mixer spreads those clusters over
// the whole ring. Pure function of the string, so every process agrees.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member; re-adding is a no-op.
func (r *Ring) Add(member string) {
	if member == "" || r.members[member] {
		return
	}
	r.members[member] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", member, v)), owner: member})
	}
	r.sortPoints()
}

func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].owner < r.points[j].owner
	})
}

// Lookup returns the member owning key: the owner of the first ring point at
// or after the key's hash, wrapping around. An empty ring returns "".
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].owner
}
