package shard

import (
	"fmt"
	"testing"
)

func TestRingDeterministicLookup(t *testing.T) {
	// The mapping must depend only on the member set, never on insertion
	// order: every process computing the ring from the shard count has to
	// agree on routing.
	a := NewRing(0)
	for _, m := range []string{"shard-0", "shard-1", "shard-2", "shard-3"} {
		a.Add(m)
	}
	b := NewRing(0)
	for _, m := range []string{"shard-3", "shard-1", "shard-0", "shard-2"} {
		b.Add(m)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("app-%d", i)
		if got, want := a.Lookup(key), b.Lookup(key); got != want {
			t.Fatalf("lookup(%q) depends on insertion order: %q vs %q", key, got, want)
		}
	}
	if len(a.members) != 4 {
		t.Errorf("size = %d, want 4", len(a.members))
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(DefaultVirtualNodes)
	n := 4
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("shard-%d", i))
	}
	counts := make(map[string]int)
	keys := 10000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("app-%d", i))]++
	}
	if len(counts) != n {
		t.Fatalf("only %d of %d members own keys: %v", len(counts), n, counts)
	}
	for m, c := range counts {
		frac := float64(c) / float64(keys)
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("member %s owns %.1f%% of keys, want a roughly even split: %v",
				m, 100*frac, counts)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing(8)
	if r.Lookup("anything") != "" {
		t.Error("empty ring should return empty owner")
	}
	r.Add("")
	if len(r.members) != 0 {
		t.Error("empty member name must be ignored")
	}
	r.Add("only")
	r.Add("only") // re-add is a no-op
	if len(r.members) != 1 {
		t.Errorf("re-add changed membership: %v", r.members)
	}
	if r.Lookup("x") != "only" || r.Lookup("y") != "only" {
		t.Error("single member must own every key")
	}
}
