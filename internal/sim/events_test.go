package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	times := []float64{5, 1, 3, 2, 8, 0.5, 3, 1}
	events := make([]*event, len(times))
	for i, tm := range times {
		events[i] = &event{kind: evCompletion, time: tm, index: -1}
		h.push(events[i])
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	for i, want := range sorted {
		e := h.pop()
		if e == nil || e.time != want {
			t.Fatalf("pop %d: got %v, want %v", i, e, want)
		}
		if e.index != -1 {
			t.Fatalf("popped event retains heap index %d", e.index)
		}
	}
	if h.pop() != nil {
		t.Fatal("pop on empty heap should return nil")
	}
}

func TestEventHeapEqualTimesPopInInsertionOrder(t *testing.T) {
	var h eventHeap
	var events []*event
	for i := 0; i < 10; i++ {
		e := &event{kind: evLeaseExpiry, time: 7, index: -1}
		events = append(events, e)
		h.push(e)
	}
	for i, want := range events {
		if got := h.pop(); got != want {
			t.Fatalf("pop %d: equal-time events must pop in insertion order", i)
		}
	}
}

func TestEventHeapRemoveAndUpdate(t *testing.T) {
	var h eventHeap
	a := &event{time: 1, index: -1}
	b := &event{time: 2, index: -1}
	c := &event{time: 3, index: -1}
	h.push(a)
	h.push(b)
	h.push(c)

	h.remove(b)
	if b.index != -1 {
		t.Fatal("removed event retains heap index")
	}
	h.remove(b) // removing twice is a no-op
	if len(h.items) != 2 {
		t.Fatalf("len = %d after remove, want 2", len(h.items))
	}

	h.update(c, 0.5) // re-key to the front
	if e := h.peek(); e != c {
		t.Fatalf("peek = %v, want re-keyed event", e)
	}
	h.update(b, 0.25) // updating a detached event re-inserts it
	if e := h.pop(); e != b {
		t.Fatal("update should re-insert a detached event")
	}
	if e := h.pop(); e != c || h.pop() != a || len(h.items) != 0 {
		t.Fatalf("remaining pop order wrong (got %v)", e)
	}
}

func TestEventHeapRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h eventHeap
	live := map[*event]bool{}
	for op := 0; op < 5000; op++ {
		switch {
		case len(h.items) == 0 || rng.Float64() < 0.5:
			e := &event{time: rng.Float64() * 100, index: -1}
			h.push(e)
			live[e] = true
		case rng.Float64() < 0.5:
			e := h.pop()
			delete(live, e)
		default:
			// Remove or re-key an arbitrary live event.
			for e := range live {
				if rng.Float64() < 0.5 {
					h.remove(e)
					delete(live, e)
				} else {
					h.update(e, rng.Float64()*100)
				}
				break
			}
		}
		if len(h.items) != len(live) {
			t.Fatalf("op %d: heap len %d != live %d", op, len(h.items), len(live))
		}
		for i := range h.items {
			if h.items[i].index != i {
				t.Fatalf("op %d: entry at %d has index %d", op, i, h.items[i].index)
			}
			if i > 0 && h.less(i, (i-1)/2) {
				t.Fatalf("op %d: heap invariant violated at %d", op, i)
			}
		}
	}
	// Drain: must come out time-ordered.
	prev := -1.0
	for len(h.items) > 0 {
		e := h.pop()
		if e.time < prev {
			t.Fatalf("drain out of order: %v after %v", e.time, prev)
		}
		prev = e.time
	}
}
