package sim

// The simulator's event core: every future decision point — an app arrival,
// a lease expiry, a projected job completion, a machine failure or recovery —
// is one typed entry in an indexed binary min-heap keyed by simulated time.
// The heap replaces the per-round linear rescans of apps and leases the
// original event loop performed: finding the next event is a peek, and each
// state mutation updates only the entries it invalidates.
//
// Entries are owned by the objects they describe (an AppState owns its
// arrival and completion entries, the Simulator owns the one lease-expiry
// entry, aimed at the lease book's earliest expiry, …) and are inserted by
// pointer, so updating or removing an event is O(log n) via the entry's
// tracked heap index — no lazy-deletion tombstones, no allocation per
// scheduling round.

// eventKind labels the typed events the simulator schedules.
type eventKind uint8

const (
	// evArrival fires when a pending app's submit time is reached.
	evArrival eventKind = iota
	// evLeaseExpiry fires when the earliest outstanding GPU lease lapses
	// back to the free pool.
	evLeaseExpiry
	// evCompletion is an app's projected next job completion. Unlike the
	// other kinds it is a projection: it is re-aimed whenever the app's
	// allocation changes or its jobs integrate progress.
	evCompletion
	// evFailure fires when an injected machine failure begins.
	evFailure
	// evRecovery fires when a failed machine comes back online.
	evRecovery
)

// event is one entry in the simulator's event heap.
type event struct {
	time float64
	kind eventKind
	// seq is the entry's insertion order, used as a deterministic tie-break
	// between entries with equal times so heap layout (and therefore pop
	// order) never depends on map iteration order.
	seq uint64
	// index is the entry's current position in the heap, or -1 while the
	// entry is not enqueued.
	index int
}

// eventHeap is an indexed binary min-heap of events ordered by (time, seq).
type eventHeap struct {
	items []*event
	seq   uint64
}

// peek returns the earliest event without removing it, or nil when empty.
func (h *eventHeap) peek() *event {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *eventHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (h *eventHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

// push enqueues e at e.time, assigning a fresh tie-break sequence number.
// e must not already be enqueued.
func (h *eventHeap) push(e *event) {
	h.seq++
	e.seq = h.seq
	e.index = len(h.items)
	h.items = append(h.items, e)
	h.up(e.index)
}

// pop removes and returns the earliest event, or nil when empty.
func (h *eventHeap) pop() *event {
	if len(h.items) == 0 {
		return nil
	}
	e := h.items[0]
	h.removeAt(0)
	return e
}

// remove detaches e from the heap if it is enqueued; it is a no-op otherwise.
func (h *eventHeap) remove(e *event) {
	if e.index >= 0 {
		h.removeAt(e.index)
	}
}

// update re-keys an enqueued e to time t; if e is not enqueued it is pushed.
func (h *eventHeap) update(e *event, t float64) {
	if e.index < 0 {
		e.time = t
		h.push(e)
		return
	}
	e.time = t
	if !h.down(e.index) {
		h.up(e.index)
	}
}

func (h *eventHeap) removeAt(i int) {
	last := len(h.items) - 1
	e := h.items[i]
	if i != last {
		h.swap(i, last)
	}
	h.items[last] = nil
	h.items = h.items[:last]
	e.index = -1
	if i != last && i < len(h.items) {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts the entry at i toward the leaves; it reports whether it moved.
func (h *eventHeap) down(i int) bool {
	start := i
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return i != start
}
