package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// MaxSpans bounds the phase spans one round trace can carry. Rounds have a
// fixed phase structure (reclaim → probe → bid → solve → leftover → grant,
// plus reconcile/deliver on the sharded path), so eight slots cover every
// deployment without a per-round slice allocation.
const MaxSpans = 8

// Span is one timed phase inside a round, as an offset from the round's
// start.
type Span struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Round is one auction round's structured trace: identity, the headline
// counts, and up to MaxSpans phase spans. It is a plain value with no
// pointers into shared state, so building one on the caller's stack and
// handing it to RoundRing.Record costs no allocations.
type Round struct {
	Seq   uint64    // assigned by the ring
	Wall  time.Time // wall-clock start of the round
	Shard string    // the shard index, or "all" for the server's round over every shard
	Now   float64   // scheduling time the round ran at

	Offered    int // GPUs offered this round
	Granted    int // GPUs granted (auction + leftovers)
	Winners    int // apps that won a non-empty auction allocation
	Leftover   int // GPUs left after the auction (pre-leftover-pass)
	Reconciled int // GPUs moved by the sharded reconciliation round
	Agents     int // agents probed

	Total time.Duration // whole-round duration

	nspans int
	spans  [MaxSpans]Span
}

// AddSpan appends a phase span; spans past MaxSpans are dropped (rounds have
// a fixed phase structure, so this only fires on a programming error).
func (r *Round) AddSpan(name string, start, dur time.Duration) {
	if r.nspans >= MaxSpans {
		return
	}
	r.spans[r.nspans] = Span{Name: name, Start: start, Dur: dur}
	r.nspans++
}

// Spans returns the recorded phase spans.
func (r *Round) Spans() []Span { return r.spans[:r.nspans] }

// RoundRing keeps the last N round traces — the serving-path analog of the
// workload trace container: enough recent history to see what the arbiter
// just did (/debug/rounds, the SIGQUIT dump) without unbounded growth.
// Record copies the round into a preallocated slot under a short mutex; it
// runs once per round, not per metric, so it is deliberately not lock-free.
type RoundRing struct {
	mu  sync.Mutex
	buf []Round
	seq uint64
}

// NewRoundRing returns a ring holding the last n rounds (minimum 1).
func NewRoundRing(n int) *RoundRing {
	if n < 1 {
		n = 1
	}
	return &RoundRing{buf: make([]Round, n)}
}

// Record stores one round trace, assigning it the next sequence number.
func (rr *RoundRing) Record(rd Round) {
	rr.mu.Lock()
	rr.seq++
	rd.Seq = rr.seq
	rr.buf[int((rr.seq-1)%uint64(len(rr.buf)))] = rd
	rr.mu.Unlock()
}

// Snapshot returns the retained rounds, oldest first. It allocates — it
// serves the debug surface, never the round itself.
func (rr *RoundRing) Snapshot() []Round {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	n := uint64(len(rr.buf))
	out := make([]Round, 0, n)
	start := uint64(0)
	if rr.seq > n {
		start = rr.seq - n
	}
	for s := start; s < rr.seq; s++ {
		out = append(out, rr.buf[int(s%n)])
	}
	return out
}

// spanJSON and roundJSON are the wire form of /debug/rounds: durations in
// milliseconds (float) for human reading, spans as an explicit array.
type spanJSON struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

type roundJSON struct {
	Seq        uint64     `json:"seq"`
	Wall       time.Time  `json:"wall"`
	Shard      string     `json:"shard"`
	Now        float64    `json:"now"`
	Offered    int        `json:"offered_gpus"`
	Granted    int        `json:"granted_gpus"`
	Winners    int        `json:"winners"`
	Leftover   int        `json:"leftover_gpus"`
	Reconciled int        `json:"reconciled_gpus"`
	Agents     int        `json:"agents"`
	TotalMs    float64    `json:"total_ms"`
	Spans      []spanJSON `json:"spans"`
}

func toJSON(rd Round) roundJSON {
	out := roundJSON{
		Seq: rd.Seq, Wall: rd.Wall, Shard: rd.Shard, Now: rd.Now,
		Offered: rd.Offered, Granted: rd.Granted, Winners: rd.Winners,
		Leftover: rd.Leftover, Reconciled: rd.Reconciled, Agents: rd.Agents,
		TotalMs: ms(rd.Total),
		Spans:   make([]spanJSON, 0, rd.nspans),
	}
	for _, s := range rd.Spans() {
		out.Spans = append(out.Spans, spanJSON{Name: s.Name, StartMs: ms(s.Start), DurMs: ms(s.Dur)})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WriteJSON renders the retained rounds (oldest first) as a JSON document:
// {"rounds": [...]}.
func (rr *RoundRing) WriteJSON(w io.Writer) error {
	rounds := rr.Snapshot()
	out := struct {
		Rounds []roundJSON `json:"rounds"`
	}{Rounds: make([]roundJSON, 0, len(rounds))}
	for _, rd := range rounds {
		out.Rounds = append(out.Rounds, toJSON(rd))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteText renders the retained rounds human-readably, one line per round
// with its phase spans — the SIGQUIT dump format.
func (rr *RoundRing) WriteText(w io.Writer) {
	for _, rd := range rr.Snapshot() {
		fmt.Fprintf(w, "round %d shard=%s now=%.2f total=%.3fms offered=%d granted=%d winners=%d leftover=%d reconciled=%d agents=%d",
			rd.Seq, rd.Shard, rd.Now, ms(rd.Total), rd.Offered, rd.Granted, rd.Winners, rd.Leftover, rd.Reconciled, rd.Agents)
		for _, s := range rd.Spans() {
			fmt.Fprintf(w, " %s=%.3fms", s.Name, ms(s.Dur))
		}
		fmt.Fprintln(w)
	}
}
