package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"themis"
	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/placement"
	"themis/internal/workload"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share its op span as ancestor; times are nanoseconds since the tracer's
// epoch.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. Sweep
// workers and HTTP handlers record concurrently, hence the mutex.
type tracer struct {
	workload string
	epoch    time.Time
	next     atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// newID reserves a span ID so children can name their parent before the
// parent has ended.
func (t *tracer) newID() int64 { return t.next.Add(1) }

// record stores a finished span under an ID reserved with newID.
func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// leaf records a finished span that has no children.
func (t *tracer) leaf(parent int64, name string, start, end time.Time) {
	t.record(t.newID(), parent, name, start, end)
}

// write dumps the spans as one JSON array to <dir>/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// timedPolicy wraps a scheduling policy at the sim.Policy boundary: every
// Allocate call is one scheduling round of the simulator.
type timedPolicy struct {
	inner  themis.SchedulerPolicy
	tr     *tracer
	parent int64 // the enclosing sim.run span
	ns     atomic.Int64
	calls  atomic.Int64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Allocate(now float64, free themis.Alloc, view *themis.View) (map[themis.AppID]themis.Alloc, error) {
	start := time.Now()
	out, err := p.inner.Allocate(now, free, view)
	end := time.Now()
	p.ns.Add(end.Sub(start).Nanoseconds())
	p.calls.Add(1)
	p.tr.leaf(p.parent, "schedulers.allocate."+p.inner.Name(), start, end)
	return out, err
}

// placeTuple is one call seen at the sim.Packer boundary, kept so the three
// placement engines can be replayed over identical inputs afterwards.
type placeTuple struct {
	free, anchor cluster.Alloc
	want         int
	c            placement.Constraint
}

// packStats accumulates what every timedPacker of one run saw. Packers are
// built per simulation inside sweep workers, so the stats are shared and
// concurrency-safe.
type packStats struct {
	parent atomic.Int64 // the current operation's span
	ns     atomic.Int64
	calls  atomic.Int64

	mu     sync.Mutex
	tuples []placeTuple
}

// maxPlaceTuples bounds the captured placement inputs (and their memory).
const maxPlaceTuples = 10000

func (s *packStats) capture(free, anchor cluster.Alloc, want int, c placement.Constraint) {
	s.mu.Lock()
	if len(s.tuples) < maxPlaceTuples {
		s.tuples = append(s.tuples, placeTuple{free.Clone(), anchor.Clone(), want, c})
	}
	s.mu.Unlock()
}

// timedPacker wraps a placement engine at the sim.Packer boundary.
type timedPacker struct {
	inner themis.Packer
	tr    *tracer
	stats *packStats
}

func (p *timedPacker) Place(free, anchor cluster.Alloc, want int, c placement.Constraint) cluster.Alloc {
	p.stats.capture(free, anchor, want, c)
	start := time.Now()
	out := p.inner.Place(free, anchor, want, c)
	end := time.Now()
	p.stats.ns.Add(end.Sub(start).Nanoseconds())
	p.stats.calls.Add(1)
	p.tr.leaf(p.stats.parent.Load(), "pack.place", start, end)
	return out
}

// bidCapture is one participant's bid as the arbiter received it, with the
// offer it answered; the hidden-payment replay runs the auction over these.
type bidCapture struct {
	shard int
	offer cluster.Alloc
	bid   core.BidTable
}

// bidderStats accumulates the time spent inside the synthetic bidders — the
// load generator's own cost, reported so it can be subtracted — and the last
// round's bids.
type bidderStats struct {
	probeNs atomic.Int64
	bidNs   atomic.Int64

	mu   sync.Mutex
	bids []bidCapture
}

func (s *bidderStats) resetRound() {
	s.mu.Lock()
	s.bids = s.bids[:0]
	s.mu.Unlock()
}

// timedBidder wraps an in-process bidder at the core.Bidder boundary.
type timedBidder struct {
	inner core.Bidder
	shard int
	stats *bidderStats
}

func (b *timedBidder) ID() workload.AppID { return b.inner.ID() }

func (b *timedBidder) ReportRho(now float64, current cluster.Alloc) float64 {
	start := time.Now()
	rho := b.inner.ReportRho(now, current)
	b.stats.probeNs.Add(time.Since(start).Nanoseconds())
	return rho
}

func (b *timedBidder) PrepareBid(now float64, offer, current cluster.Alloc) core.BidTable {
	start := time.Now()
	bid := b.inner.PrepareBid(now, offer, current)
	b.stats.bidNs.Add(time.Since(start).Nanoseconds())
	// The offer is the shard's free vector, shared by every participant of
	// the round and only read, so the capture keeps it by reference.
	b.stats.mu.Lock()
	b.stats.bids = append(b.stats.bids, bidCapture{shard: b.shard, offer: offer, bid: bid})
	b.stats.mu.Unlock()
	return bid
}

func (b *timedBidder) UnmetParallelism(current cluster.Alloc) int {
	return b.inner.UnmetParallelism(current)
}

func (b *timedBidder) GangSize() int { return b.inner.GangSize() }

// endpointStats is one HTTP endpoint's traffic as the middleware saw it.
type endpointStats struct {
	calls atomic.Int64
	ns    atomic.Int64
	bytes atomic.Int64 // request + response bodies
}

// httpStats accumulates the loopback listener's traffic: the three agent
// endpoints, the arbiter's auction endpoint, connections opened, and the
// last round's bid exchanges (request and response bodies) for the codec and
// hidden-payment replays.
type httpStats struct {
	tr      *tracer
	parent  atomic.Int64 // the current round's span
	rho     endpointStats
	bid     endpointStats
	alloc   endpointStats
	auction endpointStats
	conns   atomic.Int64

	mu       sync.Mutex
	bidReqs  [][]byte
	bidResps [][]byte
}

// reset zeroes the counters once warm-up is over. The middleware holds the
// receiver, so the fields are cleared in place.
func (h *httpStats) reset() {
	for _, ep := range []*endpointStats{&h.rho, &h.bid, &h.alloc, &h.auction} {
		ep.calls.Store(0)
		ep.ns.Store(0)
		ep.bytes.Store(0)
	}
	h.conns.Store(0)
	h.resetRound()
}

func (h *httpStats) resetRound() {
	h.mu.Lock()
	h.bidReqs, h.bidResps = h.bidReqs[:0], h.bidResps[:0]
	h.mu.Unlock()
}

func (h *httpStats) endpoint(path string) (*endpointStats, string) {
	switch {
	case strings.HasSuffix(path, "/v1/rho"):
		return &h.rho, "rpc.agent.rho"
	case strings.HasSuffix(path, "/v1/bid"):
		return &h.bid, "rpc.agent.bid"
	case strings.HasSuffix(path, "/v1/allocation"):
		return &h.alloc, "rpc.agent.allocation"
	case strings.HasSuffix(path, "/v1/auction"):
		return &h.auction, "rpc.auction_handler"
	}
	return nil, ""
}

// teeWriter counts the response body and, when buf is set, keeps a copy.
type teeWriter struct {
	http.ResponseWriter
	n   int64
	buf *bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	if w.buf != nil {
		w.buf.Write(p)
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// middleware times every protocol request served by next. Bid exchanges are
// also captured body for body.
func (h *httpStats) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep, name := h.endpoint(r.URL.Path)
		if ep == nil {
			next.ServeHTTP(w, r)
			return
		}
		tw := &teeWriter{ResponseWriter: w}
		var reqBody []byte
		if ep == &h.bid {
			var err error
			if reqBody, err = io.ReadAll(r.Body); err != nil {
				http.Error(w, fmt.Sprintf("bench: reading bid request: %v", err), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(reqBody))
			tw.buf = new(bytes.Buffer)
		}
		start := time.Now()
		next.ServeHTTP(tw, r)
		end := time.Now()
		ep.calls.Add(1)
		ep.ns.Add(end.Sub(start).Nanoseconds())
		ep.bytes.Add(r.ContentLength + tw.n)
		h.tr.leaf(h.parent.Load(), name, start, end)
		if tw.buf != nil {
			h.mu.Lock()
			h.bidReqs = append(h.bidReqs, reqBody)
			h.bidResps = append(h.bidResps, tw.buf.Bytes())
			h.mu.Unlock()
		}
	})
}
