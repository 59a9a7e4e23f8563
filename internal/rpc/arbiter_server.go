package rpc

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/placement"
	"themis/internal/shard"
	"themis/internal/telemetry"
	"themis/internal/workload"
)

// emptyCurrent is the shared "holds nothing" allocation handed to the Arbiter
// (and to bidder probes) for every agent without GPUs. It must never be
// written: all Bidder implementations and the Arbiter treat the current
// allocation as read-only input.
var emptyCurrent = cluster.NewAlloc()

// RemoteBidder adapts a registered remote Agent to the Arbiter's Bidder
// interface: every call becomes an HTTP request to the agent daemon. A
// failing, unreachable or lying agent degrades gracefully — it reports an
// out-of-auction ρ and an empty bid, so one bad agent never blocks the
// cluster's auctions.
//
// A RemoteBidder is immutable after construction: re-registration installs a
// fresh bidder instead of mutating the old one, so an auction round holding a
// snapshot of the previous bidder never races with the replacement.
type RemoteBidder struct {
	AppID   workload.AppID
	Client  *AgentClient
	Demand  int
	Gang    int
	Timeout time.Duration
	// Map translates between this shard's local machine IDs and the global
	// cluster IDs the remote agent reasons about. Nil means the server's ID
	// space is already global (the unsharded deployment).
	Map *shard.Partition
}

// ID implements core.Bidder.
func (r *RemoteBidder) ID() workload.AppID { return r.AppID }

// Remote implements core.Remote: the server's fanout asks this bidder.
func (r *RemoteBidder) Remote() {}

func (r *RemoteBidder) ctx() (context.Context, context.CancelFunc) {
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return context.WithTimeout(context.Background(), timeout)
}

// toGlobal maps an allocation from part's shard-local machine IDs to the
// global ones agents reason about; a nil partition's IDs are already global
// (the unsharded deployment).
func toGlobal(part *shard.Partition, a cluster.Alloc) cluster.Alloc {
	if part == nil {
		return a
	}
	return part.ToGlobal(a)
}

// ReportRho implements core.Bidder over HTTP. Anything but a finite positive
// ρ — an unreachable agent, one with nothing left to run, or one answering
// garbage — reports the app as perfectly satisfied, so it never wins an
// auction it cannot consume and never poisons the Arbiter's ρ sort. A
// non-finite ρ counts as an error, like a failed call.
func (r *RemoteBidder) ReportRho(now float64, current cluster.Alloc) float64 {
	ctx, cancel := r.ctx()
	defer cancel()
	rho, err := r.Client.ProbeRho(ctx, now, toGlobal(r.Map, current))
	if err == nil && (math.IsNaN(rho) || math.IsInf(rho, 0)) {
		countError("/v1/rho")
	}
	if err != nil || !finitePositive(rho) {
		return 1
	}
	return rho
}

// finitePositive reports whether a remote ρ is usable: NaN fails every
// comparison, so it is rejected by rho > 0 like zero and negatives are.
func finitePositive(rho float64) bool { return rho > 0 && !math.IsInf(rho, 1) }

// PrepareBid implements core.Bidder over HTTP. Offers cross the wire in
// global machine IDs; the returned bid is translated back into the shard's
// local space. The answer is input from outside the process, so it is held to
// the contract the auction checks — this app's ID whatever the agent wrote,
// rows within the offer, an empty row, finite positive ρ — and an agent that
// breaks it degrades to the empty bid, like an unreachable one, instead of
// failing the round for every other bidder.
func (r *RemoteBidder) PrepareBid(now float64, offer, current cluster.Alloc) core.BidTable {
	ctx, cancel := r.ctx()
	defer cancel()
	empty := core.BidTable{App: r.AppID, Entries: []core.BidEntry{{Alloc: cluster.NewAlloc(), Rho: 1}}}
	bid, err := r.Client.RequestBid(ctx, now, toGlobal(r.Map, offer), toGlobal(r.Map, current))
	if err != nil {
		return empty
	}
	if !r.acceptBid(&bid, offer) {
		countError("/v1/bid")
		return empty
	}
	return bid
}

// acceptBid stamps the bid with this bidder's app, translates it into the
// shard's local machine IDs and validates it against the (local) offer.
func (r *RemoteBidder) acceptBid(bid *core.BidTable, offer cluster.Alloc) bool {
	bid.App = r.AppID
	for i, e := range bid.Entries {
		if !finitePositive(e.Rho) {
			return false
		}
		if r.Map != nil {
			local, err := r.Map.FromGlobal(e.Alloc)
			if err != nil {
				return false
			}
			bid.Entries[i].Alloc = local
		}
	}
	return bid.Validate(offer) == nil
}

// UnmetParallelism implements core.Bidder using the registered demand.
func (r *RemoteBidder) UnmetParallelism(current cluster.Alloc) int {
	return max(r.Demand-current.Total(), 0)
}

// GangSize implements core.Bidder.
func (r *RemoteBidder) GangSize() int { return max(r.Gang, 1) }

// registeredAgent is one app known to the arbiter: its Bidder plus the HTTP
// callback that receives allocation deliveries (nil for in-process bidders,
// which pull their allocation from auction responses instead). Entries are
// replaced wholesale on re-registration, never mutated, so auction snapshots
// can read them without holding the server's lock.
type registeredAgent struct {
	bidder core.Bidder
	notify *AgentClient
}

// ArbiterServer exposes a core.Arbiter over HTTP. Agents register themselves
// (POST /v1/register); an auction round over the currently free GPUs is
// triggered with POST /v1/auction (the arbiterd daemon does this
// periodically); GET /v1/status reports cluster state.
//
// Locking discipline: two mutexes with a strict order (auctionMu before mu).
//
//   - auctionMu serialises auction rounds end to end — reclaim, offer,
//     grant. The Arbiter's BidValuator scratch is single-auction state and
//     the free vector an auction offers must still be free when its grants
//     apply, so two rounds can never interleave. One auctionMu per shard is
//     exactly the "serialize auctions per shard" rule of the sharded
//     deployment; cross-shard rounds run concurrently because each shard has
//     its own Arbiter, state and auctionMu.
//   - mu guards the mutable registry and occupancy state (agents, state,
//     leases). It is held only for short map/state accesses (the longest is
//     the reconciliation round's one sweep of the registry, see unmetDemand)
//     and NEVER across network calls (probes, bids, deliveries — which run on fanout,
//     fanoutWidth at a time), so registration and status stay responsive
//     while a slow auction is in flight.
type ArbiterServer struct {
	arbiter *core.Arbiter
	topo    *cluster.Topology

	// shardLabel is the shard value on every metric series this server
	// records: "single" for an unsharded deployment, the shard index inside
	// a ShardedArbiterServer. tel holds the metric handles bound to it and
	// ring the last rounds' phase traces.
	shardLabel string
	tel        *serverTelemetry
	ring       *telemetry.RoundRing
	// part, when non-nil, is the capacity partition this server arbitrates
	// inside a sharded deployment; remote bidders registered here translate
	// offers and bids between the partition's local IDs and the global ones.
	part *shard.Partition

	// Clock returns the current scheduling time in minutes; the default uses
	// wall-clock minutes since the server was created.
	Clock func() float64
	// AgentGang is the default leftover chunk size for registered agents
	// that do not state one.
	AgentGang int

	auctionMu sync.Mutex

	mu       sync.Mutex
	state    *cluster.State
	leases   core.LeaseBook
	agents   map[workload.AppID]*registeredAgent
	auctions int              // completed auction rounds; shadows arbiter.Stats.Auctions, readable under mu
	picker   placement.Picker // reconcileGrant's placement scratch
}

// NewArbiterServer builds the unsharded server around an Arbiter and its
// topology.
func NewArbiterServer(arb *core.Arbiter) *ArbiterServer {
	return newArbiterServer(arb, "single", nil)
}

// newArbiterServer builds both deployments' servers: label is the shard value
// on the server's metric series and part the capacity partition it arbitrates
// (nil when its machine IDs are already the global ones).
func newArbiterServer(arb *core.Arbiter, label string, part *shard.Partition) *ArbiterServer {
	start := time.Now()
	arb.SetFanout(fanout)
	return &ArbiterServer{
		arbiter:    arb,
		topo:       arb.Topology(),
		shardLabel: label,
		tel:        newServerTelemetry(telemetry.Default(), label),
		ring:       telemetry.NewRoundRing(64),
		part:       part,
		Clock:      func() float64 { return time.Since(start).Minutes() },
		AgentGang:  4,
		state:      cluster.NewState(arb.Topology()),
		agents:     make(map[workload.AppID]*registeredAgent),
	}
}

// Arbiter returns the wrapped core Arbiter; experiments read its cumulative
// phase timing stats after a run.
func (s *ArbiterServer) Arbiter() *core.Arbiter { return s.arbiter }

// RoundTrace returns the ring holding the last auction rounds' phase traces;
// /debug/rounds serves it as JSON and arbiterd dumps it on SIGQUIT.
func (s *ArbiterServer) RoundTrace() *telemetry.RoundRing { return s.ring }

// Handler returns the HTTP handler implementing the Arbiter protocol; see
// protocolMux for the surface.
func (s *ArbiterServer) Handler() http.Handler {
	return protocolMux(s.register, func() (AuctionResponse, error) { return s.RunAuction(s.Clock()) }, s.Status, s.ring)
}

// protocolMux serves the routes an unsharded and a sharded arbiter share, so
// agents and operator tooling cannot tell which one they talk to: register,
// auction, status and health, each instrumented with per-endpoint latency and
// status-class counters, plus the operational surface — /metrics (Prometheus
// text), /healthz and /debug/rounds (ring's round traces).
func protocolMux(
	register func(RegisterRequest) (RegisterResponse, error),
	auction func() (AuctionResponse, error),
	status func() StatusResponse,
	ring *telemetry.RoundRing,
) *http.ServeMux {
	reg := telemetry.Default()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", telemetry.Instrument(reg, "/v1/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp, err := register(req)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, resp)
	}))
	mux.HandleFunc("/v1/auction", telemetry.Instrument(reg, "/v1/auction", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
			return
		}
		resp, err := auction()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, resp)
	}))
	mux.HandleFunc("/v1/status", telemetry.Instrument(reg, "/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, status())
	}))
	mux.HandleFunc("/v1/health", telemetry.Instrument(reg, "/v1/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	}))
	mux.Handle("/metrics", telemetry.MetricsHandler(reg))
	mux.Handle("/healthz", telemetry.HealthzHandler())
	mux.Handle("/debug/rounds", telemetry.RoundsHandler(ring))
	return mux
}

// RegisterBidder registers (or re-registers) an in-process Bidder — the
// benchmark's synthetic bidders and tests use this to drive auctions without
// HTTP callbacks. Held GPUs and running leases survive re-registration.
func (s *ArbiterServer) RegisterBidder(b core.Bidder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.agents[b.ID()] = &registeredAgent{bidder: b}
	s.tel.agents.Set(int64(len(s.agents)))
}

// register installs a remote agent from a wire request, returning whether an
// existing registration was updated. Re-registration replaces the callback
// and demand but leaves the app's held GPUs and leases untouched: an agent
// restarting (or moving hosts) keeps its allocation and simply starts
// receiving deliveries at the new address.
func (s *ArbiterServer) register(req RegisterRequest) (RegisterResponse, error) {
	if req.App == "" || req.Callback == "" {
		return RegisterResponse{}, fmt.Errorf("register requires app and callback")
	}
	demand := req.MaxParallelism
	if demand <= 0 {
		demand = s.topo.TotalGPUs()
	}
	id := workload.AppID(req.App)
	client := NewAgentClient(req.Callback)
	s.mu.Lock()
	_, updated := s.agents[id]
	s.agents[id] = &registeredAgent{
		bidder: &RemoteBidder{
			AppID:  id,
			Client: client,
			Demand: demand,
			Gang:   s.AgentGang,
			Map:    s.part,
		},
		notify: client,
	}
	s.tel.agents.Set(int64(len(s.agents)))
	s.mu.Unlock()
	return RegisterResponse{OK: true, LeaseMin: s.arbiter.Config().LeaseDuration, Updated: updated}, nil
}

// Status reports the arbiter's view of its cluster (or capacity partition).
func (s *ArbiterServer) Status() StatusResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := make(map[string]int)
	for _, app := range s.state.Apps() {
		held[app] = s.state.Held(app).Total()
	}
	agents := make(map[string]struct{}, len(s.agents))
	for id := range s.agents {
		agents[string(id)] = struct{}{}
	}
	return StatusResponse{
		Now:          s.Clock(),
		TotalGPUs:    s.topo.TotalGPUs(),
		FreeGPUs:     s.state.TotalFree(),
		Agents:       sortedKeys(agents),
		Held:         held,
		Auctions:     s.auctions,
		ActiveLeases: s.leases.Len(),
	}
}

// FreeGPUs returns the number of currently unleased GPUs.
func (s *ArbiterServer) FreeGPUs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.TotalFree()
}

// HeldBy returns the allocation app currently holds on this arbiter's
// capacity, in the server's (shard-local) machine IDs.
func (s *ArbiterServer) HeldBy(app workload.AppID) cluster.Alloc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Held(string(app))
}

// HeldTotalBy returns how many GPUs app holds here without copying its
// allocation — the cheap form of HeldBy for sweeps over every registered
// agent, where almost all of them hold nothing.
func (s *ArbiterServer) HeldTotalBy(app workload.AppID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.HeldTotal(string(app))
}

// ValidateState checks the occupancy state's internal invariants; the
// concurrency regression tests call it after hammering the server.
func (s *ArbiterServer) ValidateState() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Validate()
}

// RunAuction executes one auction round at the given scheduling time — it
// reclaims expired leases, offers the free GPUs to the registered agents and
// applies the winning allocations — and delivers each affected agent its new
// total allocation. It is exported so daemons and tests can drive auctions
// without HTTP. Rounds are serialised: a concurrent call blocks until the
// in-flight round has applied its grants.
func (s *ArbiterServer) RunAuction(now float64) (AuctionResponse, error) {
	r, err := s.auctionRound(now)
	// A failed round delivers too: what it reclaimed (and granted) before
	// failing is in the state, and an agent never told keeps bidding from an
	// allocation it no longer holds.
	s.notifyAgents(now, r.changed)
	if err != nil {
		return AuctionResponse{}, err
	}
	resp := AuctionResponse{Now: now, Offered: r.offered, Decisions: make(map[string]WireAlloc, len(r.granted))}
	for id, alloc := range r.granted {
		resp.Decisions[string(id)] = ToWireAlloc(alloc)
	}
	return resp, nil
}

// roundOutcome is what one reclaim → offer → grant round did to the server's
// state, in the server's (shard-local) machine IDs.
type roundOutcome struct {
	offered int
	// granted is each app's grants of this round, auction win and leftover
	// grant merged.
	granted map[workload.AppID]cluster.Alloc
	// changed is every app whose holding changed: leases reclaimed, GPUs
	// granted. It is complete up to the point of failure when the round
	// returns an error.
	changed map[workload.AppID]bool
}

// auctionRound runs reclaim → offer → grant under auctionMu and reports what
// it did. It does not notify agents — the caller (RunAuction, or the sharded
// arbiter after its reconciliation round) owns delivery, and owes it for
// outcome.changed even when the round failed.
func (s *ArbiterServer) auctionRound(now float64) (roundOutcome, error) {
	// Serialise the whole round. OfferResources below runs outside mu (it
	// makes network calls to remote bidders) but must never run concurrently
	// with another round: the Arbiter's BidValuator scratch is per-auction
	// state, and the free vector offered here has to remain free until the
	// grants are applied.
	s.auctionMu.Lock()
	defer s.auctionMu.Unlock()

	start := time.Now()
	rd := telemetry.Round{Wall: start, Shard: s.shardLabel, Now: now}
	out := roundOutcome{changed: make(map[workload.AppID]bool)}

	s.mu.Lock()
	// Reclaim expired leases.
	for _, l := range s.leases.Expire(now) {
		if err := s.state.Release(string(l.App), l.Alloc); err != nil {
			s.mu.Unlock()
			s.tel.errors.Inc()
			return out, fmt.Errorf("rpc: releasing expired lease for %s: %w", l.App, err)
		}
		out.changed[l.App] = true
	}
	free := s.state.FreeVector()
	states := make([]core.AgentState, 0, len(s.agents))
	for _, a := range s.agents {
		b := a.bidder
		// At scale almost every registered agent holds nothing; cloning a
		// fresh empty map per agent per round is pure garbage. The Arbiter
		// treats Current as read-only, so the holders-of-nothing all share
		// one canonical empty allocation.
		cur := emptyCurrent
		if s.state.HeldTotal(string(b.ID())) > 0 {
			cur = s.state.Held(string(b.ID()))
		}
		states = append(states, core.AgentState{Agent: b, Current: cur})
	}
	leases := s.leases.Len()
	s.mu.Unlock()
	rd.AddSpan("reclaim", 0, time.Since(start))
	rd.Agents = len(states)
	rd.Offered = free.Total()
	out.offered = free.Total()

	if free.Total() == 0 || len(states) == 0 {
		// Nothing to auction is still a completed round: the rounds counter
		// and trace ring advance so a quiet cluster is visibly quiet rather
		// than silently unobserved.
		s.finishRound(&rd, start, leases, free.Total())
		return out, nil
	}
	offerStart := time.Since(start)
	decisions, err := s.arbiter.OfferResources(now, free, states)
	if err != nil {
		s.tel.errors.Inc()
		return out, err
	}
	// The Arbiter's phase breakdown is stable here: rounds are serialised by
	// auctionMu, so LastRound still describes the call above.
	ph := s.arbiter.LastRound()
	rd.AddSpan("probe", offerStart, ph.Probe)
	rd.AddSpan("bid", offerStart+ph.Probe, ph.Bid)
	rd.AddSpan("solve", offerStart+ph.Probe+ph.Bid, ph.Solve)
	rd.AddSpan("payments", offerStart+ph.Probe+ph.Bid+ph.Solve-ph.Payments, ph.Payments)
	rd.AddSpan("leftover", offerStart+ph.Probe+ph.Bid+ph.Solve, ph.Leftover)
	rd.Winners = ph.Winners
	rd.Granted = ph.GrantedGPUs
	rd.Leftover = ph.LeftoverGPUs

	grantStart := time.Since(start)
	s.mu.Lock()
	s.auctions++
	lease := s.arbiter.Config().LeaseDuration
	out.granted = make(map[workload.AppID]cluster.Alloc)
	for _, d := range decisions {
		if err := s.state.Grant(string(d.App), d.Alloc); err != nil {
			s.mu.Unlock()
			s.tel.errors.Inc()
			return out, fmt.Errorf("rpc: applying allocation for %s: %w", d.App, err)
		}
		s.leases.Grant(d.App, d.Alloc, now, lease)
		out.changed[d.App] = true
		// The decision's map is ours to keep (the lease holds a copy); an
		// app's leftover grant merges into its auction win's map.
		if held, ok := out.granted[d.App]; ok {
			held.Credit(d.Alloc)
		} else {
			out.granted[d.App] = d.Alloc
		}
	}
	leases = s.leases.Len()
	freeGPUs := s.state.TotalFree()
	s.mu.Unlock()
	rd.AddSpan("grant", grantStart, time.Since(start)-grantStart)
	s.tel.nothing.Add(uint64(ph.WinnersWithNothing))
	s.finishRound(&rd, start, leases, freeGPUs)
	return out, nil
}

// finishRound stamps the round's total duration and folds it into the metric
// handles and the trace ring. Called under auctionMu (never under mu), once
// per completed round — empty rounds included.
func (s *ArbiterServer) finishRound(rd *telemetry.Round, start time.Time, leases, freeGPUs int) {
	rd.Total = time.Since(start)
	s.tel.record(rd, s.ring, leases, freeGPUs)
}

// reconcileGrant hands chunk free GPUs to app during the sharded
// reconciliation round, anchored placement-sensitively on whatever the app
// already holds here. It returns the granted allocation (empty when nothing
// fits) in the server's local machine IDs.
func (s *ArbiterServer) reconcileGrant(app workload.AppID, chunk int, now float64) (cluster.Alloc, error) {
	if chunk <= 0 {
		return cluster.NewAlloc(), nil
	}
	s.auctionMu.Lock()
	defer s.auctionMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	free := s.state.FreeVector()
	if free.Total() == 0 {
		return cluster.NewAlloc(), nil
	}
	pick := s.picker.PickInto(nil, s.topo, free, s.state.Held(string(app)), chunk)
	if pick.Total() == 0 {
		return pick, nil
	}
	if err := s.state.Grant(string(app), pick); err != nil {
		return nil, fmt.Errorf("rpc: reconciliation grant for %s: %w", app, err)
	}
	s.leases.Grant(app, pick, now, s.arbiter.Config().LeaseDuration)
	return pick, nil
}

// notifyAgents delivers each changed app's new total allocation, in global
// machine IDs, to its callback.
func (s *ArbiterServer) notifyAgents(now float64, changed map[workload.AppID]bool) {
	deliverChanged(now, s.arbiter.Config().LeaseDuration, changed, s.notifyClient, func(app workload.AppID) cluster.Alloc {
		return toGlobal(s.part, s.HeldBy(app))
	})
}

// deliverChanged sends every changed app that registered a callback ONE
// message carrying held(app), its new total allocation in global machine IDs,
// leased until now+lease, on the fanout. client and held take their owner's
// lock per app; the HTTP calls run outside every lock. A failed delivery is
// dropped; the client has counted it.
func deliverChanged(now, lease float64, changed map[workload.AppID]bool, client func(workload.AppID) *AgentClient, held func(workload.AppID) cluster.Alloc) {
	var apps []workload.AppID
	var clients []*AgentClient
	for app := range changed {
		if c := client(app); c != nil { // in-process bidders pull their allocation from the auction response
			apps, clients = append(apps, app), append(clients, c)
		}
	}
	fanout(len(apps), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = clients[i].DeliverAllocation(ctx, now, held(apps[i]), true, now+lease)
	})
}

// fanoutWidth bounds how many of a round's remote calls are in flight at once.
const fanoutWidth = 8

// fanout is every server's core.Fanout: call(i) for every i in [0, n) on at
// most fanoutWidth goroutines. Each call keeps its own timeout, so a hung
// agent holds one worker, not the round.
func fanout(n int, call func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, fanoutWidth) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				call(i)
			}
		}()
	}
	wg.Wait()
}

// notifyClient returns the HTTP callback registered for app, or nil.
func (s *ArbiterServer) notifyClient(app workload.AppID) *AgentClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.agents[app]; ok {
		return a.notify
	}
	return nil
}
