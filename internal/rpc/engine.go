package rpc

import (
	"fmt"
	"strconv"
	"sync"
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

// agentGang is the leftover chunk size of agents registered over HTTP.
const agentGang = 4

// registeredAgent is one app known to the arbiter: its Bidder plus the HTTP
// callback that receives allocation deliveries (nil for in-process bidders,
// which pull their allocation from auction responses instead). Entries are
// replaced wholesale on re-registration, never mutated, so auction snapshots
// can read them without holding the engine's lock.
type registeredAgent struct {
	bidder core.Bidder
	notify *AgentClient
}

// engine arbitrates one shard of an ArbiterServer: one core.Arbiter over the
// shard's capacity partition, with its occupancy state, lease book, agent
// registry and round telemetry. Its rounds reclaim → offer → grant; the
// ArbiterServer runs them, reconciles across shards and delivers.
//
// Locking discipline: two mutexes with a strict order (auctionMu before mu).
//
//   - auctionMu serialises auction rounds end to end — reclaim, offer,
//     grant. The Arbiter's BidValuator scratch is single-auction state and
//     the free vector an auction offers must still be free when its grants
//     apply, so two rounds can never interleave. One auctionMu per shard is
//     exactly the "serialize auctions per shard" rule; cross-shard rounds run
//     concurrently because each shard has its own Arbiter, state and
//     auctionMu.
//   - mu guards the mutable registry and occupancy state (agents, state,
//     leases). It is held only for short map/state accesses (the longest is
//     the reconciliation round's one sweep of the registry, see unmetDemand)
//     and NEVER across network calls (probes, bids, deliveries — which run on
//     fanout, fanoutWidth at a time), so registration and status stay
//     responsive while a slow auction is in flight.
type engine struct {
	arbiter *core.Arbiter
	topo    *cluster.Topology
	// part is the capacity partition this engine arbitrates; remote bidders
	// registered here translate offers and bids between its local IDs and
	// the global ones.
	part *shard.Partition

	// shardLabel is the shard value on every metric series this engine
	// records, its shard index. tel holds the metric handles bound to it and
	// ring the last rounds' phase traces.
	shardLabel string
	tel        *serverTelemetry
	ring       *telemetry.RoundRing

	auctionMu sync.Mutex

	mu       sync.Mutex
	state    *cluster.State
	leases   core.LeaseBook
	agents   map[workload.AppID]*registeredAgent
	auctions int              // completed auction rounds; shadows arbiter.Stats.Auctions, readable under mu
	picker   placement.Picker // reconcileGrant's placement scratch
}

func newEngine(arb *core.Arbiter, part *shard.Partition) *engine {
	arb.SetFanout(fanout)
	label := strconv.Itoa(part.Index)
	return &engine{
		arbiter:    arb,
		topo:       arb.Topology(),
		part:       part,
		shardLabel: label,
		tel:        newServerTelemetry(telemetry.Default(), label),
		ring:       telemetry.NewRoundRing(64),
		state:      cluster.NewState(arb.Topology()),
		agents:     make(map[workload.AppID]*registeredAgent),
	}
}

// Arbiter returns the shard's core Arbiter; experiments read its cumulative
// phase timing stats after a run.
func (s *engine) Arbiter() *core.Arbiter { return s.arbiter }

// RoundTrace returns the ring holding the shard's last auction rounds' phase
// traces (reclaim, probe, bid, solve, payments, leftover, grant).
func (s *engine) RoundTrace() *telemetry.RoundRing { return s.ring }

// add installs (or replaces) app's registry entry and reports whether it
// replaced one. Held GPUs and running leases survive re-registration.
func (s *engine) add(id workload.AppID, a *registeredAgent) (updated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, updated = s.agents[id]
	s.agents[id] = a
	s.tel.agents.Set(int64(len(s.agents)))
	return updated
}

// register installs a remote agent from a wire request, returning whether an
// existing registration was updated. Re-registration replaces the callback
// and demand but leaves the app's held GPUs and leases untouched: an agent
// restarting (or moving hosts) keeps its allocation and simply starts
// receiving deliveries at the new address.
func (s *engine) register(req RegisterRequest) (RegisterResponse, error) {
	if req.App == "" || req.Callback == "" {
		return RegisterResponse{}, fmt.Errorf("register requires app and callback")
	}
	id := workload.AppID(req.App)
	client := NewAgentClient(req.Callback)
	updated := s.add(id, &registeredAgent{
		bidder: &RemoteBidder{AppID: id, Client: client, Demand: req.MaxParallelism, Gang: agentGang, Map: s.part},
		notify: client,
	})
	return RegisterResponse{OK: true, LeaseMin: s.arbiter.Config().LeaseDuration, Updated: updated}, nil
}

// Status reports the engine's view of its capacity partition; the
// ArbiterServer stamps the time.
func (s *engine) Status() StatusResponse {
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
		TotalGPUs:    s.topo.TotalGPUs(),
		FreeGPUs:     s.state.TotalFree(),
		Agents:       sortedKeys(agents),
		Held:         held,
		Auctions:     s.auctions,
		ActiveLeases: s.leases.Len(),
	}
}

// FreeGPUs returns the number of currently unleased GPUs.
func (s *engine) FreeGPUs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.TotalFree()
}

// HeldBy returns the allocation app currently holds on this shard, in its
// local machine IDs.
func (s *engine) HeldBy(app workload.AppID) cluster.Alloc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Held(string(app))
}

// HeldTotalBy returns how many GPUs app holds here without copying its
// allocation — the cheap form of HeldBy for sweeps over every registered
// agent, where almost all of them hold nothing.
func (s *engine) HeldTotalBy(app workload.AppID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.HeldTotal(string(app))
}

// ValidateState checks the occupancy state's internal invariants.
func (s *engine) ValidateState() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Validate()
}

// roundOutcome is what one reclaim → offer → grant round did to the engine's
// state, in its shard-local machine IDs.
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
// it did. It does not notify agents — the ArbiterServer owns delivery, after
// its reconciliation round, and owes it for outcome.changed even when the
// round failed.
func (s *engine) auctionRound(now float64) (roundOutcome, error) {
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
func (s *engine) finishRound(rd *telemetry.Round, start time.Time, leases, freeGPUs int) {
	rd.Total = time.Since(start)
	s.tel.record(rd, s.ring, leases, freeGPUs)
}

// reconcileGrant hands chunk free GPUs to app during the reconciliation
// round, anchored placement-sensitively on whatever the app already holds
// here. It returns the granted allocation (empty when nothing fits) in the
// shard's local machine IDs.
func (s *engine) reconcileGrant(app workload.AppID, chunk int, now float64) (cluster.Alloc, error) {
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

// unmetDemand sweeps this shard's registered agents for demand its holdings
// leave unmet and returns them as reconciliation candidates, in registry
// order. It holds mu for the whole sweep: UnmetParallelism is local for every
// Bidder (a RemoteBidder answers from its registered demand). Almost every
// agent holds nothing here, so the common case is map-free: held totals are
// read without copies, holders of nothing share the canonical empty
// allocation, and only an actual candidate's holding is copied.
func (s *engine) unmetDemand() []starvedApp {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []starvedApp
	for id, a := range s.agents {
		held := emptyCurrent
		if s.state.HeldTotal(string(id)) > 0 {
			held = s.state.Held(string(id))
		}
		if unmet := a.bidder.UnmetParallelism(held); unmet > 0 {
			out = append(out, starvedApp{bidder: a.bidder, id: id, home: s.part.Index, unmet: unmet, held: held})
		}
	}
	return out
}

// notifyClient returns the HTTP callback registered for app, or nil.
func (s *engine) notifyClient(app workload.AppID) *AgentClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.agents[app]; ok {
		return a.notify
	}
	return nil
}
