package rpc

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/shard"
	"themis/internal/telemetry"
	"themis/internal/workload"
)

// ArbiterServer exposes the Themis Arbiter over HTTP. Agents register
// themselves (POST /v1/register); an auction round over the currently free
// GPUs is triggered with POST /v1/auction (the arbiterd daemon does this
// periodically); GET /v1/status reports cluster state and GET /v1/shards the
// per-shard detail.
//
// The cluster topology is carved into N ≥ 1 capacity partitions
// (shard.Split), each arbitrated by its own engine with its own Arbiter,
// occupancy state and auction lock. A consistent-hash ring maps every app to
// its home shard, so registration and auction participation are
// deterministic functions of the app ID. N = 1 is the unsharded arbiter: one
// partition holding the whole cluster.
//
// One auction round is:
//
//  1. Partial auction per shard — every shard runs reclaim → offer → grant
//     over its own partition, concurrently with its peers (each holds only
//     its own auctionMu).
//  2. Cross-shard reconciliation — leftover GPUs on any shard are re-offered
//     to the globally most-starved apps (highest ρ with unmet demand,
//     wherever homed), in gang-sized chunks, home shard first for locality.
//     A shard's leftover pass leaves GPUs free only when no agent homed
//     there still wants any, so at N = 1 this finds no candidate.
//  3. Aggregated delivery — each changed app receives ONE allocation message
//     carrying its global total across shards, so per-shard views never
//     clobber each other on the agent.
//
// Because auction cost is superlinear in the number of participants (one
// solver pass per bidder for hidden payments), sharding buys more than
// concurrency: N shards of P/N participants do ~1/N² the work of one
// P-participant auction even on a single core; the benchmark's serve-sharded
// workload measures such rounds.
type ArbiterServer struct {
	topo *cluster.Topology
	ring *shard.Ring
	// shardIdx maps ring member names back to shard indexes.
	shardIdx map[string]int
	shards   []*engine
	parts    []*shard.Partition

	// Clock returns the current scheduling time in minutes; the default uses
	// wall-clock minutes since the server was created. Every shard's leases
	// run on it.
	Clock func() float64

	// tel holds the deployment-wide metric handles (shard-level series live
	// on each engine); globalRing traces the coarse phases of the last
	// rounds.
	tel        *shardedTelemetry
	globalRing *telemetry.RoundRing

	mu            sync.Mutex
	reconciled    int
	rounds        int
	reconcileTime time.Duration
}

// NewArbiterServer partitions topo into n shards under cfg. Every shard gets
// its own core.Arbiter over its slice of the topology.
func NewArbiterServer(topo *cluster.Topology, cfg core.Config, n int) (*ArbiterServer, error) {
	if n < 1 {
		return nil, fmt.Errorf("rpc: shard count %d must be at least 1", n)
	}
	parts, err := shard.Split(topo, n)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s := &ArbiterServer{
		topo:       topo,
		ring:       shard.NewRing(shard.DefaultVirtualNodes),
		shardIdx:   make(map[string]int, n),
		parts:      parts,
		Clock:      func() float64 { return time.Since(start).Minutes() },
		tel:        newShardedTelemetry(telemetry.Default()),
		globalRing: telemetry.NewRoundRing(64),
	}
	for i, p := range parts {
		arb, err := core.NewArbiter(p.Topo, cfg)
		if err != nil {
			return nil, fmt.Errorf("rpc: shard %d arbiter: %w", i, err)
		}
		s.shards = append(s.shards, newEngine(arb, p))
		name := fmt.Sprintf("shard-%d", i)
		s.ring.Add(name)
		s.shardIdx[name] = i
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *ArbiterServer) NumShards() int { return len(s.shards) }

// Shard returns the i'th shard's engine (tests and the benchmark read its
// Arbiter and round trace through this).
func (s *ArbiterServer) Shard(i int) *engine { return s.shards[i] }

// Arbiter returns shard 0's core Arbiter: at N = 1 the deployment's only
// one, whose cumulative Stats experiments read after a run.
func (s *ArbiterServer) Arbiter() *core.Arbiter { return s.shards[0].arbiter }

// HomeShard returns the shard index owning app on the consistent-hash ring.
func (s *ArbiterServer) HomeShard(app string) int {
	return s.shardIdx[s.ring.Lookup(app)]
}

// RegisterBidder registers (or re-registers) an in-process Bidder on its
// ring shard and returns that shard's index — the benchmark's synthetic
// bidders and tests use this to drive auctions without HTTP callbacks. Held
// GPUs and running leases survive re-registration. The bidder sees the
// shard's local machine IDs, which is transparent to bidders that reason
// about offers positionally (the usual case: ρ and bids depend on GPU counts
// and locality, not on which global IDs carry them).
func (s *ArbiterServer) RegisterBidder(b core.Bidder) int {
	home := s.HomeShard(string(b.ID()))
	s.shards[home].add(b.ID(), &registeredAgent{bidder: b})
	return home
}

// register routes a remote agent registration to its home shard. A request
// without a demand states none: the app may use the whole cluster.
func (s *ArbiterServer) register(req RegisterRequest) (RegisterResponse, error) {
	if req.MaxParallelism <= 0 {
		req.MaxParallelism = s.topo.TotalGPUs()
	}
	return s.shards[s.HomeShard(req.App)].register(req)
}

// HeldBy returns app's total allocation across every shard, in global
// machine IDs. Partitions are disjoint, so the merge is collision-free.
func (s *ArbiterServer) HeldBy(app workload.AppID) cluster.Alloc {
	var out cluster.Alloc
	for i, srv := range s.shards {
		held := srv.HeldBy(app)
		if held.Total() == 0 {
			continue
		}
		if global := s.parts[i].ToGlobal(held); out == nil {
			out = global
		} else {
			out.Credit(global)
		}
	}
	if out == nil {
		return cluster.NewAlloc()
	}
	return out
}

// HeldTotalGlobal returns app's GPU count summed across every shard without
// materialising the merged allocation — the cheap form of HeldBy for
// whole-population accounting.
func (s *ArbiterServer) HeldTotalGlobal(app workload.AppID) int {
	total := 0
	for _, srv := range s.shards {
		total += srv.HeldTotalBy(app)
	}
	return total
}

// ValidateState checks every shard's occupancy invariants; the concurrency
// regression tests call it after hammering the server.
func (s *ArbiterServer) ValidateState() error {
	for i, srv := range s.shards {
		if err := srv.ValidateState(); err != nil {
			return fmt.Errorf("rpc: shard %d: %w", i, err)
		}
	}
	return nil
}

// RunAuction executes one auction round at the given scheduling time:
// concurrent per-shard partial auctions, the cross-shard reconciliation
// round, then one aggregated delivery per changed app. The returned decisions
// are in global machine IDs. It is exported so daemons and tests can drive
// auctions without HTTP. Each shard serialises its rounds: a concurrent call
// blocks until the in-flight round has applied its grants.
func (s *ArbiterServer) RunAuction(now float64) (AuctionResponse, error) {
	start := time.Now()
	rd := telemetry.Round{Wall: start, Shard: "all", Now: now}

	n := len(s.shards)
	outs := make([]roundOutcome, n)
	errs := make([]error, n)

	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.shards[i].auctionRound(now)
		}(i)
	}
	wg.Wait()
	rd.AddSpan("shards", 0, time.Since(start))

	allChanged := make(map[workload.AppID]bool)
	for _, out := range outs {
		for app := range out.changed {
			allChanged[app] = true
		}
	}
	for i, err := range errs {
		if err != nil {
			// What the shards did before the failure — the failing shard's
			// reclaim included — is in their state: the agents hear of it.
			s.deliver(now, allChanged)
			return AuctionResponse{}, fmt.Errorf("rpc: shard %d auction: %w", i, err)
		}
	}

	resp := AuctionResponse{Now: now, Decisions: make(map[string]WireAlloc)}
	granted := make(map[workload.AppID]cluster.Alloc)
	for i, out := range outs {
		resp.Offered += out.offered
		// An app bids only on its home shard, so no two shards grant it here.
		for app, alloc := range out.granted {
			granted[app] = s.parts[i].ToGlobal(alloc)
		}
	}

	recStart := time.Since(start)
	reconciled, err := s.reconcile(now, allChanged)
	if err != nil {
		return AuctionResponse{}, err
	}
	recDur := time.Since(start) - recStart
	rd.AddSpan("reconcile", recStart, recDur)
	for app, alloc := range reconciled {
		if g, ok := granted[app]; ok {
			g.Credit(alloc)
		} else {
			granted[app] = alloc
		}
	}
	grantedGPUs := 0
	for app, alloc := range granted {
		resp.Decisions[string(app)] = ToWireAlloc(alloc)
		resp.Reconciled += reconciled[app].Total()
		grantedGPUs += alloc.Total()
	}

	s.mu.Lock()
	s.rounds++
	s.reconciled += resp.Reconciled
	s.reconcileTime += recDur
	s.mu.Unlock()

	delStart := time.Since(start)
	s.deliver(now, allChanged)
	delDur := time.Since(start) - delStart
	rd.AddSpan("deliver", delStart, delDur)

	rd.Total = time.Since(start)
	rd.Offered = resp.Offered
	rd.Granted = grantedGPUs
	rd.Reconciled = resp.Reconciled
	rd.Winners = len(resp.Decisions)
	s.tel.rounds.Inc()
	s.tel.reconciled.Add(uint64(resp.Reconciled))
	s.tel.roundDur.ObserveDuration(rd.Total)
	s.tel.shardsDur.ObserveDuration(rd.Spans()[0].Dur)
	s.tel.reconcileDur.ObserveDuration(recDur)
	s.tel.deliverDur.ObserveDuration(delDur)
	s.globalRing.Record(rd)
	return resp, nil
}

// RoundTrace returns the trace ring /debug/rounds serves and arbiterd dumps
// on SIGQUIT. At N = 1 it is the one shard's ring, whose rounds carry the
// reclaim … grant phases; at N > 1 it is the deployment-wide ring, one entry
// per round with its coarse phases (shards, reconcile, deliver), and the
// fine-grained phases live on each Shard(i).RoundTrace(). The frozen
// benchmark reads the fine phases at N = 1 through this method; the branch
// goes when it next changes (ROADMAP item 2).
func (s *ArbiterServer) RoundTrace() *telemetry.RoundRing {
	if len(s.shards) == 1 {
		return s.shards[0].ring
	}
	return s.globalRing
}

// ReconcileStats reports the cumulative reconciliation telemetry: completed
// rounds, leftover GPUs re-offered across shards, and the total time spent
// inside reconciliation rounds.
func (s *ArbiterServer) ReconcileStats() (rounds, gpus int, spent time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds, s.reconciled, s.reconcileTime
}

// starvedApp is one reconciliation candidate: an app with demand its own
// shard could not satisfy this round. held is its holding on its home shard,
// the allocation it is probed against.
type starvedApp struct {
	bidder core.Bidder
	id     workload.AppID
	home   int
	unmet  int
	rho    float64
	held   cluster.Alloc
}

// reconcile re-offers leftover GPUs across shards to the globally most
// starved apps. It returns each app's reconciliation grant in global IDs and
// marks granted apps changed. Starvation is measured lazily — apps are only
// re-probed for ρ when leftover GPUs actually exist — and globally: an app's
// unmet demand is discounted by whatever it already holds on other shards
// from earlier reconciliation rounds.
func (s *ArbiterServer) reconcile(now float64, allChanged map[workload.AppID]bool) (map[workload.AppID]cluster.Alloc, error) {
	grants := make(map[workload.AppID]cluster.Alloc)
	leftover := make([]int, len(s.shards))
	total := 0
	for i, srv := range s.shards {
		leftover[i] = srv.FreeGPUs()
		total += leftover[i]
	}
	if total == 0 {
		return grants, nil
	}

	for _, c := range s.starved(now) {
		gang := max(c.bidder.GangSize(), 1)
		// Home shard first (any leftover there places next to what the app
		// holds), then the rest in index order.
		for k := range s.shards {
			if c.unmet < gang {
				break
			}
			si := homeFirst(k, c.home)
			chunk := min(c.unmet, leftover[si])
			chunk -= chunk % gang
			if chunk == 0 {
				continue
			}
			got, err := s.shards[si].reconcileGrant(c.id, chunk, now)
			if err != nil {
				return nil, err
			}
			if got.Total() == 0 {
				continue
			}
			leftover[si] -= got.Total()
			c.unmet -= got.Total()
			grants[c.id] = grants[c.id].Add(s.parts[si].ToGlobal(got))
			allChanged[c.id] = true
		}
	}
	return grants, nil
}

// homeFirst is the k'th shard a candidate homed on home draws from: home,
// then the others in index order.
func homeFirst(k, home int) int {
	switch {
	case k == 0:
		return home
	case k <= home:
		return k - 1
	default:
		return k
	}
}

// starved returns the reconciliation candidates, most starved first (WorseOff
// order). Every shard sweeps its own agents concurrently for unmet demand
// against their home holding; the survivors, in home-major order, are
// discounted by what they hold on other shards, and those still short are
// probed for ρ: Remote bidders through the fanout, each into its own slot,
// in-process ones inline.
func (s *ArbiterServer) starved(now float64) []starvedApp {
	perShard := make([][]starvedApp, len(s.shards))
	var wg sync.WaitGroup
	for i, srv := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perShard[i] = srv.unmetDemand()
		}()
	}
	wg.Wait()

	var cands []starvedApp
	var remote []int
	for _, found := range perShard {
		for _, c := range found {
			for other, osrv := range s.shards {
				if other != c.home {
					c.unmet -= osrv.HeldTotalBy(c.id)
				}
			}
			if c.unmet <= 0 {
				continue
			}
			if _, ok := c.bidder.(core.Remote); ok {
				remote = append(remote, len(cands))
			} else {
				c.rho = c.bidder.ReportRho(now, c.held)
			}
			cands = append(cands, c)
		}
	}
	fanout(len(remote), func(k int) {
		c := &cands[remote[k]]
		c.rho = c.bidder.ReportRho(now, c.held)
	})
	slices.SortStableFunc(cands, func(a, b starvedApp) int { return core.WorseOff(a.rho, a.id, b.rho, b.id) })
	return cands
}

// deliver sends every changed app that registered a callback ONE message
// carrying its new total allocation across all shards, in global machine
// IDs, leased until now + the lease length, on the fanout. The callback is
// looked up on the app's home shard (the only shard remote agents register
// with); in-process bidders pull their allocation from the auction response
// instead. The HTTP calls run outside every lock. A failed delivery is
// dropped; the client has counted it.
func (s *ArbiterServer) deliver(now float64, changed map[workload.AppID]bool) {
	lease := s.shards[0].arbiter.Config().LeaseDuration
	var apps []workload.AppID
	var clients []*AgentClient
	for app := range changed {
		if c := s.shards[s.HomeShard(string(app))].notifyClient(app); c != nil {
			apps, clients = append(apps, app), append(clients, c)
		}
	}
	fanout(len(apps), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = clients[i].DeliverAllocation(ctx, now, s.HeldBy(apps[i]), true, now+lease)
	})
}

// fanoutWidth bounds how many of a round's remote calls are in flight at once.
const fanoutWidth = 8

// fanout is every shard's core.Fanout: call(i) for every i in [0, n) on at
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

// Status aggregates the shards' views into the cluster's.
func (s *ArbiterServer) Status() StatusResponse {
	out := StatusResponse{Now: s.Clock(), Held: make(map[string]int)}
	agents := make(map[string]struct{})
	for _, srv := range s.shards {
		st := srv.Status()
		out.TotalGPUs += st.TotalGPUs
		out.FreeGPUs += st.FreeGPUs
		out.Auctions += st.Auctions
		out.ActiveLeases += st.ActiveLeases
		for _, a := range st.Agents {
			agents[a] = struct{}{}
		}
		for app, n := range st.Held {
			out.Held[app] += n
		}
	}
	out.Agents = sortedKeys(agents)
	return out
}

// ShardStatus reports the per-shard detail plus reconciliation telemetry.
func (s *ArbiterServer) ShardStatus() ShardStatusResponse {
	s.mu.Lock()
	out := ShardStatusResponse{Now: s.Clock(), Reconciled: s.reconciled, Rounds: s.rounds}
	s.mu.Unlock()
	for i, srv := range s.shards {
		st := srv.Status()
		out.Shards = append(out.Shards, ShardInfo{
			Index:        i,
			TotalGPUs:    st.TotalGPUs,
			FreeGPUs:     st.FreeGPUs,
			Agents:       st.Agents,
			ActiveLeases: st.ActiveLeases,
			Auctions:     st.Auctions,
		})
	}
	return out
}

// Handler returns the HTTP handler implementing the Arbiter protocol:
// register, auction, status, shards and health, each instrumented with
// per-endpoint latency and status-class counters, plus the operational
// surface — /metrics (Prometheus text), /healthz and /debug/rounds
// (RoundTrace as JSON).
func (s *ArbiterServer) Handler() http.Handler {
	reg := telemetry.Default()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", telemetry.Instrument(reg, "/v1/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp, err := s.register(req)
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
		resp, err := s.RunAuction(s.Clock())
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, resp)
	}))
	mux.HandleFunc("/v1/status", telemetry.Instrument(reg, "/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Status())
	}))
	mux.HandleFunc("/v1/shards", telemetry.Instrument(reg, "/v1/shards", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.ShardStatus())
	}))
	mux.HandleFunc("/v1/health", telemetry.Instrument(reg, "/v1/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	}))
	mux.Handle("/metrics", telemetry.MetricsHandler(reg))
	mux.Handle("/healthz", telemetry.HealthzHandler())
	mux.Handle("/debug/rounds", telemetry.RoundsHandler(s.RoundTrace()))
	return mux
}
