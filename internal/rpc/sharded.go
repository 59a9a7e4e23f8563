package rpc

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/shard"
	"themis/internal/telemetry"
	"themis/internal/workload"
)

// ShardedArbiterServer scales the Arbiter horizontally: the cluster topology
// is carved into N capacity partitions (shard.Split), each arbitrated by its
// own ArbiterServer with its own Arbiter, occupancy state and auction lock.
// A consistent-hash ring maps every app to its home shard, so registration
// and auction participation are deterministic functions of the app ID.
//
// One sharded auction round is:
//
//  1. Partial auction per shard — every shard runs reclaim → offer → grant
//     over its own partition, concurrently with its peers (each holds only
//     its own auctionMu).
//  2. Cross-shard reconciliation — leftover GPUs on any shard are re-offered
//     to the globally most-starved apps (highest ρ with unmet demand,
//     wherever homed), in gang-sized chunks, home shard first for locality.
//  3. Aggregated delivery — each changed app receives ONE allocation message
//     carrying its global total across shards, so per-shard views never
//     clobber each other on the agent.
//
// Because auction cost is superlinear in the number of participants (one
// solver pass per bidder for hidden payments), sharding buys more than
// concurrency: N shards of P/N participants do ~1/N² the work of one
// P-participant auction even on a single core; the benchmark's serve-sharded
// workload measures such rounds.
type ShardedArbiterServer struct {
	topo *cluster.Topology
	ring *shard.Ring
	// shardIdx maps ring member names back to shard indexes.
	shardIdx map[string]int
	shards   []*ArbiterServer
	parts    []*shard.Partition

	// Clock returns the scheduling time in minutes; shards inherit it so the
	// whole deployment agrees on lease expiry.
	Clock func() float64

	// tel holds the deployment-wide metric handles (shard-level series live
	// on each shard's own ArbiterServer); globalRing traces the coarse
	// phases of the last sharded rounds.
	tel        *shardedTelemetry
	globalRing *telemetry.RoundRing

	mu            sync.Mutex
	reconciled    int
	rounds        int
	reconcileTime time.Duration
}

// NewShardedArbiterServer partitions topo into n shards under cfg. Every
// shard gets its own core.Arbiter over its slice of the topology.
func NewShardedArbiterServer(topo *cluster.Topology, cfg core.Config, n int) (*ShardedArbiterServer, error) {
	if n < 1 {
		return nil, fmt.Errorf("rpc: shard count %d must be at least 1", n)
	}
	parts, err := shard.Split(topo, n)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s := &ShardedArbiterServer{
		topo:       topo,
		ring:       shard.NewRing(shard.DefaultVirtualNodes),
		shardIdx:   make(map[string]int, n),
		Clock:      func() float64 { return time.Since(start).Minutes() },
		tel:        newShardedTelemetry(telemetry.Default()),
		globalRing: telemetry.NewRoundRing(64),
	}
	for i, p := range parts {
		arb, err := core.NewArbiter(p.Topo, cfg)
		if err != nil {
			return nil, fmt.Errorf("rpc: shard %d arbiter: %w", i, err)
		}
		srv := newArbiterServer(arb, strconv.Itoa(i), p)
		srv.Clock = func() float64 { return s.Clock() }
		s.shards = append(s.shards, srv)
		s.parts = append(s.parts, p)
		name := shardName(i)
		s.ring.Add(name)
		s.shardIdx[name] = i
	}
	return s, nil
}

func shardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// NumShards returns the shard count.
func (s *ShardedArbiterServer) NumShards() int { return len(s.shards) }

// Shard returns the i'th shard's server (tests and the benchmark drive
// shards directly through this).
func (s *ShardedArbiterServer) Shard(i int) *ArbiterServer { return s.shards[i] }

// HomeShard returns the shard index owning app on the consistent-hash ring.
func (s *ShardedArbiterServer) HomeShard(app string) int {
	return s.shardIdx[s.ring.Lookup(app)]
}

// RegisterBidder homes an in-process bidder on its ring shard. The bidder
// sees the shard's local machine IDs, which is transparent to bidders that
// reason about offers positionally (the usual case: ρ and bids depend on GPU
// counts and locality, not on which global IDs carry them).
func (s *ShardedArbiterServer) RegisterBidder(b core.Bidder) int {
	home := s.HomeShard(string(b.ID()))
	s.shards[home].RegisterBidder(b)
	return home
}

// Register routes a remote agent registration to its home shard.
func (s *ShardedArbiterServer) Register(req RegisterRequest) (RegisterResponse, error) {
	return s.shards[s.HomeShard(req.App)].register(req)
}

// HeldGlobal returns app's total allocation across every shard, in global
// machine IDs. Partitions are disjoint, so the merge is collision-free.
func (s *ShardedArbiterServer) HeldGlobal(app workload.AppID) cluster.Alloc {
	out := cluster.NewAlloc()
	for i, srv := range s.shards {
		held := srv.HeldBy(app)
		if held.Total() == 0 {
			continue
		}
		out = out.Add(s.parts[i].ToGlobal(held))
	}
	return out
}

// HeldTotalGlobal returns app's GPU count summed across every shard without
// materialising the merged allocation — the cheap form of HeldGlobal for
// whole-population accounting.
func (s *ShardedArbiterServer) HeldTotalGlobal(app workload.AppID) int {
	total := 0
	for _, srv := range s.shards {
		total += srv.HeldTotalBy(app)
	}
	return total
}

// ValidateState checks every shard's occupancy invariants.
func (s *ShardedArbiterServer) ValidateState() error {
	for i, srv := range s.shards {
		if err := srv.ValidateState(); err != nil {
			return fmt.Errorf("rpc: shard %d: %w", i, err)
		}
	}
	return nil
}

// RunAuction executes one sharded auction round at the given scheduling time:
// concurrent per-shard partial auctions, the cross-shard reconciliation
// round, then one aggregated delivery per changed app. The returned decisions
// are in global machine IDs.
func (s *ShardedArbiterServer) RunAuction(now float64) (AuctionResponse, error) {
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
		for app, alloc := range out.granted {
			granted[app] = granted[app].Add(s.parts[i].ToGlobal(alloc))
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
		granted[app] = granted[app].Add(alloc)
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

// RoundTrace returns the deployment-wide trace ring: one entry per sharded
// round with its coarse phases (shards, reconcile, deliver). The fine-grained
// per-shard phases live on each Shard(i).RoundTrace().
func (s *ShardedArbiterServer) RoundTrace() *telemetry.RoundRing { return s.globalRing }

// ReconcileStats reports the cumulative reconciliation telemetry: completed
// sharded rounds, leftover GPUs re-offered across shards, and the total time
// spent inside reconciliation rounds.
func (s *ShardedArbiterServer) ReconcileStats() (rounds, gpus int, spent time.Duration) {
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
func (s *ShardedArbiterServer) reconcile(now float64, allChanged map[workload.AppID]bool) (map[workload.AppID]cluster.Alloc, error) {
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
func (s *ShardedArbiterServer) starved(now float64) []starvedApp {
	perShard := make([][]starvedApp, len(s.shards))
	var wg sync.WaitGroup
	for i, srv := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perShard[i] = srv.unmetDemand(i)
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

// unmetDemand sweeps this shard's registered agents for demand its holdings
// leave unmet and returns them as candidates homed on home, in registry
// order. It holds mu for the whole sweep: UnmetParallelism is local for every
// Bidder (a RemoteBidder answers from its registered demand). Almost every
// agent holds nothing here, so the common case is map-free: held totals are
// read without copies, holders of nothing share the canonical empty
// allocation, and only an actual candidate's holding is copied.
func (s *ArbiterServer) unmetDemand(home int) []starvedApp {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []starvedApp
	for id, a := range s.agents {
		held := emptyCurrent
		if s.state.HeldTotal(string(id)) > 0 {
			held = s.state.Held(string(id))
		}
		if unmet := a.bidder.UnmetParallelism(held); unmet > 0 {
			out = append(out, starvedApp{bidder: a.bidder, id: id, home: home, unmet: unmet, held: held})
		}
	}
	return out
}

// deliver sends each changed app ONE allocation message carrying its global
// total across all shards, on the fanout. The callback is looked up on the
// app's home shard (the only shard remote agents register with).
func (s *ShardedArbiterServer) deliver(now float64, changed map[workload.AppID]bool) {
	deliverChanged(now, s.shards[0].arbiter.Config().LeaseDuration, changed, func(app workload.AppID) *AgentClient {
		return s.shards[s.HomeShard(string(app))].notifyClient(app)
	}, s.HeldGlobal)
}

// Status aggregates the shards into the same StatusResponse an unsharded
// arbiter reports, so operator tooling works unchanged.
func (s *ShardedArbiterServer) Status() StatusResponse {
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
func (s *ShardedArbiterServer) ShardStatus() ShardStatusResponse {
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

// Handler serves the same protocol surface as an unsharded ArbiterServer
// (protocolMux) plus /v1/shards for per-shard detail. Agents cannot tell
// whether they registered with a sharded arbiter.
func (s *ShardedArbiterServer) Handler() http.Handler {
	mux := protocolMux(s.Register, func() (AuctionResponse, error) { return s.RunAuction(s.Clock()) }, s.Status, s.globalRing)
	mux.HandleFunc("/v1/shards", telemetry.Instrument(telemetry.Default(), "/v1/shards", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.ShardStatus())
	}))
	return mux
}
