package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"themis"
	"themis/daemon"
	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/rpc"
	"themis/internal/telemetry"
	"themis/internal/workload"
)

// roundClock is the scheduling clock the bench steps by one lease plus a
// minute per round, so every round reclaims and re-auctions the whole
// cluster — the worst-case round, not the incremental one.
type roundClock struct {
	mu  sync.Mutex
	now float64
}

func (c *roundClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *roundClock) advance(d float64) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// checkDecisions is the per-round check both serving workloads share: the
// round grants no more than it offered, and every decision names a
// registered app and GPUs that exist in the topology.
func checkDecisions(resp daemon.AuctionResponse, topo *themis.Topology, registered func(string) bool) []string {
	var fails []string
	granted := 0
	for app, wire := range resp.Decisions {
		if !registered(app) {
			fails = append(fails, fmt.Sprintf("decision names unregistered app %s", app))
		}
		for _, e := range wire {
			if e.Machine < 0 || e.Machine >= topo.NumMachines() || e.GPUs < 0 ||
				e.GPUs > topo.Machine(cluster.MachineID(e.Machine)).NumGPUs {
				fails = append(fails, fmt.Sprintf("decision for %s names %d GPUs on machine %d, outside the topology", app, e.GPUs, e.Machine))
			}
			granted += e.GPUs
		}
	}
	if granted > resp.Offered {
		fails = append(fails, fmt.Sprintf("granted %d GPUs of %d offered", granted, resp.Offered))
	}
	return fails
}

// spanSeconds sums a round trace's named phase.
func spanSeconds(rd telemetry.Round, name string) float64 {
	var d time.Duration
	for _, s := range rd.Spans() {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d.Seconds()
}

// phaseSpans copies a round trace's phases into the tracer under parent.
func phaseSpans(tr *tracer, parent int64, prefix string, rd telemetry.Round) {
	for _, s := range rd.Spans() {
		tr.leaf(parent, prefix+s.Name, rd.Wall.Add(s.Start), rd.Wall.Add(s.Start+s.Dur))
	}
}

// lastRound returns the newest entry of a round ring. The ring holds 64
// rounds, so it is read after every round rather than once at the end.
func lastRound(ring *daemon.RoundRing) (telemetry.Round, bool) {
	snap := ring.Snapshot()
	if len(snap) == 0 {
		return telemetry.Round{}, false
	}
	return snap[len(snap)-1], true
}

// clientErrors sums the rpc clients' transport-failure counters.
func clientErrors() uint64 {
	reg := telemetry.Default()
	var n uint64
	for _, p := range []string{"/v1/rho", "/v1/bid", "/v1/allocation", "/v1/health",
		"/v1/register", "/v1/auction", "/v1/status", "/v1/shards", "other"} {
		n += reg.Counter("themis_rpc_client_errors_total", "", telemetry.L("endpoint", p)).Value()
	}
	return n
}

// hiddenPaymentSeconds replays one round's captured bids through the partial
// allocation mechanism with and without hidden payments; the difference is
// what the per-bidder re-solves cost that round.
func hiddenPaymentSeconds(topo *cluster.Topology, offer cluster.Alloc, bids []core.BidTable) (float64, error) {
	run := func(opts core.AuctionOptions) (float64, error) {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := core.RunPartialAllocation(topo, offer, bids, opts); err != nil {
				return 0, err
			}
			if d := time.Since(t0).Seconds(); rep == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	with, err := run(core.AuctionOptions{})
	if err != nil {
		return 0, err
	}
	without, err := run(core.AuctionOptions{DisableHiddenPayments: true})
	if err != nil {
		return 0, err
	}
	if with < without {
		return 0, nil
	}
	return with - without, nil
}

// -------------------------------------------------------------- loopback --

// loopbackInst is the serve-loopback workload: one unsharded ArbiterServer
// and real AgentServers, all mounted by path prefix on one loopback
// listener, registered over HTTP. A single closed-loop client triggers
// rounds; each round is sequential per-agent RPCs — a ρ probe per agent and
// a bid request per participant — through the JSON wire codec.
type loopbackInst struct {
	tr     *tracer
	topo   *themis.Topology
	arb    *daemon.ArbiterServer
	agents map[string]*daemon.AgentServer
	ids    []string
	srv    *http.Server
	served chan struct{}
	client *daemon.ArbiterClient
	clock  roundClock
	lease  float64

	// Traced state: the middleware's counters, and per-round sums.
	http       *httpStats
	errsBase   uint64
	solver     solverCounters
	core       core.ArbiterStats
	ring       struct{ round, reclaim, grant float64 }
	clientWall float64
	walls      []float64
}

func setupLoopback(seed int64, sz sizes, out string, tr *tracer) (instance, string, error) {
	topo, err := themis.Cluster(themis.ClusterSim)
	if err != nil {
		return nil, "", err
	}
	cfg := daemon.DefaultArbiterConfig()
	arb, err := daemon.NewArbiterServer(topo, cfg)
	if err != nil {
		return nil, "", err
	}
	in := &loopbackInst{tr: tr, topo: topo, arb: arb, lease: cfg.LeaseDuration,
		agents: make(map[string]*daemon.AgentServer), served: make(chan struct{})}
	arb.Clock = in.clock.Now
	wrap := func(h http.Handler) http.Handler { return h }
	if tr != nil {
		in.http = &httpStats{tr: tr}
		wrap = in.http.middleware
	}

	spec := themis.DefaultWorkloadSpec()
	spec.NumApps = sz.loopbackAgents
	spec.Seed = subSeed(seed, 3, 0)
	apps, err := themis.GenerateWorkload(spec)
	if err != nil {
		return nil, "", err
	}
	h := sha256.New()
	if err := themis.WriteTraceBinary(h, themis.NewTrace("loopback", apps)); err != nil {
		return nil, "", err
	}
	// Rounds start once the last app has been submitted, so every round has
	// the same population bidding and round latency does not drift with the
	// round index.
	in.clock.now = apps[len(apps)-1].SubmitTime

	mux := http.NewServeMux()
	mux.Handle("/", wrap(arb.Handler()))
	for _, app := range apps {
		agent, err := daemon.NewAgentServer(topo, app)
		if err != nil {
			return nil, "", err
		}
		id := string(app.ID)
		prefix := "/agents/" + id
		mux.Handle(prefix+"/", http.StripPrefix(prefix, wrap(agent.Handler())))
		in.agents[id] = agent
		in.ids = append(in.ids, id)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	in.srv = &http.Server{Handler: mux}
	if in.http != nil {
		in.srv.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				in.http.conns.Add(1)
			}
		}
	}
	go func() {
		defer close(in.served)
		_ = in.srv.Serve(ln) // returns ErrServerClosed once close() runs
	}()
	base := "http://" + ln.Addr().String()
	in.client = daemon.NewArbiterClient(base)
	for _, app := range apps {
		id := string(app.ID)
		if _, err := in.client.Register(context.Background(), id, base+"/agents/"+id, app.MaxParallelism()); err != nil {
			in.close()
			return nil, "", fmt.Errorf("registering %s: %w", id, err)
		}
	}
	return in, digestOf(h), nil
}

func (in *loopbackInst) begin() {
	if in.http == nil {
		return
	}
	in.http.reset()
	in.errsBase = clientErrors()
	in.solver = readSolverCounters()
	in.core = in.arb.Arbiter().Stats
	in.ring.round, in.ring.reclaim, in.ring.grant = 0, 0, 0
	in.clientWall = 0
	in.walls = in.walls[:0]
}

func (in *loopbackInst) op(parent int64) opResult {
	res := opResult{apps: len(in.ids)}
	in.clock.advance(in.lease + 1)
	if in.http != nil {
		in.http.parent.Store(parent)
		in.http.resetRound()
	}
	errsBefore := clientErrors()
	t0 := time.Now()
	resp, err := in.client.TriggerAuction(context.Background())
	res.wall = time.Since(t0)
	if err != nil {
		res.fails = append(res.fails, err.Error())
		return res
	}
	if errs := clientErrors() - errsBefore; errs != 0 {
		// The arbiter degrades a failed probe or bid to "ρ = 1 / empty bid",
		// so a transport error never surfaces in the response.
		res.fails = append(res.fails, fmt.Sprintf("%d rpc client transport errors", errs))
	}
	if in.http != nil {
		in.clientWall += res.wall.Seconds()
		in.walls = append(in.walls, res.wall.Seconds())
		if rd, ok := lastRound(in.arb.RoundTrace()); ok {
			in.ring.round += rd.Total.Seconds()
			in.ring.reclaim += spanSeconds(rd, "reclaim")
			in.ring.grant += spanSeconds(rd, "grant")
			phaseSpans(in.tr, parent, "rpc.", rd)
		}
	}

	res.fails = checkDecisions(resp, in.topo, func(app string) bool { return in.agents[app] != nil })
	if err := in.arb.ValidateState(); err != nil {
		res.fails = append(res.fails, err.Error())
	}
	for _, id := range in.ids {
		if held := in.arb.HeldBy(workload.AppID(id)); !held.Equal(in.agents[id].Current()) {
			res.fails = append(res.fails, fmt.Sprintf("agent %s was delivered %v but the arbiter holds %v for it", id, in.agents[id].Current(), held))
			break
		}
	}
	return res
}

func (in *loopbackInst) layers(m *metricSet, ops int) []string {
	var fails []string
	setCore(m, statsSince(in.arb.Arbiter().Stats, in.core))
	readSolverCounters().since(m, in.solver, m.get("core.rounds"))
	h := in.http
	handler := seconds(h.auction.ns.Load())
	m.set("rpc.round_s", in.ring.round)
	m.set("rpc.reclaim_s", in.ring.reclaim)
	m.set("rpc.grant_s", in.ring.grant)
	m.set("rpc.deliver_s", handler-in.ring.round)
	m.set("rpc.trigger_overhead_s", in.clientWall-handler)
	m.set("rpc.agent.rho_calls", float64(h.rho.calls.Load()))
	m.set("rpc.agent.bid_calls", float64(h.bid.calls.Load()))
	m.set("rpc.agent.allocation_calls", float64(h.alloc.calls.Load()))
	m.set("rpc.agent.rho_s", seconds(h.rho.ns.Load()))
	m.set("rpc.agent.bid_s", seconds(h.bid.ns.Load()))
	m.set("rpc.agent.allocation_s", seconds(h.alloc.ns.Load()))
	m.set("rpc.transport_s", m.get("core.probe_s")+m.get("core.bid_s")-seconds(h.rho.ns.Load()+h.bid.ns.Load()))
	requests := h.rho.calls.Load() + h.bid.calls.Load() + h.alloc.calls.Load() + h.auction.calls.Load()
	if ops > 0 {
		m.set("rpc.bytes_per_round", float64(h.rho.bytes.Load()+h.bid.bytes.Load()+h.alloc.bytes.Load()+h.auction.bytes.Load())/float64(ops))
	}
	m.set("rpc.conns_opened", float64(h.conns.Load()))
	if requests > 0 {
		m.set("rpc.conn_reuse_ratio", 1-float64(h.conns.Load())/float64(requests))
	}
	m.set("rpc.client_errors", float64(clientErrors()-in.errsBase))
	m.set("round_p90_ms", percentile(in.walls, 0.9)*1e3)

	// The last round's bid exchanges, replayed: through the wire codec for
	// the per-message encode/decode cost, and through the auction for the
	// hidden-payment share of solve.
	h.mu.Lock()
	reqs, resps := h.bidReqs, h.bidResps
	h.mu.Unlock()
	if len(reqs) == 0 {
		return fails
	}
	var offer cluster.Alloc
	var bids []core.BidTable
	for i := range reqs {
		var req rpc.BidRequest
		var resp rpc.BidResponse
		if err := json.Unmarshal(reqs[i], &req); err != nil {
			return append(fails, fmt.Sprintf("captured bid request: %v", err))
		}
		if err := json.Unmarshal(resps[i], &resp); err != nil {
			return append(fails, fmt.Sprintf("captured bid response: %v", err))
		}
		o, err := req.Offer.ToAlloc()
		if err != nil {
			return append(fails, err.Error())
		}
		offer = o
		bid, err := resp.ToBidTable()
		if err != nil {
			return append(fails, err.Error())
		}
		bids = append(bids, bid)
	}
	const codecReps = 20
	t0 := time.Now()
	for rep := 0; rep < codecReps; rep++ {
		for _, bid := range bids {
			if _, err := json.Marshal(rpc.FromBidTable(bid)); err != nil {
				return append(fails, err.Error())
			}
			if _, err := json.Marshal(rpc.BidRequest{Offer: rpc.ToWireAlloc(offer)}); err != nil {
				return append(fails, err.Error())
			}
		}
	}
	t1 := time.Now()
	for rep := 0; rep < codecReps; rep++ {
		for i := range resps {
			var req rpc.BidRequest
			var resp rpc.BidResponse
			_ = json.Unmarshal(reqs[i], &req)
			_ = json.Unmarshal(resps[i], &resp)
			_, _ = req.Offer.ToAlloc()
			_, _ = resp.ToBidTable()
		}
	}
	t2 := time.Now()
	perMsg := float64(codecReps * len(bids))
	m.set("rpc.wire.encode_us", float64(t1.Sub(t0).Nanoseconds())/1e3/perMsg)
	m.set("rpc.wire.decode_us", float64(t2.Sub(t1).Nanoseconds())/1e3/perMsg)

	hp, err := hiddenPaymentSeconds(in.topo, offer, bids)
	if err != nil {
		return append(fails, fmt.Sprintf("hidden-payment replay: %v", err))
	}
	m.set("core.hidden_payment_s", hp*float64(ops))
	return fails
}

func (in *loopbackInst) close() {
	_ = in.srv.Close()
	<-in.served
	// The arbiter's agent clients share the default transport; drop the
	// connections to the listener that just went away.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// --------------------------------------------------------------- sharded --

// synthBidder is the load-study app re-implemented for the bench: ρ falls
// with holdings, bids are two all-or-nothing bundles staggered across the
// offered machines. It is intentionally cheap — the workload measures the
// arbiter, not the agents — and entirely determined by the seeded table.
type synthBidder struct {
	id     workload.AppID
	demand int
	weight float64
	offset int
}

func (b *synthBidder) ID() workload.AppID { return b.id }

func (b *synthBidder) rho(held int) float64 { return b.weight / float64(1+held) }

func (b *synthBidder) ReportRho(_ float64, current cluster.Alloc) float64 {
	return b.rho(current.Total())
}

func (b *synthBidder) PrepareBid(_ float64, offer, current cluster.Alloc) core.BidTable {
	held := current.Total()
	table := core.BidTable{App: b.id, Entries: []core.BidEntry{{Alloc: cluster.NewAlloc(), Rho: b.rho(held)}}}
	want := b.demand - held
	machines := offer.Machines()
	if want <= 0 || len(machines) == 0 {
		return table
	}
	prev := 0
	for _, size := range []int{(want + 1) / 2, want} {
		if size <= prev {
			continue
		}
		take := cluster.NewAlloc()
		for k := 0; k < len(machines) && take.Total() < size; k++ {
			mach := machines[(b.offset+k)%len(machines)]
			for take[mach] < offer[mach] && take.Total() < size {
				take[mach]++
			}
		}
		if take.Total() > prev {
			table.Entries = append(table.Entries, core.BidEntry{Alloc: take, Rho: b.rho(held + take.Total())})
			prev = take.Total()
		}
	}
	return table
}

func (b *synthBidder) UnmetParallelism(current cluster.Alloc) int {
	if unmet := b.demand - current.Total(); unmet > 0 {
		return unmet
	}
	return 0
}

func (b *synthBidder) GangSize() int { return 1 }

// synthPopulation draws the bidder table from the seed: the last `demanding`
// bidders split exactly `capacity` GPUs of demand between them (a seeded
// composition, every part at least 1) with distinct weights well above the
// idle majority's, so they are unambiguously the most starved and the
// auction's participants; everyone else is probed every round and never
// granted.
func synthPopulation(seed int64, n, demanding, capacity int) []*synthBidder {
	rng := rand.New(rand.NewSource(seed))
	demand := make([]int, demanding)
	for i := range demand {
		demand[i] = 1
	}
	for extra := capacity - demanding; extra > 0; extra-- {
		demand[rng.Intn(demanding)]++
	}
	out := make([]*synthBidder, n)
	for i := range out {
		b := &synthBidder{id: workload.AppID(fmt.Sprintf("load-%06d", i)), weight: 1, offset: rng.Intn(1 << 20)}
		if rank := i - (n - demanding); rank >= 0 {
			b.weight = 1000 + float64(rank) + rng.Float64()/2
			b.demand = demand[rank]
		}
		out[i] = b
	}
	return out
}

// shardedInst is the serve-sharded workload: a ShardedArbiterServer over a
// fully subscribed synthetic population, driven in-process with full-reclaim
// RunAuction rounds. Few huge auctions over empty holdings: winner
// determination and the hidden-payment re-solves dominate, and partitioning,
// per-shard concurrency and reconcile are exercised nowhere else.
type shardedInst struct {
	tr       *tracer
	topo     *themis.Topology
	srv      *daemon.ShardedArbiter
	ids      map[string]bool
	order    []workload.AppID
	capacity int
	clock    roundClock
	lease    float64

	bidders   *bidderStats
	solver    solverCounters
	core      core.ArbiterStats
	recBase   int
	global    struct{ shards, reconcile, deliver float64 }
	imbalance float64
	walls     []float64
}

func setupSharded(seed int64, sz sizes, out string, tr *tracer) (instance, string, error) {
	topo, err := themis.ClusterConfig{
		MachineSpecs:    []themis.MachineSpec{{Count: sz.shardMachines, GPUs: 8, SlotSize: 4}},
		MachinesPerRack: 8,
	}.Build()
	if err != nil {
		return nil, "", err
	}
	cfg := daemon.DefaultArbiterConfig()
	// Exactly the demanding stratum bids, as in the paper's observation that
	// only the worst-off fraction does.
	cfg.FairnessKnob = 1 - float64(sz.shardDemanding)/float64(sz.shardBidders)
	srv, err := daemon.NewShardedArbiter(topo, cfg, sz.shards)
	if err != nil {
		return nil, "", err
	}
	in := &shardedInst{tr: tr, topo: topo, srv: srv, capacity: topo.TotalGPUs(), lease: cfg.LeaseDuration,
		ids: make(map[string]bool, sz.shardBidders)}
	srv.Clock = in.clock.Now
	if tr != nil {
		in.bidders = &bidderStats{}
	}
	h := sha256.New()
	for _, b := range synthPopulation(subSeed(seed, 4, 0), sz.shardBidders, sz.shardDemanding, in.capacity) {
		fmt.Fprintf(h, "%s %d %v %d\n", b.id, b.demand, b.weight, b.offset)
		in.ids[string(b.id)] = true
		in.order = append(in.order, b.id)
		if tr != nil {
			srv.RegisterBidder(&timedBidder{inner: b, shard: srv.HomeShard(string(b.id)), stats: in.bidders})
		} else {
			srv.RegisterBidder(b)
		}
	}
	return in, digestOf(h), nil
}

// shardStats sums the shards' cumulative auction statistics.
func (in *shardedInst) shardStats() core.ArbiterStats {
	var sum core.ArbiterStats
	for i := 0; i < in.srv.NumShards(); i++ {
		addStats(&sum, in.srv.Shard(i).Arbiter().Stats)
	}
	return sum
}

func (in *shardedInst) begin() {
	if in.tr == nil {
		return
	}
	in.bidders.probeNs.Store(0)
	in.bidders.bidNs.Store(0)
	in.solver = readSolverCounters()
	in.core = in.shardStats()
	_, in.recBase, _ = in.srv.ReconcileStats()
	in.global.shards, in.global.reconcile, in.global.deliver = 0, 0, 0
	in.imbalance = 0
	in.walls = in.walls[:0]
}

func (in *shardedInst) op(parent int64) opResult {
	res := opResult{apps: len(in.order)}
	in.clock.advance(in.lease + 1)
	if in.tr != nil {
		in.bidders.resetRound()
	}
	t0 := time.Now()
	resp, err := in.srv.RunAuction(in.clock.Now())
	res.wall = time.Since(t0)
	if err != nil {
		res.fails = append(res.fails, err.Error())
		return res
	}
	if in.tr != nil {
		in.walls = append(in.walls, res.wall.Seconds())
		if rd, ok := lastRound(in.srv.RoundTrace()); ok {
			in.global.shards += spanSeconds(rd, "shards")
			in.global.reconcile += spanSeconds(rd, "reconcile")
			in.global.deliver += spanSeconds(rd, "deliver")
			phaseSpans(in.tr, parent, "shard.", rd)
		}
		var slowest, sum float64
		for i := 0; i < in.srv.NumShards(); i++ {
			rd, ok := lastRound(in.srv.Shard(i).RoundTrace())
			if !ok {
				continue
			}
			shardID := in.tr.newID()
			in.tr.record(shardID, parent, "shard.round."+rd.Shard, rd.Wall, rd.Wall.Add(rd.Total))
			phaseSpans(in.tr, shardID, "core.", rd)
			sum += rd.Total.Seconds()
			if d := rd.Total.Seconds(); d > slowest {
				slowest = d
			}
		}
		if sum > 0 {
			in.imbalance += slowest / (sum / float64(in.srv.NumShards()))
		}
	}

	res.fails = checkDecisions(resp, in.topo, func(app string) bool { return in.ids[app] })
	if err := in.srv.ValidateState(); err != nil {
		res.fails = append(res.fails, err.Error())
	}
	held := 0
	for _, id := range in.order {
		held += in.srv.HeldTotalGlobal(id)
	}
	if held != in.capacity {
		res.fails = append(res.fails, fmt.Sprintf("full subscription not met: %d of %d GPUs held", held, in.capacity))
	}
	return res
}

func (in *shardedInst) layers(m *metricSet, ops int) []string {
	var fails []string
	delta := statsSince(in.shardStats(), in.core)
	setCore(m, delta)
	readSolverCounters().since(m, in.solver, float64(delta.Auctions))
	m.set("shard.shards_s", in.global.shards)
	m.set("shard.reconcile_s", in.global.reconcile)
	m.set("shard.deliver_s", in.global.deliver)
	_, reconciled, _ := in.srv.ReconcileStats()
	m.set("shard.reconciled_gpus", float64(reconciled-in.recBase))
	if ops > 0 {
		m.set("shard.imbalance", in.imbalance/float64(ops))
	}
	m.set("bidder.probe_s", seconds(in.bidders.probeNs.Load()))
	m.set("bidder.bid_s", seconds(in.bidders.bidNs.Load()))
	m.set("round_p90_ms", percentile(in.walls, 0.9)*1e3)

	// The last round's bids, replayed shard by shard.
	in.bidders.mu.Lock()
	captured := append([]bidCapture(nil), in.bidders.bids...)
	in.bidders.mu.Unlock()
	sort.SliceStable(captured, func(i, j int) bool { return captured[i].shard < captured[j].shard })
	var hp float64
	for lo := 0; lo < len(captured); {
		hi := lo
		var bids []core.BidTable
		for hi < len(captured) && captured[hi].shard == captured[lo].shard {
			bids = append(bids, captured[hi].bid)
			hi++
		}
		d, err := hiddenPaymentSeconds(in.srv.Shard(captured[lo].shard).Arbiter().Topology(), captured[lo].offer, bids)
		if err != nil {
			return append(fails, fmt.Sprintf("hidden-payment replay, shard %d: %v", captured[lo].shard, err))
		}
		hp += d
		lo = hi
	}
	m.set("core.hidden_payment_s", hp*float64(ops))
	return fails
}

func (in *shardedInst) close() {}
