package rpc

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/workload"
)

func shardedTopo(t *testing.T, machines, gpus, perRack int) *cluster.Topology {
	t.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: machines, GPUs: gpus, SlotSize: 2}},
		MachinesPerRack: perRack,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestShardedSmokeTwoShardsHTTP is the sharded-daemon smoke: two real agent
// daemons register with a 2-shard arbiter over HTTP, an auction runs, and
// status and /v1/shards reflect it.
func TestShardedSmokeTwoShardsHTTP(t *testing.T) {
	topo := shardedTopo(t, 6, 4, 3)
	s := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 2)
	now := 0.0
	s.Clock = func() float64 { return now }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewArbiterClient(ts.URL)
	ctx := context.Background()

	urlA, srvA := startAgent(t, topo, testApp("app-a", 2, 300))
	urlB, srvB := startAgent(t, topo, testApp("app-b", 2, 300))
	if resp, err := client.Register(ctx, "app-a", urlA, 8); err != nil || !resp.OK {
		t.Fatalf("register app-a: %+v err=%v", resp, err)
	}
	if resp, err := client.Register(ctx, "app-b", urlB, 8); err != nil || !resp.OK {
		t.Fatalf("register app-b: %+v err=%v", resp, err)
	}

	st, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalGPUs != 24 || st.FreeGPUs != 24 || len(st.Agents) != 2 {
		t.Fatalf("status after register: %+v", st)
	}

	auction, err := client.TriggerAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	granted := 0
	for app, wire := range auction.Decisions {
		alloc, err := wire.ToAlloc()
		if err != nil {
			t.Fatal(err)
		}
		// Decisions must be in global machine IDs.
		for _, m := range alloc.Machines() {
			if int(m) >= topo.NumMachines() {
				t.Errorf("%s granted machine %d outside the global topology", app, m)
			}
		}
		granted += alloc.Total()
	}
	if granted == 0 {
		t.Fatal("sharded auction granted nothing")
	}

	// Each agent daemon received ONE aggregated, global-ID allocation that
	// matches the arbiter's cross-shard view of it.
	for app, srv := range map[string]*AgentServer{"app-a": srvA, "app-b": srvB} {
		if got, want := srv.Current(), s.HeldBy(workload.AppID(app)); !got.Equal(want) {
			t.Errorf("%s: delivered %v, arbiter holds %v", app, got, want)
		}
	}

	st, err = client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.FreeGPUs != 24-granted {
		t.Errorf("free %d after granting %d of 24", st.FreeGPUs, granted)
	}

	shards, err := client.ShardStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards.Shards) != 2 || shards.Rounds != 1 {
		t.Fatalf("shard status: %+v", shards)
	}
	sumTotal, sumFree := 0, 0
	for _, sh := range shards.Shards {
		sumTotal += sh.TotalGPUs
		sumFree += sh.FreeGPUs
	}
	if sumTotal != 24 || sumFree != st.FreeGPUs {
		t.Errorf("shard capacities (%d total, %d free) disagree with status %+v", sumTotal, sumFree, st)
	}
	if err := s.ValidateState(); err != nil {
		t.Error(err)
	}
}

// runParity drives a one-shard ArbiterServer and one of `shards` shards over
// identical clusters and app populations for several full-reclaim rounds,
// returning (total granted by each, per-app L1 divergence). The last
// `demanding` of the apps want `demand` GPUs each and are the most starved;
// the rest are idle — probed every round, wanting nothing.
func runParity(t *testing.T, apps, demanding, demand, shards, rounds int, f float64) (int, int, int) {
	t.Helper()
	cfg := core.Config{FairnessKnob: f, LeaseDuration: 20}
	makeBidders := func() []*simBidder {
		out := make([]*simBidder, apps)
		for i := range out {
			out[i] = &simBidder{id: workload.AppID(fmt.Sprintf("app-%02d", i)), weight: 1}
			if i >= apps-demanding {
				out[i].demand = demand
				out[i].weight = float64(100 + i)
			}
		}
		return out
	}

	single := newServer(t, shardedTopo(t, 8, 4, 2), cfg, 1)
	for _, b := range makeBidders() {
		single.RegisterBidder(b)
	}
	sharded := newServer(t, shardedTopo(t, 8, 4, 2), cfg, shards)
	for _, b := range makeBidders() {
		sharded.RegisterBidder(b)
	}

	for r := 0; r < rounds; r++ {
		now := float64(r) * 21 // a lease apart: full reclaim every round
		if _, err := single.RunAuction(now); err != nil {
			t.Fatalf("single round %d: %v", r, err)
		}
		if _, err := sharded.RunAuction(now); err != nil {
			t.Fatalf("sharded round %d: %v", r, err)
		}
	}
	if err := sharded.ValidateState(); err != nil {
		t.Error(err)
	}

	singleTotal, shardedTotal, l1 := 0, 0, 0
	for i := 0; i < apps; i++ {
		id := workload.AppID(fmt.Sprintf("app-%02d", i))
		a := single.HeldBy(id).Total()
		b := sharded.HeldBy(id).Total()
		singleTotal += a
		shardedTotal += b
		if d := a - b; d >= 0 {
			l1 += d
		} else {
			l1 -= d
		}
	}
	return singleTotal, shardedTotal, l1
}

// TestShardedParityFullSubscription: when aggregate demand equals capacity,
// every app can be fully satisfied, so N shards must match one shard
// EXACTLY, app by app — local auctions satisfy homed demand
// and the reconciliation round erases any shard imbalance. The idle-majority
// case buries the 16 demanding apps under 384 that want nothing, with f set so
// that only the demanding stratum bids (the paper's "worst-off fraction"):
// the idle apps cost a probe per round and must change nothing.
func TestShardedParityFullSubscription(t *testing.T) {
	for _, tc := range []struct {
		name string
		apps int
		f    float64
	}{
		{"all-demanding", 16, 0.5},
		{"idle-majority", 400, 1 - 16.0/400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// 16 apps x 2 GPUs = 32 = cluster capacity.
			single, sharded, l1 := runParity(t, tc.apps, 16, 2, 2, 3, tc.f)
			if single != 32 {
				t.Fatalf("reference granted %d of 32 with matching demand (work conservation broken)", single)
			}
			if sharded != single {
				t.Errorf("sharded granted %d, single %d", sharded, single)
			}
			if l1 != 0 {
				t.Errorf("per-app divergence %d GPUs at full subscription, want exact parity", l1)
			}
		})
	}
}

// TestShardedParityOversubscribed: with demand at twice capacity the two
// deployments must still grant identical totals (work conservation), and the
// per-app distributions must agree within the reconciliation tolerance: a
// shard's "worst 1-f fraction" is computed over its own residents, so which
// apps win can legitimately shift at the margin.
func TestShardedParityOversubscribed(t *testing.T) {
	single, sharded, l1 := runParity(t, 16, 16, 4, 2, 3, 0.5)
	if single != 32 {
		t.Fatalf("reference granted %d of 32 (work conservation broken)", single)
	}
	if sharded != single {
		t.Errorf("total grants diverge: single %d, sharded %d", single, sharded)
	}
	if frac := float64(l1) / float64(single); frac > 0.75 {
		t.Errorf("per-app divergence %.0f%% of %d granted GPUs exceeds tolerance", 100*frac, single)
	}
}

// TestShardedReconciliationMovesLeftovers pins the cross-shard round: when
// one shard's homed apps want nothing, its capacity must flow to starved
// apps homed on other shards instead of idling.
func TestShardedReconciliationMovesLeftovers(t *testing.T) {
	topo := shardedTopo(t, 8, 4, 2)
	s := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 2)

	// Home a batch of apps, then give demand only to those homed on one
	// shard: the other shard's partition has zero local demand.
	starvedShard := -1
	var starved []*simBidder
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("app-%02d", i)
		home := s.HomeShard(id)
		if starvedShard == -1 {
			starvedShard = home
		}
		b := &simBidder{id: workload.AppID(id), weight: float64(100 + i)}
		if home == starvedShard {
			b.demand = topo.TotalGPUs() // wants more than its own shard holds
			starved = append(starved, b)
		}
		s.RegisterBidder(b)
	}
	if len(starved) == 0 {
		t.Fatal("setup: no app homed on the starved shard")
	}

	resp, err := s.RunAuction(0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Reconciled == 0 {
		t.Fatal("reconciliation moved nothing despite idle capacity and starved apps")
	}
	// Work conservation across shards: every GPU is held by somebody.
	if st := s.Status(); st.FreeGPUs != 0 {
		t.Errorf("free %d after reconciliation, want 0", st.FreeGPUs)
	}
	// The starved apps now hold GPUs on BOTH partitions.
	otherShard := 1 - starvedShard
	crossShard := 0
	for _, b := range starved {
		crossShard += s.Shard(otherShard).HeldBy(b.id).Total()
	}
	if crossShard == 0 {
		t.Error("no starved app holds GPUs on the donor shard")
	}
	if got := s.ShardStatus(); got.Reconciled != resp.Reconciled || got.Rounds != 1 {
		t.Errorf("shard status telemetry %+v does not match auction %+v", got, resp)
	}
	if err := s.ValidateState(); err != nil {
		t.Error(err)
	}
}

// TestShardedRegisterRoutesToHomeShard: registration must land the app on
// the ring-designated shard and nowhere else, deterministically.
func TestShardedRegisterRoutesToHomeShard(t *testing.T) {
	topo := shardedTopo(t, 8, 4, 2)
	s := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 4)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("app-%02d", i)
		if _, err := s.register(RegisterRequest{App: id, Callback: "http://x:1", MaxParallelism: 4}); err != nil {
			t.Fatal(err)
		}
		home := s.HomeShard(id)
		for idx := 0; idx < s.NumShards(); idx++ {
			has := s.Shard(idx).notifyClient(workload.AppID(id)) != nil
			if has != (idx == home) {
				t.Fatalf("app %s: registered on shard %d, home is %d", id, idx, home)
			}
		}
	}
}

// TestShardedRoundsWithInProcessAgents drives in-process Agents — which bid
// through their shard arbiter's BidValuator, on rows recycled from round to
// round — across sharded rounds that reclaim and re-auction. Each shard owns
// its valuator, so the concurrent per-shard rounds share no bid rows (the
// race gate runs this); every round must leave the occupancy state valid and
// the cluster fully leased to the six apps that want far more than it holds.
func TestShardedRoundsWithInProcessAgents(t *testing.T) {
	topo := shardedTopo(t, 8, 4, 2)
	s := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 2)
	for i := 0; i < 6; i++ {
		app := testApp(fmt.Sprintf("inproc-%02d", i), 2, 200)
		s.RegisterBidder(core.NewAgent(topo, app, hyperparam.ForApp(app), nil))
	}
	for round := 0; round < 3; round++ {
		resp, err := s.RunAuction(float64(round) * 25)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Decisions) == 0 {
			t.Fatalf("round %d granted nothing", round)
		}
		if err := s.ValidateState(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st := s.Status(); st.FreeGPUs != 0 {
			t.Errorf("round %d left %d of %d GPUs free", round, st.FreeGPUs, st.TotalGPUs)
		}
	}
}
