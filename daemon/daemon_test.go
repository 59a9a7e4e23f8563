package daemon_test

// End-to-end coverage for the daemon layer: a full arbiterd+agentd auction
// round — register → probe → bid → allocate — driven entirely over HTTP via
// httptest servers, asserted wire-for-wire against an in-process core
// auction over identical apps. The protocol is supposed to be a transparent
// transport for the core mechanism, so every ρ, every bid-table row and
// every allocation must come back identical.

import (
	"context"
	"net/http/httptest"
	"testing"

	"themis"
	"themis/daemon"
	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/hyperparam"
)

func e2eTopo(t *testing.T) *themis.Topology {
	t.Helper()
	topo, err := themis.ClusterConfig{
		MachineSpecs:    []themis.MachineSpec{{Count: 4, GPUs: 4, SlotSize: 2}},
		MachinesPerRack: 2,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// e2eApp builds one test app deterministically; called twice (daemon side
// and oracle side) it yields identical apps. The two apps differ in model,
// job count and work so their ρ estimates never tie — auction outcomes stay
// order-independent.
func e2eApp(t *testing.T, id string, nJobs int, work float64, model string) *themis.App {
	t.Helper()
	profile, err := themis.Model(model)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*themis.Job, nJobs)
	for i := 0; i < nJobs; i++ {
		j := themis.NewJob(themis.AppID(id), i, work, 4)
		j.Quality = float64(i) / float64(nJobs+1)
		j.Seed = int64(i + 3)
		jobs[i] = j
	}
	app, err := themis.NewApp(themis.AppID(id), 0, profile, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

type e2eSpec struct {
	id    string
	nJobs int
	work  float64
	model string
}

var e2eApps = []e2eSpec{
	{"app-slow", 3, 400, "VGG16"},
	{"app-fast", 1, 60, "ResNet50"},
}

// oracleAgent builds the in-process twin of one daemon agent and replays the
// same call sequence the HTTP side has seen so far (one probe, one bid), so
// any stateful estimator behaviour stays in lockstep.
func oracleAgent(t *testing.T, topo *themis.Topology, spec e2eSpec, free cluster.Alloc) *core.Agent {
	t.Helper()
	app := e2eApp(t, spec.id, spec.nJobs, spec.work, spec.model)
	ag := core.NewAgent(topo, app, hyperparam.ForApp(app), nil)
	ag.ReportRho(0, cluster.NewAlloc())
	ag.PrepareBid(0, free.Clone(), cluster.NewAlloc())
	return ag
}

func TestDaemonAuctionRoundMatchesCore(t *testing.T) {
	topo := e2eTopo(t)
	ctx := context.Background()
	cfg := daemon.ArbiterConfig{FairnessKnob: 0, LeaseDuration: 20}

	arbSrv, err := daemon.NewShardedArbiter(topo, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	arbSrv.Clock = func() float64 { return 0 }
	arbTS := httptest.NewServer(arbSrv.Handler())
	defer arbTS.Close()
	arbClient := daemon.NewArbiterClient(arbTS.URL)

	// Register: one agentd per app, each a real HTTP server.
	agentSrvs := make(map[string]*daemon.AgentServer)
	agentClients := make(map[string]*daemon.AgentClient)
	for _, spec := range e2eApps {
		app := e2eApp(t, spec.id, spec.nJobs, spec.work, spec.model)
		srv, err := daemon.NewAgentServer(topo, app)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		agentSrvs[spec.id] = srv
		agentClients[spec.id] = daemon.NewAgentClient(ts.URL)

		resp, err := arbClient.Register(ctx, spec.id, ts.URL, app.MaxParallelism())
		if err != nil || !resp.OK || resp.LeaseMin != 20 {
			t.Fatalf("register %s: %+v err=%v", spec.id, resp, err)
		}
	}

	st, err := arbClient.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalGPUs != 16 || st.FreeGPUs != 16 || len(st.Agents) != 2 {
		t.Fatalf("status after register: %+v", st)
	}

	free := cluster.NewState(topo).FreeVector()

	// Probe and bid over the wire; each answer must equal the in-process
	// agent's answer for the same inputs.
	for _, spec := range e2eApps {
		app := e2eApp(t, spec.id, spec.nJobs, spec.work, spec.model)
		oracle := core.NewAgent(topo, app, hyperparam.ForApp(app), nil)

		gotRho, err := agentClients[spec.id].ProbeRho(ctx, 0, nil)
		if err != nil {
			t.Fatalf("probe %s: %v", spec.id, err)
		}
		if wantRho := oracle.ReportRho(0, cluster.NewAlloc()); gotRho != wantRho {
			t.Errorf("%s: wire rho %v != core rho %v", spec.id, gotRho, wantRho)
		}

		gotBid, err := agentClients[spec.id].RequestBid(ctx, 0, free.Clone(), nil)
		if err != nil {
			t.Fatalf("bid %s: %v", spec.id, err)
		}
		wantBid := oracle.PrepareBid(0, free.Clone(), cluster.NewAlloc())
		if gotBid.App != wantBid.App || len(gotBid.Entries) != len(wantBid.Entries) {
			t.Fatalf("%s: wire bid shape %d rows != core %d rows", spec.id, len(gotBid.Entries), len(wantBid.Entries))
		}
		for i := range wantBid.Entries {
			if !gotBid.Entries[i].Alloc.Equal(wantBid.Entries[i].Alloc) || gotBid.Entries[i].Rho != wantBid.Entries[i].Rho {
				t.Errorf("%s: bid row %d differs: wire %v@%v, core %v@%v", spec.id, i,
					gotBid.Entries[i].Alloc, gotBid.Entries[i].Rho, wantBid.Entries[i].Alloc, wantBid.Entries[i].Rho)
			}
		}
	}

	// Allocate: one auction round over HTTP.
	auction, err := arbClient.TriggerAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if auction.Offered != 16 {
		t.Fatalf("offered %d GPUs, want 16", auction.Offered)
	}
	got := make(map[string]cluster.Alloc)
	for id, wire := range auction.Decisions {
		alloc, err := wire.ToAlloc()
		if err != nil {
			t.Fatal(err)
		}
		got[id] = alloc
	}

	// Oracle: the same auction in-process. The arbiter server feeds agents
	// to the auction in map order, so accept either ordering (the outcomes
	// should agree anyway — ρs are distinct by construction).
	matched := false
	var want map[string]cluster.Alloc
	for _, order := range [][]e2eSpec{{e2eApps[0], e2eApps[1]}, {e2eApps[1], e2eApps[0]}} {
		arb, err := core.NewArbiter(topo, core.Config{FairnessKnob: 0, LeaseDuration: 20})
		if err != nil {
			t.Fatal(err)
		}
		states := make([]core.AgentState, 0, len(order))
		for _, spec := range order {
			states = append(states, core.AgentState{
				Agent:   oracleAgent(t, topo, spec, free),
				Current: cluster.NewAlloc(),
			})
		}
		decisions, err := arb.OfferResources(0, free.Clone(), states)
		if err != nil {
			t.Fatal(err)
		}
		oracle := make(map[string]cluster.Alloc)
		for _, d := range decisions {
			oracle[string(d.App)] = oracle[string(d.App)].Add(d.Alloc)
		}
		if allocMapsEqual(got, oracle) {
			matched, want = true, oracle
			break
		}
		want = oracle
	}
	if !matched {
		t.Fatalf("wire allocations diverge from core auction:\nwire: %v\ncore: %v", got, want)
	}

	// The winning allocations must have been delivered to the agent daemons.
	total := 0
	for id, alloc := range got {
		total += alloc.Total()
		if cur := agentSrvs[id].Current(); !cur.Equal(alloc) {
			t.Errorf("%s: delivered allocation %v != decision %v", id, cur, alloc)
		}
	}
	if total == 0 {
		t.Fatal("auction granted nothing")
	}

	// And the arbiter's cluster state must reflect the grants and leases.
	st, err = arbClient.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.FreeGPUs != 16-total {
		t.Errorf("free GPUs %d after granting %d of 16", st.FreeGPUs, total)
	}
	if st.Auctions != 1 || st.ActiveLeases == 0 {
		t.Errorf("status after auction: %+v", st)
	}
	for id, alloc := range got {
		if st.Held[id] != alloc.Total() {
			t.Errorf("%s: status holds %d, decision granted %d", id, st.Held[id], alloc.Total())
		}
	}
}

func allocMapsEqual(a, b map[string]cluster.Alloc) bool {
	if len(a) != len(b) {
		return false
	}
	for id, alloc := range a {
		if !alloc.Equal(b[id]) {
			return false
		}
	}
	return true
}

// TestDaemonConstructorValidation pins the daemon layer's error contract.
func TestDaemonConstructorValidation(t *testing.T) {
	topo := e2eTopo(t)
	if _, err := daemon.NewShardedArbiter(nil, daemon.DefaultArbiterConfig(), 1); err == nil {
		t.Error("nil topology should fail")
	}
	if _, err := daemon.NewShardedArbiter(topo, daemon.ArbiterConfig{FairnessKnob: 2, LeaseDuration: 20}, 1); err == nil {
		t.Error("bad fairness knob should fail")
	}
	if _, err := daemon.NewShardedArbiter(topo, daemon.DefaultArbiterConfig(), 0); err == nil {
		t.Error("zero shards should fail")
	}
	if _, err := daemon.NewAgentServer(topo, nil); err == nil {
		t.Error("nil app should fail")
	}
	bad := &themis.App{ID: "empty"}
	if _, err := daemon.NewAgentServer(topo, bad); err == nil {
		t.Error("invalid app should fail")
	}
}
