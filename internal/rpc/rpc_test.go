package rpc

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/shard"
	"themis/internal/workload"
)

func testApp(id string, nJobs int, work float64) *workload.App {
	jobs := make([]*workload.Job, nJobs)
	for i := 0; i < nJobs; i++ {
		j := workload.NewJob(workload.AppID(id), i, work, 4)
		j.Quality = float64(i) / float64(nJobs+1)
		j.Seed = int64(i + 3)
		jobs[i] = j
	}
	return workload.NewApp(workload.AppID(id), 0, placement.VGG16, jobs)
}

func testTopo(t *testing.T) *cluster.Topology {
	t.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 6, GPUs: 4, SlotSize: 2}},
		MachinesPerRack: 3,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// newServer builds an n-shard ArbiterServer over topo.
func newServer(tb testing.TB, topo *cluster.Topology, cfg core.Config, n int) *ArbiterServer {
	tb.Helper()
	s, err := NewArbiterServer(topo, cfg, n)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestWireAllocRoundTrip(t *testing.T) {
	a := cluster.Alloc{3: 2, 1: 4}
	back, err := ToWireAlloc(a).ToAlloc()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a) {
		t.Errorf("round trip %v != %v", back, a)
	}
	if _, err := (WireAlloc{{Machine: -1, GPUs: 2}}).ToAlloc(); err == nil {
		t.Error("negative machine should be rejected")
	}
	if _, err := (WireAlloc{{Machine: 1, GPUs: -2}}).ToAlloc(); err == nil {
		t.Error("negative GPUs should be rejected")
	}
}

func TestBidTableRoundTrip(t *testing.T) {
	table := core.BidTable{App: "a", Entries: []core.BidEntry{
		{Alloc: cluster.NewAlloc(), Rho: 7},
		{Alloc: cluster.Alloc{0: 4}, Rho: 2.5},
	}}
	back, err := FromBidTable(table).ToBidTable()
	if err != nil {
		t.Fatal(err)
	}
	if back.App != "a" || len(back.Entries) != 2 {
		t.Fatalf("round trip mangled table: %+v", back)
	}
	if back.CurrentRho() != 7 || back.Best().Rho != 2.5 {
		t.Errorf("values lost in round trip: %+v", back)
	}
}

// startAgent serves an AgentServer over httptest and returns its URL.
func startAgent(t *testing.T, topo *cluster.Topology, app *workload.App) (string, *AgentServer) {
	t.Helper()
	agent := core.NewAgent(topo, app, hyperparam.ForApp(app), nil)
	srv := NewAgentServer(agent)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, srv
}

func TestAgentServerEndpoints(t *testing.T) {
	topo := testTopo(t)
	url, srv := startAgent(t, topo, testApp("app-a", 2, 200))
	client := NewAgentClient(url)
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	rho, err := client.ProbeRho(ctx, 5, cluster.NewAlloc())
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if rho < core.Unbounded/1e4 {
		t.Errorf("rho for GPU-less app = %v, want effectively unbounded", rho)
	}
	offer := cluster.Alloc{0: 4, 1: 4}
	bid, err := client.RequestBid(ctx, 5, offer, cluster.NewAlloc())
	if err != nil {
		t.Fatalf("bid: %v", err)
	}
	if err := bid.Validate(offer); err != nil {
		t.Errorf("remote bid invalid: %v", err)
	}
	if bid.Best().Alloc.Total() == 0 {
		t.Error("remote bid should request GPUs")
	}
	// Deliver an allocation and confirm the agent's view updates.
	if err := client.DeliverAllocation(ctx, 6, cluster.Alloc{0: 4}, true, 26); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if got := srv.Current().Total(); got != 4 {
		t.Errorf("agent current = %d, want 4", got)
	}
	// A subsequent probe without an explicit current uses the stored one.
	rho2, err := client.ProbeRho(ctx, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rho2 >= core.Unbounded {
		t.Errorf("rho after allocation should be bounded, got %v", rho2)
	}
}

func TestArbiterServerAuctionFlow(t *testing.T) {
	topo := testTopo(t)
	server := newServer(t, topo, core.Config{FairnessKnob: 0.5, LeaseDuration: 20}, 1)
	now := 0.0
	server.Clock = func() float64 { return now }
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	arbClient := NewArbiterClient(ts.URL)
	ctx := context.Background()

	// Register two agents backed by real agent servers.
	urlA, srvA := startAgent(t, topo, testApp("app-a", 2, 300))
	urlB, srvB := startAgent(t, topo, testApp("app-b", 2, 300))
	if _, err := arbClient.Register(ctx, "app-a", urlA, 8); err != nil {
		t.Fatal(err)
	}
	if resp, err := arbClient.Register(ctx, "app-b", urlB, 8); err != nil || !resp.OK || resp.LeaseMin != 20 {
		t.Fatalf("register: %+v err=%v", resp, err)
	}

	st, err := arbClient.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalGPUs != 24 || st.FreeGPUs != 24 || len(st.Agents) != 2 {
		t.Fatalf("unexpected status: %+v", st)
	}

	// First auction: both apps should end up with GPUs (8 each demanded, 24
	// free), and the agents must have been notified.
	auction, err := arbClient.TriggerAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if auction.Offered != 24 {
		t.Errorf("offered %d GPUs, want 24", auction.Offered)
	}
	totalGranted := 0
	for _, alloc := range auction.Decisions {
		wire, err := alloc.ToAlloc()
		if err != nil {
			t.Fatal(err)
		}
		totalGranted += wire.Total()
	}
	if totalGranted == 0 {
		t.Fatal("auction granted nothing")
	}
	if srvA.Current().Total()+srvB.Current().Total() != totalGranted {
		t.Errorf("agents' view (%d+%d) does not match grants %d",
			srvA.Current().Total(), srvB.Current().Total(), totalGranted)
	}
	st, err = arbClient.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.FreeGPUs != 24-totalGranted {
		t.Errorf("free GPUs %d after granting %d of 24", st.FreeGPUs, totalGranted)
	}
	if st.ActiveLeases == 0 || st.Auctions != 1 {
		t.Errorf("status after auction: %+v", st)
	}

	// Advance past the lease: the next auction reclaims and re-allocates.
	now = 25
	if _, err := arbClient.TriggerAuction(ctx); err != nil {
		t.Fatal(err)
	}
	st, err = arbClient.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Now != 25 {
		t.Errorf("clock not reflected in status: %+v", st)
	}
}

func TestRemoteBidderDegradesGracefully(t *testing.T) {
	topo := testTopo(t)
	parts, err := shard.Split(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	part := parts[1]

	// A bidder whose agent is unreachable must not block the auction.
	dead := &RemoteBidder{AppID: "ghost", Client: NewAgentClient("http://127.0.0.1:1"), Demand: 4, Gang: 4, Map: part}
	if rho := dead.ReportRho(0, cluster.NewAlloc()); rho != 1 {
		t.Errorf("unreachable agent rho = %v, want 1", rho)
	}
	bid := dead.PrepareBid(0, cluster.Alloc{0: 4}, cluster.NewAlloc())
	if len(bid.Entries) != 1 || bid.Entries[0].Alloc.Total() != 0 {
		t.Errorf("unreachable agent should bid only the empty row: %+v", bid)
	}
	if dead.UnmetParallelism(cluster.Alloc{0: 4}) != 0 {
		t.Error("demand accounting wrong")
	}
	if dead.GangSize() != 4 {
		t.Error("gang size lost")
	}
	if (&RemoteBidder{}).GangSize() != 1 {
		t.Error("zero gang should default to 1")
	}

	// Nor must a reachable agent that answers garbage: each lie degrades to
	// "ρ = 1, empty bid" for the liar alone, on one shard of two (answers
	// translated from global machine IDs) and in a one-shard server, and the
	// honest app's round goes through. The offer-bound, empty-row and app-ID
	// lies used to fail RunAuction for everybody; encoding/json already
	// refuses a NaN token.
	first, err := part.GlobalID(0)
	if err != nil {
		t.Fatal(err)
	}
	beyond := fmt.Sprintf(`{"app":"liar","rows":[{"alloc":[],"rho":9},{"alloc":[{"machine":%d,"gpus":99}],"rho":1}]}`, first)
	for _, lie := range []struct {
		name, rho, bid string
		// Each degraded answer counts once on its endpoint: a refused bid, an
		// undecodable body. A merely re-stamped app ID is no degradation.
		rhoErrs, bidErrs uint64
	}{
		{"beyond-offer", `{"app":"liar","rho":9}`, beyond, 0, 1},
		{"no-empty-row", `{"app":"liar","rho":9}`, fmt.Sprintf(`{"app":"liar","rows":[{"alloc":[{"machine":%d,"gpus":1}],"rho":1}]}`, first), 0, 1},
		{"foreign-app-id", `{"app":"honest","rho":9}`, `{"app":"honest","rows":[{"alloc":[],"rho":9}]}`, 0, 0},
		{"nan-rho", `{"app":"liar","rho":NaN}`, `{"app":"liar","rows":[{"alloc":[],"rho":NaN}]}`, 1, 1},
	} {
		t.Run(lie.name, func(t *testing.T) {
			agent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				switch r.URL.Path {
				case "/v1/rho":
					io.WriteString(w, lie.rho)
				case "/v1/bid":
					io.WriteString(w, lie.bid)
				default:
					io.WriteString(w, `{"ok":true}`)
				}
			}))
			defer agent.Close()

			onShard := &RemoteBidder{AppID: "liar", Client: NewAgentClient(agent.URL), Demand: 4, Map: part}
			rhoBefore, bidBefore := clientErrors["/v1/rho"].Value(), clientErrors["/v1/bid"].Value()
			if rho := onShard.ReportRho(0, cluster.NewAlloc()); !(rho > 0) || math.IsInf(rho, 0) {
				t.Errorf("ρ = %v reached the arbiter's sort", rho)
			}
			bid := onShard.PrepareBid(0, cluster.Alloc{0: 4}, cluster.NewAlloc())
			if bid.App != "liar" || bid.Validate(cluster.Alloc{0: 4}) != nil {
				t.Errorf("bid reached the auction unvalidated: %+v", bid)
			}
			if got := clientErrors["/v1/rho"].Value() - rhoBefore; got != lie.rhoErrs {
				t.Errorf("/v1/rho error counter moved by %d, want %d", got, lie.rhoErrs)
			}
			if got := clientErrors["/v1/bid"].Value() - bidBefore; got != lie.bidErrs {
				t.Errorf("/v1/bid error counter moved by %d, want %d", got, lie.bidErrs)
			}

			server := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 1)
			server.RegisterBidder(&simBidder{id: "honest", demand: 4, weight: 100})
			if _, err := server.register(RegisterRequest{App: "liar", Callback: agent.URL, MaxParallelism: 4}); err != nil {
				t.Fatal(err)
			}
			if _, err := server.RunAuction(0); err != nil {
				t.Fatalf("one lying agent failed the round: %v", err)
			}
			if got := server.HeldTotalGlobal("honest"); got != 4 {
				t.Errorf("honest app holds %d GPUs, want its demand 4", got)
			}
			if err := server.ValidateState(); err != nil {
				t.Error(err)
			}
		})
	}
}
