package rpc

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/workload"
)

// TestStatusSurfacesServerErrors pins the fix for the silently-swallowed
// status code: a 500 from the arbiter used to decode into a healthy-looking
// zero StatusResponse. It must surface as an error carrying the server's
// message.
func TestStatusSurfacesServerErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusInternalServerError, errors.New("auction engine on fire"))
	}))
	defer ts.Close()

	client := NewArbiterClient(ts.URL)
	st, err := client.Status(context.Background())
	if err == nil {
		t.Fatalf("Status on a 500 returned nil error (and %+v)", st)
	}
	if got := err.Error(); !strings.Contains(got, "500") || !strings.Contains(got, "auction engine on fire") {
		t.Errorf("error should carry status and server message, got %q", got)
	}
	if _, err := client.ShardStatus(context.Background()); err == nil {
		t.Error("ShardStatus on a 500 should error")
	}
	if err := (&AgentClient{BaseURL: ts.URL}).Health(context.Background()); err == nil {
		t.Error("Health on a 500 should error")
	}
}

// countingServer serves handler and counts the TCP connections accepted —
// the observable difference between draining response bodies (one reused
// keep-alive connection) and closing them dirty (one dial per request).
func countingServer(t *testing.T, handler http.Handler) (*httptest.Server, *int64) {
	t.Helper()
	var conns int64
	ts := httptest.NewUnstartedServer(handler)
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			atomic.AddInt64(&conns, 1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &conns
}

func TestClientReusesConnections(t *testing.T) {
	ts, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, StatusResponse{TotalGPUs: 8})
	}))

	client := NewArbiterClient(ts.URL)
	ctx := context.Background()
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := client.Status(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := client.TriggerAuction(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt64(conns); got != 1 {
		t.Errorf("%d requests opened %d connections, want 1 (keep-alive defeated — response bodies not drained?)", 2*calls, got)
	}
}

// TestFanoutReusesConnections: the shared agent transport keeps enough idle
// connections per host for a whole fan-out, so rounds that ask 16 agents on
// one host through the pool dial no more connections than the pool is wide.
func TestFanoutReusesConnections(t *testing.T) {
	topo := fanoutTopo(t)
	server := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 1)
	farm := newAgentFarm(t, topo, generatedApps(t, 16))
	farm.register(t, server)
	for round := 0; round < 5; round++ {
		if _, err := server.RunAuction(float64(1000 + 21*round)); err != nil {
			t.Fatal(err)
		}
	}
	if got := farm.maxInFlight.Load(); got < 2 {
		t.Fatalf("at most %d calls in flight: the rounds did not fan out", got)
	}
	if got := farm.conns.Load(); got > fanoutWidth {
		t.Errorf("5 fanned-out rounds over 16 agents opened %d connections, want at most %d", got, fanoutWidth)
	}
}

// TestNon200AnswersCounted: an agent answering with an error status degrades
// like an unreachable one, and each such answer — probe, bid or delivery —
// counts once on its endpoint.
func TestNon200AnswersCounted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusServiceUnavailable, errors.New("draining"))
	}))
	defer ts.Close()
	paths := []string{"/v1/rho", "/v1/bid", "/v1/allocation"}
	before := make([]uint64, len(paths))
	for i, p := range paths {
		before[i] = clientErrors[p].Value()
	}
	server := newServer(t, testTopo(t), core.Config{FairnessKnob: 0, LeaseDuration: 20}, 1)
	b := &RemoteBidder{AppID: "busy", Client: NewAgentClient(ts.URL), Demand: 4, Map: server.parts[0]}
	if rho := b.ReportRho(0, cluster.NewAlloc()); rho != 1 {
		t.Errorf("ρ = %v from a failing agent, want 1", rho)
	}
	if bid := b.PrepareBid(0, cluster.Alloc{0: 4}, cluster.NewAlloc()); len(bid.Entries) != 1 || bid.Entries[0].Alloc.Total() != 0 {
		t.Errorf("a failing agent should bid only the empty row: %+v", bid)
	}
	if _, err := server.register(RegisterRequest{App: "busy", Callback: ts.URL, MaxParallelism: 4}); err != nil {
		t.Fatal(err)
	}
	server.deliver(0, map[workload.AppID]bool{"busy": true})
	for i, p := range paths {
		if got := clientErrors[p].Value() - before[i]; got != 1 {
			t.Errorf("%s error counter moved by %d, want 1", p, got)
		}
	}
}

// BenchmarkAgentClientKeepAlive measures the probe path against a live HTTP
// agent; with bodies drained before close every iteration rides the same
// connection (compare by reverting drainAndClose to a bare Close).
func BenchmarkAgentClientKeepAlive(b *testing.B) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, RhoResponse{App: "bench", Rho: 2.5})
	}))
	defer ts.Close()
	client := NewAgentClient(ts.URL)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ProbeRho(ctx, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRegisterSemantics table-tests the registration endpoint: method
// discipline, validation, and — the regression — re-registration of an app
// that holds leases, which must update the callback and demand in place
// without orphaning the held GPUs.
func TestRegisterSemantics(t *testing.T) {
	topo := testTopo(t)
	server := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 1)
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// One shard or two, the server serves one protocol mux: non-POST methods
	// are rejected outright, and the arbiter-to-arbiter endpoint removed with
	// the membership table answers 404 rather than decoding anybody's JSON.
	sharded := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 2)
	shardedTS := httptest.NewServer(sharded.Handler())
	defer shardedTS.Close()
	for _, base := range []string{ts.URL, shardedTS.URL} {
		for _, probe := range []struct {
			method, path string
			want         int
		}{
			{http.MethodGet, "/v1/register", http.StatusMethodNotAllowed},
			{http.MethodPut, "/v1/register", http.StatusMethodNotAllowed},
			{http.MethodDelete, "/v1/register", http.StatusMethodNotAllowed},
			{http.MethodPost, "/v1/gossip", http.StatusNotFound},
		} {
			req, _ := http.NewRequest(probe.method, base+probe.path, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != probe.want {
				t.Errorf("%s %s = %d, want %d", probe.method, probe.path, resp.StatusCode, probe.want)
			}
		}
	}

	cases := []struct {
		name    string
		req     RegisterRequest
		wantErr bool
		updated bool
	}{
		{"missing app", RegisterRequest{Callback: "http://a:1"}, true, false},
		{"missing callback", RegisterRequest{App: "app-x"}, true, false},
		{"fresh registration", RegisterRequest{App: "app-x", Callback: "http://old:1", MaxParallelism: 8}, false, false},
		{"re-registration", RegisterRequest{App: "app-x", Callback: "http://new:2", MaxParallelism: 4}, false, true},
	}
	for _, tc := range cases {
		resp, err := server.register(tc.req)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: want error, got %+v", tc.name, resp)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !resp.OK || resp.Updated != tc.updated {
			t.Errorf("%s: resp %+v, want OK with updated=%v", tc.name, resp, tc.updated)
		}
	}
	if client := server.Shard(0).notifyClient("app-x"); client == nil || client.BaseURL != "http://new:2" {
		t.Fatalf("re-registration did not install the new callback: %+v", client)
	}

	// The regression: an app holding leased GPUs re-registers (agent restart,
	// new host). Its allocation and leases must survive untouched.
	server.RegisterBidder(&simBidder{id: "holder", demand: 8, weight: 100})
	if _, err := server.RunAuction(0); err != nil {
		t.Fatal(err)
	}
	heldBefore := server.HeldBy("holder")
	if heldBefore.Total() == 0 {
		t.Fatal("setup: holder won nothing")
	}
	leasesBefore := server.Status().ActiveLeases

	resp, err := server.register(RegisterRequest{App: "holder", Callback: "http://moved:3", MaxParallelism: 8})
	if err != nil || !resp.Updated {
		t.Fatalf("re-register holder: %+v err=%v", resp, err)
	}
	if got := server.HeldBy("holder"); !got.Equal(heldBefore) {
		t.Errorf("re-registration disturbed held GPUs: %v -> %v", heldBefore, got)
	}
	if got := server.Status().ActiveLeases; got != leasesBefore {
		t.Errorf("re-registration disturbed leases: %d -> %d", leasesBefore, got)
	}
	if err := server.ValidateState(); err != nil {
		t.Errorf("state invariants: %v", err)
	}
}

// TestRegisterDefaultsDemandToCluster: a registration without a demand states
// none, so the app's aggregate demand is the whole cluster's capacity — not
// its home shard's, which would make it depend on the shard count.
func TestRegisterDefaultsDemandToCluster(t *testing.T) {
	topo := testTopo(t)
	for _, n := range []int{1, 2} {
		server := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, n)
		if _, err := server.register(RegisterRequest{App: "app-x", Callback: "http://x:1"}); err != nil {
			t.Fatal(err)
		}
		home := server.Shard(server.HomeShard("app-x"))
		home.mu.Lock()
		demand := home.agents["app-x"].bidder.(*RemoteBidder).Demand
		home.mu.Unlock()
		if demand != topo.TotalGPUs() {
			t.Errorf("%d shards: default demand %d, want the cluster's %d GPUs (home shard has %d)", n, demand, topo.TotalGPUs(), home.topo.TotalGPUs())
		}
	}
}
