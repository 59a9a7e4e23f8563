package rpc

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/workload"
)

// agentFarm serves one AgentServer per app on a single httptest listener,
// each mounted at /agents/<app>/. It counts the connections the listener
// accepts, the ρ requests it has served and the most ρ and bid requests it
// has had in flight at once; a non-zero rhoDelay holds every ρ answer that
// long, so calls that are issued concurrently are seen to overlap.
type agentFarm struct {
	url         string
	agents      map[string]*AgentServer
	demand      map[string]int
	rhoDelay    atomic.Int64 // nanoseconds
	rhoCalls    atomic.Int64
	conns       atomic.Int64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
}

func newAgentFarm(tb testing.TB, topo *cluster.Topology, apps []*workload.App) *agentFarm {
	tb.Helper()
	f := &agentFarm{agents: make(map[string]*AgentServer), demand: make(map[string]int)}
	mux := http.NewServeMux()
	for _, app := range apps {
		id := string(app.ID)
		f.agents[id] = NewAgentServer(core.NewAgent(topo, app, hyperparam.ForApp(app), nil))
		f.demand[id] = app.MaxParallelism()
		mux.Handle("/agents/"+id+"/", http.StripPrefix("/agents/"+id, f.agents[id].Handler()))
	}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/v1/rho") || strings.HasSuffix(r.URL.Path, "/v1/bid") {
			n := f.inFlight.Add(1)
			defer f.inFlight.Add(-1)
			for m := f.maxInFlight.Load(); n > m && !f.maxInFlight.CompareAndSwap(m, n); m = f.maxInFlight.Load() {
			}
			if strings.HasSuffix(r.URL.Path, "/v1/rho") {
				f.rhoCalls.Add(1)
				if d := f.rhoDelay.Load(); d > 0 {
					time.Sleep(time.Duration(d))
				}
			}
		}
		mux.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			f.conns.Add(1)
		}
	}
	ts.Start()
	tb.Cleanup(ts.Close)
	f.url = ts.URL
	return f
}

// register announces every agent of the farm to server over /v1/register.
func (f *agentFarm) register(tb testing.TB, server *ArbiterServer) {
	tb.Helper()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	client := NewArbiterClient(ts.URL)
	for id := range f.agents {
		if _, err := client.Register(context.Background(), id, f.url+"/agents/"+id, f.demand[id]); err != nil {
			tb.Fatal(err)
		}
	}
}

// generatedApps draws n apps from the synthetic trace generator. Every call
// returns fresh apps, so two farms never share job state.
func generatedApps(tb testing.TB, n int) []*workload.App {
	tb.Helper()
	cfg := workload.DefaultGeneratorConfig()
	cfg.NumApps, cfg.Seed = n, 7
	apps, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return apps
}

func fanoutTopo(tb testing.TB) *cluster.Topology {
	tb.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 16, GPUs: 4, SlotSize: 2}},
		MachinesPerRack: 4,
	}.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// statCounts is an ArbiterStats with its wall-clock fields cleared.
func statCounts(s core.ArbiterStats) core.ArbiterStats {
	s.TotalAuctionTime, s.MaxAuctionTime = 0, 0
	s.ProbeTime, s.BidTime, s.SolveTime, s.LeftoverTime = 0, 0, 0, 0
	return s
}

// TestFanoutRoundMatchesInProcess: the same remote agents, asked through the
// worker pool and inline in index order, lead to the same rounds — decisions,
// holdings, every auction count and every agent's delivered allocation — over
// rounds that reclaim expired leases. At f = 0 every app bids, so the bids'
// order and the auction are compared; at f = 0.5 the probes also decide who
// bids at all.
func TestFanoutRoundMatchesInProcess(t *testing.T) {
	winners := 0
	for _, knob := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("f=%v", knob), func(t *testing.T) {
			winners += compareFanout(t, core.Config{FairnessKnob: knob, LeaseDuration: 20})
		})
	}
	if winners == 0 {
		t.Error("no auction winner in any round: only leftover grants were compared")
	}
}

// compareFanout runs the fanned-out and the serial server side by side over
// 48 generated apps and returns the auction winners the rounds had.
func compareFanout(t *testing.T, cfg core.Config) int {
	const apps = 48
	topo := fanoutTopo(t)
	build := func(fanned bool) (*ArbiterServer, *agentFarm) {
		server := newServer(t, topo, cfg, 1)
		if !fanned {
			server.Arbiter().SetFanout(nil)
		}
		farm := newAgentFarm(t, topo, generatedApps(t, apps))
		farm.register(t, server)
		return server, farm
	}
	fanned, fannedFarm := build(true)
	serial, serialFarm := build(false)

	start := generatedApps(t, apps)[apps-1].SubmitTime
	reclaims, decided := 0, 0
	for round, step := range []float64{0, 5, 12, 21, 30, 43, 50, 64} {
		now := start + step
		fanned.Clock = func() float64 { return now }
		serial.Clock = fanned.Clock
		freeBefore := fanned.Status().FreeGPUs
		got, err := fanned.RunAuction(now)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.RunAuction(now)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: decisions differ:\nfanned %v\nserial %v", round, got.Decisions, want.Decisions)
		}
		if g, w := fanned.Status(), serial.Status(); !reflect.DeepEqual(g, w) {
			t.Fatalf("round %d: status differs:\nfanned %+v\nserial %+v", round, g, w)
		}
		if g, w := statCounts(fanned.Arbiter().Stats), statCounts(serial.Arbiter().Stats); g != w {
			t.Fatalf("round %d: arbiter counts differ:\nfanned %+v\nserial %+v", round, g, w)
		}
		for id, agent := range fannedFarm.agents {
			if g, w := agent.Current(), serialFarm.agents[id].Current(); !g.Equal(w) {
				t.Fatalf("round %d: %s was delivered %v fanned, %v serial", round, id, g, w)
			}
		}
		if got.Offered > freeBefore { // the round offered GPUs it reclaimed
			reclaims++
		}
		decided += len(got.Decisions)
	}
	if st := fanned.Arbiter().Stats; decided <= st.AuctionWinners {
		t.Errorf("%d decisions, %d of them auction wins: no leftover grant was compared", decided, st.AuctionWinners)
	}
	if reclaims < 2 {
		t.Errorf("%d rounds followed an expired lease, want at least 2", reclaims)
	}
	if got := serialFarm.maxInFlight.Load(); got != 1 {
		t.Errorf("serial path had %d probes or bids in flight at once, want 1", got)
	}
	if got := fannedFarm.maxInFlight.Load(); got < 2 || got > fanoutWidth {
		t.Errorf("fanned path had at most %d probes or bids in flight at once, want 2..%d", got, fanoutWidth)
	}
	return fanned.Arbiter().Stats.AuctionWinners
}

// TestHungAgentsCostOneSlot: agents that never answer hold one worker for one
// timeout each, so K of them cost about ⌈K/width⌉ timeouts per phase where a
// serial round paid K. They degrade to ρ = 1 and the empty bid, each failure
// counts once, and the honest apps' round is the one they would have had
// alone.
func TestHungAgentsCostOneSlot(t *testing.T) {
	const (
		hung    = 12
		timeout = 100 * time.Millisecond
	)
	topo := testTopo(t)
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// With the body read, the server notices the client giving up.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * timeout):
		}
	}))
	defer stall.Close()

	round := func(withHung bool) (map[string]WireAlloc, core.RoundPhases) {
		server := newServer(t, topo, core.Config{FairnessKnob: 0, LeaseDuration: 20}, 1)
		for i := 0; i < 4; i++ {
			server.RegisterBidder(&simBidder{id: workload.AppID(fmt.Sprintf("app-%d", i)), demand: 8, gang: 2, weight: float64(100 + i)})
		}
		for i := 0; withHung && i < hung; i++ {
			// No demand: a hung agent is never a leftover candidate, so the
			// honest apps' leftover rotation is the one they have alone.
			server.RegisterBidder(&RemoteBidder{AppID: workload.AppID(fmt.Sprintf("hung-%02d", i)), Client: NewAgentClient(stall.URL), Timeout: timeout, Map: server.parts[0]})
		}
		resp, err := server.RunAuction(0)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Decisions, server.Arbiter().LastRound()
	}

	alone, _ := round(false)
	rhoBefore, bidBefore := clientErrors["/v1/rho"].Value(), clientErrors["/v1/bid"].Value()
	got, ph := round(true)
	if !reflect.DeepEqual(got, alone) {
		t.Errorf("hung agents changed the honest apps' round:\nwith    %v\nwithout %v", got, alone)
	}
	if ph.Participants != 4+hung || ph.WinnersWithNothing < hung {
		t.Errorf("%d participants, %d won nothing; want all %d bidding and the hung ones empty-handed", ph.Participants, ph.WinnersWithNothing, 4+hung)
	}
	budget := time.Duration((hung+fanoutWidth-1)/fanoutWidth+1) * timeout
	if ph.Probe > budget || ph.Bid > budget {
		t.Errorf("probe %v, bid %v: want each within %v (a serial round waits %v per phase)", ph.Probe, ph.Bid, budget, hung*timeout)
	}
	if n := clientErrors["/v1/rho"].Value() - rhoBefore; n != hung {
		t.Errorf("/v1/rho errors moved by %d, want %d", n, hung)
	}
	if n := clientErrors["/v1/bid"].Value() - bidBefore; n != hung {
		t.Errorf("/v1/bid errors moved by %d, want %d", n, hung)
	}
}

// BenchmarkLoopbackRound is one full-reclaim round of an ArbiterServer over 64
// real AgentServers on one loopback listener: 64 ρ probes, the bids of the
// worst 1−f, and the deliveries.
func BenchmarkLoopbackRound(b *testing.B) {
	const apps = 64
	topo := fanoutTopo(b)
	cfg := core.DefaultConfig()
	server := newServer(b, topo, cfg, 1)
	farm := newAgentFarm(b, topo, generatedApps(b, apps))
	farm.register(b, server)
	now := generatedApps(b, apps)[apps-1].SubmitTime
	round := func() {
		now += cfg.LeaseDuration + 1
		if _, err := server.RunAuction(now); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the connections and the valuator
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
