package rpc

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/workload"
)

// The unsharded arbiter as it ran before the one-shard ArbiterServer replaced
// it: one engine's reclaim → offer → grant round, then every changed agent
// that registered a callback is delivered its holding in the engine's own
// machine IDs, and the decisions are reported in those IDs too. There was no
// reconciliation round. A one-shard ArbiterServer must make the same rounds.

// unshardedRunAuction is the unsharded RunAuction, verbatim but for the
// receiver.
func unshardedRunAuction(s *engine, now float64) (AuctionResponse, error) {
	r, err := s.auctionRound(now)
	// A failed round delivers too: what it reclaimed (and granted) before
	// failing is in the state, and an agent never told keeps bidding from an
	// allocation it no longer holds.
	unshardedNotifyAgents(s, now, r.changed)
	if err != nil {
		return AuctionResponse{}, err
	}
	resp := AuctionResponse{Now: now, Offered: r.offered, Decisions: make(map[string]WireAlloc, len(r.granted))}
	for id, alloc := range r.granted {
		resp.Decisions[string(id)] = ToWireAlloc(alloc)
	}
	return resp, nil
}

// unshardedNotifyAgents is the unsharded delivery: each changed app with a
// callback is sent its holding on the fanout.
func unshardedNotifyAgents(s *engine, now float64, changed map[workload.AppID]bool) {
	lease := s.arbiter.Config().LeaseDuration
	var apps []workload.AppID
	var clients []*AgentClient
	for app := range changed {
		if c := s.notifyClient(app); c != nil {
			apps, clients = append(apps, app), append(clients, c)
		}
	}
	fanout(len(apps), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = clients[i].DeliverAllocation(ctx, now, s.HeldBy(apps[i]), true, now+lease)
	})
}

// probeCounter counts an in-process bidder's ρ probes.
type probeCounter struct {
	core.Bidder
	probes *atomic.Int64
}

func (p probeCounter) ReportRho(now float64, current cluster.Alloc) float64 {
	p.probes.Add(1)
	return p.Bidder.ReportRho(now, current)
}

// TestOneShardMatchesUnsharded: 4 HTTP agents and 10 in-process bidders, over
// 12 rounds a lease step of 7 or 21 minutes apart (so rounds alternate
// between keeping and reclaiming leases), make the same rounds on a one-shard
// ArbiterServer as under the unsharded oracle: offered GPUs, decisions, every
// agent's delivered allocation, every holding, the status and the Arbiter's
// counts. Demand exceeds the cluster until half the in-process bidders stop
// wanting GPUs, after which rounds end with GPUs free and reconciliation
// looks for candidates: it grants nothing and asks no agent for its ρ.
func TestOneShardMatchesUnsharded(t *testing.T) {
	const agents, sims = 4, 10
	topo := fanoutTopo(t)
	cfg := core.Config{FairnessKnob: 0.5, LeaseDuration: 20}
	now := generatedApps(t, agents)[agents-1].SubmitTime
	type side struct {
		s      *ArbiterServer
		farm   *agentFarm
		sims   []*simBidder
		probes atomic.Int64
	}
	build := func() *side {
		d := &side{s: newServer(t, topo, cfg, 1), farm: newAgentFarm(t, topo, generatedApps(t, agents))}
		d.s.Clock = func() float64 { return now }
		for id := range d.farm.demand {
			d.farm.demand[id] = 6
		}
		d.farm.register(t, d.s)
		for i := range sims {
			b := &simBidder{id: workload.AppID(fmt.Sprintf("sim-%02d", i)), demand: 4 + i%5, gang: 1 + i%3, weight: float64(50 + 13*i)}
			d.sims = append(d.sims, b)
			d.s.RegisterBidder(probeCounter{b, &d.probes})
		}
		return d
	}
	got, want := build(), build()
	var ids []workload.AppID
	for id := range got.farm.agents {
		ids = append(ids, workload.AppID(id))
	}
	for _, b := range got.sims {
		ids = append(ids, b.id)
	}

	decided, leftoverRounds := 0, 0
	for round := range 12 {
		now += []float64{7, 21}[round%2]
		if round == 6 {
			for i := 0; i < sims; i += 2 {
				got.sims[i].demand, want.sims[i].demand = 0, 0
			}
		}
		g, err := got.s.RunAuction(now)
		if err != nil {
			t.Fatal(err)
		}
		w, err := unshardedRunAuction(want.s.Shard(0), now)
		if err != nil {
			t.Fatal(err)
		}
		if g.Offered != w.Offered || !reflect.DeepEqual(g.Decisions, w.Decisions) {
			t.Fatalf("round %d: offered %d, decided %v; unsharded offered %d, decided %v", round, g.Offered, g.Decisions, w.Offered, w.Decisions)
		}
		if g.Reconciled != 0 {
			t.Errorf("round %d: one shard reconciled %d GPUs", round, g.Reconciled)
		}
		if gp, wp, gr, wr := got.probes.Load(), want.probes.Load(), got.farm.rhoCalls.Load(), want.farm.rhoCalls.Load(); gp != wp || gr != wr {
			t.Fatalf("round %d: %d in-process and %d HTTP ρ probes so far, unsharded %d and %d", round, gp, gr, wp, wr)
		}
		for id, agent := range got.farm.agents {
			if ga, wa := agent.Current(), want.farm.agents[id].Current(); !ga.Equal(wa) {
				t.Fatalf("round %d: %s was delivered %v, unsharded %v", round, id, ga, wa)
			}
		}
		for _, id := range ids {
			if gh, wh := got.s.HeldBy(id), want.s.Shard(0).HeldBy(id); !gh.Equal(wh) {
				t.Fatalf("round %d: %s holds %v, unsharded %v", round, id, gh, wh)
			}
		}
		wst := want.s.Shard(0).Status()
		wst.Now = want.s.Clock()
		gst := got.s.Status()
		if !reflect.DeepEqual(gst, wst) {
			t.Fatalf("round %d: status %+v, unsharded %+v", round, gst, wst)
		}
		if gs, ws := statCounts(got.s.Arbiter().Stats), statCounts(want.s.Arbiter().Stats); gs != ws {
			t.Fatalf("round %d: arbiter counts %+v, unsharded %+v", round, gs, ws)
		}
		decided += len(g.Decisions)
		if gst.FreeGPUs > 0 {
			leftoverRounds++
		}
	}
	if _, gpus, _ := got.s.ReconcileStats(); gpus != 0 {
		t.Errorf("one shard reconciled %d GPUs over the run", gpus)
	}
	if decided == 0 || leftoverRounds == 0 || got.farm.rhoCalls.Load() == 0 {
		t.Errorf("%d decisions, %d rounds ending with GPUs free and %d HTTP ρ probes over the run: want all positive", decided, leftoverRounds, got.farm.rhoCalls.Load())
	}
}
