package rpc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/workload"
)

// The reconciliation round as it was before the per-shard sweep: one
// goroutine walks every shard's agents through a locked HeldTotalBy each,
// re-probes every survivor's ρ serially, sorts with `>` and walks each
// candidate's shards through a freshly allocated order slice. The
// production round must find the same candidates in the same order and make
// the same grants.

// snapshotAgents is the parent's registry snapshot, verbatim.
func (s *ArbiterServer) snapshotAgents() []core.Bidder {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]core.Bidder, 0, len(s.agents))
	for _, a := range s.agents {
		out = append(out, a.bidder)
	}
	return out
}

// serialStarved is the parent's candidate sweep and sort.
func serialStarved(s *ShardedArbiterServer, now float64) []starvedApp {
	var cands []starvedApp
	for home, srv := range s.shards {
		for _, b := range srv.snapshotAgents() {
			localHeld := emptyCurrent
			if srv.HeldTotalBy(b.ID()) > 0 {
				localHeld = srv.HeldBy(b.ID())
			}
			unmet := b.UnmetParallelism(localHeld)
			if unmet <= 0 {
				continue
			}
			for other, osrv := range s.shards {
				if other != home {
					unmet -= osrv.HeldTotalBy(b.ID())
				}
			}
			if unmet <= 0 {
				continue
			}
			cands = append(cands, starvedApp{
				bidder: b,
				id:     b.ID(),
				home:   home,
				unmet:  unmet,
				rho:    b.ReportRho(now, localHeld),
				held:   localHeld,
			})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].rho != cands[j].rho {
			return cands[i].rho > cands[j].rho
		}
		return cands[i].bidder.ID() < cands[j].bidder.ID()
	})
	return cands
}

// serialReconcile is the parent's reconcile over serialStarved.
func serialReconcile(s *ShardedArbiterServer, now float64, allChanged map[workload.AppID]bool) (map[workload.AppID]cluster.Alloc, error) {
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
	for _, c := range serialStarved(s, now) {
		gang := max(c.bidder.GangSize(), 1)
		order := append([]int{c.home}, otherShards(len(s.shards), c.home)...)
		for _, si := range order {
			if c.unmet < gang {
				break
			}
			chunk := min(c.unmet, leftover[si])
			chunk -= chunk % gang
			if chunk == 0 {
				continue
			}
			got, err := s.shards[si].reconcileGrant(c.bidder.ID(), chunk, now)
			if err != nil {
				return nil, err
			}
			if got.Total() == 0 {
				continue
			}
			leftover[si] -= got.Total()
			c.unmet -= got.Total()
			grants[c.bidder.ID()] = grants[c.bidder.ID()].Add(s.parts[si].ToGlobal(got))
			allChanged[c.bidder.ID()] = true
		}
	}
	return grants, nil
}

func otherShards(n, home int) []int {
	out := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != home {
			out = append(out, i)
		}
	}
	return out
}

// shardRounds runs every shard's reclaim → offer → grant round, one after the
// other, and returns the apps whose holding changed: RunAuction up to its
// reconciliation round.
func shardRounds(t *testing.T, s *ShardedArbiterServer, now float64) map[workload.AppID]bool {
	t.Helper()
	changed := make(map[workload.AppID]bool)
	for i, srv := range s.shards {
		out, err := srv.auctionRound(now)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for app := range out.changed {
			changed[app] = true
		}
	}
	return changed
}

// sameCandidates compares two candidate lists field by field: bidder (by ID,
// since the two lists may come from twin deployments), home, unmet demand, ρ
// bits, home holding and position.
func sameCandidates(t *testing.T, round int, got, want []starvedApp) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round %d: %d candidates, serial sweep %d", round, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.bidder.ID() != w.bidder.ID() || g.id != w.id || g.home != w.home || g.unmet != w.unmet ||
			math.Float64bits(g.rho) != math.Float64bits(w.rho) || !g.held.Equal(w.held) {
			t.Fatalf("round %d, candidate %d: %+v, serial sweep %+v", round, i, g, w)
		}
	}
}

// TestReconcileMatchesSerialSweep: on 2, 4 and 8 shards, with demand rising
// to twice the cluster's while leases are alive so that apps hold GPUs on
// several shards, the per-shard sweep finds the serial sweep's candidates in
// its order, and a twin deployment reconciled by the serial body ends every
// round with the same grants and holdings.
func TestReconcileMatchesSerialSweep(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			cfg := core.Config{FairnessKnob: 0.5, LeaseDuration: 20}
			const apps = 48
			build := func() (*ShardedArbiterServer, []*simBidder) {
				s, err := NewShardedArbiterServer(shardedTopo(t, 16, 4, 2), cfg, n)
				if err != nil {
					t.Fatal(err)
				}
				// Only apps homed on odd shards want GPUs, so the even
				// shards' capacity is left over for reconciliation. Shard 0
				// lies below every home: the home-first walk must step back
				// to it.
				rng := rand.New(rand.NewSource(int64(n)))
				var demanding []*simBidder
				for i := range apps {
					b := &simBidder{id: workload.AppID(fmt.Sprintf("app-%02d", i)), gang: 1 + rng.Intn(2), weight: float64(1 + rng.Intn(4))}
					if s.HomeShard(string(b.id))%2 == 1 {
						b.demand = 1 + rng.Intn(2)
						demanding = append(demanding, b)
					}
					s.RegisterBidder(b)
				}
				return s, demanding
			}
			got, gotApps := build()
			want, wantApps := build()
			candidates, multiShard, reconciled := 0, 0, 0
			for round, now := range []float64{0, 7, 14, 21, 28, 35, 42, 49, 63, 70} {
				if now == 7 {
					// Demand quadruples, to about twice the cluster's 64 GPUs,
					// while the apps still hold their first leases at home: the
					// GPUs they get now sit on other shards.
					for i, b := range gotApps {
						b.demand *= 4
						wantApps[i].demand *= 4
					}
				}
				gotChanged, wantChanged := shardRounds(t, got, now), shardRounds(t, want, now)
				cands := got.starved(now)
				sameCandidates(t, round, cands, serialStarved(got, now))
				sameCandidates(t, round, cands, serialStarved(want, now))
				candidates += len(cands)
				for i := range apps {
					id := workload.AppID(fmt.Sprintf("app-%02d", i))
					holding := 0
					for _, srv := range got.shards {
						if srv.HeldTotalBy(id) > 0 {
							holding++
						}
					}
					if holding > 1 {
						multiShard++
					}
				}
				g, err := got.reconcile(now, gotChanged)
				if err != nil {
					t.Fatal(err)
				}
				w, err := serialReconcile(want, now, wantChanged)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g, w) || !reflect.DeepEqual(gotChanged, wantChanged) {
					t.Fatalf("round %d: reconcile granted %v (changed %v), serial %v (changed %v)", round, g, gotChanged, w, wantChanged)
				}
				for _, a := range g {
					reconciled += a.Total()
				}
				for i := range apps {
					id := workload.AppID(fmt.Sprintf("app-%02d", i))
					if gh, wh := got.HeldGlobal(id), want.HeldGlobal(id); !gh.Equal(wh) {
						t.Fatalf("round %d: %s holds %v, serial %v", round, id, gh, wh)
					}
				}
				if err := got.ValidateState(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if candidates == 0 || reconciled == 0 || multiShard == 0 {
				t.Errorf("%d candidates, %d reconciled GPUs, %d app-rounds holding on several shards: want all positive", candidates, reconciled, multiShard)
			}
		})
	}
}

// TestReconcileReprobeMatchesSerialHTTP: two twin 2-shard deployments of
// remote agents over HTTP, all homed on shard 0, one reconciled by the production round (its
// re-probe on the fanout), the other by the serial body. Every round makes
// the same reconciliation grants and deliveries, and only the fanned re-probe
// has more than one ρ probe in flight (its agents hold each answer 1 ms, so
// concurrent probes overlap even on a loaded host).
func TestReconcileReprobeMatchesSerialHTTP(t *testing.T) {
	const apps = 24
	topo := fanoutTopo(t)
	cfg := core.Config{FairnessKnob: 0.5, LeaseDuration: 20}
	build := func() (*ShardedArbiterServer, *agentFarm) {
		s, err := NewShardedArbiterServer(topo, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		farm := newAgentFarm(t, topo, generatedApps(t, apps))
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		client := NewArbiterClient(ts.URL)
		for id := range farm.agents {
			if s.HomeShard(id) != 0 {
				continue // shard 1's capacity is left over for reconciliation
			}
			if _, err := client.Register(context.Background(), id, farm.url+"/agents/"+id, farm.demand[id]); err != nil {
				t.Fatal(err)
			}
		}
		return s, farm
	}
	fanned, fannedFarm := build()
	serial, serialFarm := build()

	start := generatedApps(t, apps)[apps-1].SubmitTime
	reconciled, fannedPeak := 0, int64(0)
	for round, step := range []float64{0, 5, 12, 21, 30, 43, 50, 64} {
		now := start + step
		fannedChanged, serialChanged := shardRounds(t, fanned, now), shardRounds(t, serial, now)
		got, want := fanned.starved(now), serialStarved(serial, now)
		sameCandidates(t, round, got, want)
		fannedFarm.maxInFlight.Store(0)
		serialFarm.maxInFlight.Store(0)
		fannedFarm.rhoDelay.Store(int64(time.Millisecond))
		gotGrants, err := fanned.reconcile(now, fannedChanged)
		if err != nil {
			t.Fatal(err)
		}
		wantGrants, err := serialReconcile(serial, now, serialChanged)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotGrants, wantGrants) {
			t.Fatalf("round %d: reconcile granted %v, serial %v", round, gotGrants, wantGrants)
		}
		fannedFarm.rhoDelay.Store(0)
		fannedPeak = max(fannedPeak, fannedFarm.maxInFlight.Load())
		if peak := serialFarm.maxInFlight.Load(); peak > 1 {
			t.Errorf("round %d: serial re-probe had %d probes in flight at once", round, peak)
		}
		for _, a := range gotGrants {
			reconciled += a.Total()
		}
		fanned.deliver(now, fannedChanged)
		serial.deliver(now, serialChanged)
		for id, agent := range fannedFarm.agents {
			if g, w := agent.Current(), serialFarm.agents[id].Current(); !g.Equal(w) {
				t.Fatalf("round %d: %s was delivered %v fanned, %v serial", round, id, g, w)
			}
		}
	}
	if reconciled == 0 {
		t.Error("no round had leftovers to reconcile")
	}
	if fannedPeak < 2 {
		t.Errorf("fanned re-probe had at most %d probes in flight at once, want at least 2", fannedPeak)
	}
}
