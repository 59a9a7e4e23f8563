package schedulers

import (
	"cmp"
	"slices"

	"themis/internal/cluster"
	"themis/internal/estimator"
	"themis/internal/placement"
	"themis/internal/sim"
	"themis/internal/workload"
)

// Gandiva models Xiao et al.'s introspective cluster scheduler as the paper
// does (§8): every app reports the placement score it would obtain from the
// offered GPUs, and a greedy placement algorithm maximises aggregate
// placement score at every lease boundary. Gandiva has no fairness
// objective. (GPU time-slicing is deliberately not modelled, as in the
// paper, since it would benefit all schemes equally.)
//
// Like every baseline here, a Gandiva keeps its scratch across Allocate
// calls, so an instance belongs to one simulation and one goroutine; the
// policy factories build one per run.
type Gandiva struct {
	picker      placement.Picker
	demand      map[workload.AppID]int
	anchors     []placement.Anchor // per view.Apps index; loaded per call
	cand, taken []placement.Take   // a candidate's draw, and the best so far
}

// NewGandiva returns the Gandiva baseline policy.
func NewGandiva() *Gandiva { return &Gandiva{} }

// Name implements sim.Policy.
func (*Gandiva) Name() string { return "gandiva" }

// Allocate greedily hands gang-sized chunks to whichever app places them
// best, repeating until demand or supply is exhausted.
func (g *Gandiva) Allocate(now float64, free cluster.Alloc, view *sim.View) (map[workload.AppID]cluster.Alloc, error) {
	out := make(map[workload.AppID]cluster.Alloc)
	g.demand = demandInto(g.demand, view)
	demand, picker := g.demand, &g.picker
	picker.Load(view.Topo, free)
	// anchors[i] is what view.Apps[i] holds plus what it has won this call:
	// loaded from Held for every app with demand (the only ones asked),
	// extended by each win.
	if n := len(view.Apps) - len(g.anchors); n > 0 {
		g.anchors = append(g.anchors, make([]placement.Anchor, n)...)
	}
	anchors := g.anchors
	for i, st := range view.Apps {
		if demand[st.App.ID] > 0 {
			anchors[i].Load(view.Topo, st.Held)
		}
	}
	// Every app is asked what it would do with the pool before any of it is
	// committed, so each candidate is drawn into a log and handed back, and
	// the best log so far is kept.
	for picker.Total() > 0 {
		best := -1
		bestScore := 0.0
		for i, st := range view.Apps {
			unmet := demand[st.App.ID]
			if unmet <= 0 {
				continue
			}
			g.cand = g.cand[:0]
			picker.DrawTakesAt(&g.cand, &anchors[i], chunkFor(st, unmet), false)
			picker.CreditTakes(g.cand, 1)
			if len(g.cand) == 0 {
				continue
			}
			score := cluster.LocalityScore(anchors[i].LocalityWith(g.cand))
			if best < 0 || score > bestScore ||
				(score == bestScore && st.App.SubmitTime < view.Apps[best].App.SubmitTime) {
				best, bestScore = i, score
				g.cand, g.taken = g.taken, g.cand
			}
		}
		if best < 0 {
			break
		}
		// The pool is as the winner saw it, so its log is exactly what it
		// takes.
		picker.CreditTakes(g.taken, -1)
		anchors[best].Add(g.taken)
		id := view.Apps[best].App.ID
		if out[id] == nil {
			out[id] = make(cluster.Alloc, len(g.taken))
		}
		for _, t := range g.taken {
			out[id][t.Machine] += t.GPUs
			demand[id] -= t.GPUs
		}
	}
	return out, nil
}

// Tiresias models Gu et al.'s least-attained-service (LAS) discipline as the
// paper does (§8): apps report their total GPU service so far and the GPUs
// go to the apps with the least attained service. The policy is placement
// unaware, so chunks are picked spread across machines. It keeps its scratch
// across Allocate calls (see Gandiva).
type Tiresias struct {
	picker  placement.Picker
	demand  map[workload.AppID]int
	service map[workload.AppID]float64
	alloc   cluster.Alloc
}

// NewTiresias returns the Tiresias baseline policy.
func NewTiresias() *Tiresias { return &Tiresias{} }

// Name implements sim.Policy.
func (*Tiresias) Name() string { return "tiresias" }

// Allocate assigns gang-sized chunks to apps in ascending order of attained
// GPU service until supply or demand runs out.
func (t *Tiresias) Allocate(now float64, free cluster.Alloc, view *sim.View) (map[workload.AppID]cluster.Alloc, error) {
	out := make(map[workload.AppID]cluster.Alloc)
	t.demand = demandInto(t.demand, view)
	demand, picker := t.demand, &t.picker
	picker.Load(view.Topo, free)
	alloc := t.alloc // scratch: mergeGrant copies out of it

	if t.service == nil {
		t.service = make(map[workload.AppID]float64, len(view.Apps))
	}
	service := t.service
	clear(service)
	for _, st := range view.Apps {
		service[st.App.ID] = st.AttainedService()
	}
	for picker.Total() > 0 {
		// Pick the app with least attained service (counting what it has
		// been granted this round as if already consumed, so one app does
		// not absorb the entire pool in a single round).
		var best *sim.AppState
		for _, st := range view.Apps {
			if demand[st.App.ID] <= 0 {
				continue
			}
			if best == nil || service[st.App.ID] < service[best.App.ID] ||
				(service[st.App.ID] == service[best.App.ID] && st.App.SubmitTime < best.App.SubmitTime) {
				best = st
			}
		}
		if best == nil {
			break
		}
		chunk := chunkFor(best, demand[best.App.ID])
		alloc = picker.DrawSpread(alloc, chunk)
		if alloc.Total() == 0 {
			break
		}
		mergeGrant(out, best.App.ID, alloc)
		demand[best.App.ID] -= alloc.Total()
		// Bias future picks away from this app proportionally to the grant.
		service[best.App.ID] += float64(alloc.Total())
	}
	t.alloc = alloc
	return out, nil
}

// SLAQ models Zhang et al.'s quality-driven scheduler as the paper does
// (§8): every app reports the decrease in loss it would obtain from the
// offered GPUs and the scheduler maximises the aggregate loss reduction. It
// is fairness- and placement-unaware.
type SLAQ struct {
	// WindowMinutes is the horizon over which marginal loss reduction is
	// evaluated (defaults to a lease length).
	WindowMinutes float64

	// Scratch kept across Allocate calls (see Gandiva).
	picker placement.Picker
	alloc  cluster.Alloc
	apps   []slaqApp
	memo   []slaqTrial
}

// NewSLAQ returns the SLAQ baseline policy.
func NewSLAQ() *SLAQ { return &SLAQ{WindowMinutes: 20} }

// Name implements sim.Policy.
func (*SLAQ) Name() string { return "slaq" }

// Allocate repeatedly grants a gang-sized chunk to the app whose best active
// trial would reduce its loss the most over the next window given that
// chunk. One valuation per app per round, then the winner's: within a call
// only the winner's holding and demand change, so the others' gains stand.
func (s *SLAQ) Allocate(now float64, free cluster.Alloc, view *sim.View) (map[workload.AppID]cluster.Alloc, error) {
	out := make(map[workload.AppID]cluster.Alloc)
	picker := &s.picker
	picker.Load(view.Topo, free)
	alloc := s.alloc // scratch: mergeGrant copies out of it

	// Indexed like view.Apps. The apps with demand share one memo slice,
	// each holding the stretch of it that covers its active trials; it is
	// grown to fit them all before any is appended, so the stretches stay put.
	s.apps = slices.Grow(s.apps[:0], len(view.Apps))[:len(view.Apps)]
	apps := s.apps
	clear(apps)
	trials := 0
	for i, st := range view.Apps {
		if apps[i].demand = st.UnmetDemand(); apps[i].demand > 0 {
			trials += st.App.NumActiveJobs()
		}
	}
	memo := slices.Grow(s.memo[:0], trials)
	for i, st := range view.Apps {
		a := &apps[i]
		if a.demand <= 0 {
			continue
		}
		first := len(memo)
		for _, j := range st.App.Jobs {
			if j.Active() {
				memo = append(memo, newSLAQTrial(j))
			}
		}
		a.trials = memo[first:]
		a.have = st.Held.Total()
		a.gain = s.lossReduction(a.trials, a.have, chunkFor(st, a.demand))
	}
	for picker.Total() > 0 {
		best := -1
		for i, st := range view.Apps {
			if apps[i].demand <= 0 {
				continue
			}
			if best < 0 || apps[i].gain > apps[best].gain ||
				(apps[i].gain == apps[best].gain && st.App.SubmitTime < view.Apps[best].App.SubmitTime) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		st, a := view.Apps[best], &apps[best]
		alloc = picker.DrawSpread(alloc, chunkFor(st, a.demand))
		if alloc.Total() == 0 {
			break
		}
		mergeGrant(out, st.App.ID, alloc)
		a.demand -= alloc.Total()
		a.have += alloc.Total()
		if a.demand > 0 {
			a.gain = s.lossReduction(a.trials, a.have, chunkFor(st, a.demand))
		}
	}
	s.alloc, s.memo = alloc, memo
	return out, nil
}

// slaqApp is one app's standing within a SLAQ call: its unmet demand, the
// GPUs it holds plus those granted so far, its current gain and its trials'
// memo.
type slaqApp struct {
	demand, have int
	gain         float64
	trials       []slaqTrial
}

// slaqTrial memoises one active trial within a SLAQ call. The curve, the
// per-iteration work and the iterations done are fixed for the call. with
// and withLoss are the last "with" point the trial was valued at: a winner's
// next "without" count is usually its last "with" count, whose loss is then
// reused instead of recomputed.
type slaqTrial struct {
	curve       estimator.LossCurve
	perIterWork float64
	done        int
	valued      bool
	with        int
	withLoss    float64
}

func newSLAQTrial(j *workload.Job) slaqTrial {
	return slaqTrial{
		curve:       estimator.CurveForJob(j),
		perIterWork: maxFloat(j.TotalWork/float64(maxInt(j.TotalIterations, 1)), 1e-9),
		done:        j.IterationsDone(),
	}
}

// lossReduction estimates the loss decrease the app's best-progressing trial
// would achieve over the policy window if the app went from have to
// have+extra GPUs: one valuation per app per round, then the winner's.
func (s *SLAQ) lossReduction(trials []slaqTrial, have, extra int) float64 {
	window := s.WindowMinutes
	if window <= 0 {
		window = 20
	}
	bestGain := 0.0
	for k := range trials {
		t := &trials[k]
		itersWith := t.done + int(window*float64(have+extra)/t.perIterWork)
		itersWithout := t.done + int(window*float64(have)/t.perIterWork)
		lossWithout := t.withLoss
		if !t.valued || itersWithout != t.with {
			lossWithout = t.curve.Loss(itersWithout)
		}
		t.valued, t.with, t.withLoss = true, itersWith, t.curve.Loss(itersWith)
		if gain := lossWithout - t.withLoss; gain > bestGain {
			bestGain = gain
		}
	}
	return bestGain
}

// ResourceFair is a DRF-style instantaneous resource-fair reference policy:
// it equalises GPU counts across active apps at every scheduling round,
// ignoring placement and finish times. It is not part of the paper's
// comparison set but is useful as an extra reference point in experiments.
// It keeps its scratch across Allocate calls (see Gandiva).
type ResourceFair struct {
	picker  placement.Picker
	demand  map[workload.AppID]int
	holding map[workload.AppID]int
	apps    []*sim.AppState
	alloc   cluster.Alloc
}

// NewResourceFair returns the resource-fair reference policy.
func NewResourceFair() *ResourceFair { return &ResourceFair{} }

// Name implements sim.Policy.
func (*ResourceFair) Name() string { return "resource-fair" }

// Allocate gives one gang-sized chunk at a time to the app currently holding
// the fewest GPUs.
func (r *ResourceFair) Allocate(now float64, free cluster.Alloc, view *sim.View) (map[workload.AppID]cluster.Alloc, error) {
	out := make(map[workload.AppID]cluster.Alloc)
	r.demand = demandInto(r.demand, view)
	demand, picker := r.demand, &r.picker
	picker.Load(view.Topo, free)
	alloc := r.alloc // scratch: mergeGrant copies out of it
	if r.holding == nil {
		r.holding = make(map[workload.AppID]int, len(view.Apps))
	}
	holding := r.holding
	clear(holding)
	for _, st := range view.Apps {
		holding[st.App.ID] = st.Held.Total()
	}
	// Deterministic ordering of apps for tie-breaks.
	r.apps = append(r.apps[:0], view.Apps...)
	apps := r.apps
	slices.SortFunc(apps, func(a, b *sim.AppState) int { return cmp.Compare(a.App.ID, b.App.ID) })

	for picker.Total() > 0 {
		var best *sim.AppState
		for _, st := range apps {
			if demand[st.App.ID] <= 0 {
				continue
			}
			if best == nil || holding[st.App.ID] < holding[best.App.ID] {
				best = st
			}
		}
		if best == nil {
			break
		}
		chunk := chunkFor(best, demand[best.App.ID])
		alloc = picker.DrawSpread(alloc, chunk)
		if alloc.Total() == 0 {
			break
		}
		mergeGrant(out, best.App.ID, alloc)
		demand[best.App.ID] -= alloc.Total()
		holding[best.App.ID] += alloc.Total()
	}
	r.alloc = alloc
	clear(apps) // hold no AppState past the call
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
