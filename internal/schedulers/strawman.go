package schedulers

import (
	"math"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/sim"
	"themis/internal/workload"
)

// Strawman is the "online strawman" the paper describes and rejects in §4:
// at every lease boundary the Arbiter simply hands all available GPUs to the
// single app with the worst finish-time fairness estimate. It tracks ρ like
// Themis but has neither the auction's placement-efficiency pressure nor its
// truth-telling incentives, and it allocates without regard to how well the
// winner can actually use or place the GPUs. It exists as a reference point
// for experiments and ablations.
type Strawman struct {
	estimators map[workload.AppID]*core.RhoEstimator
	tuners     map[workload.AppID]hyperparam.Tuner
	picker     placement.Picker
	demand     map[workload.AppID]int
}

// NewStrawman returns the §4 strawman policy.
func NewStrawman() *Strawman {
	return &Strawman{
		estimators: make(map[workload.AppID]*core.RhoEstimator),
		tuners:     make(map[workload.AppID]hyperparam.Tuner),
	}
}

// Name implements sim.Policy.
func (*Strawman) Name() string { return "strawman-ftf" }

// Allocate gives every free GPU (up to its demand) to the app with the
// worst current ρ, then repeats with the next-worst app while GPUs remain.
func (s *Strawman) Allocate(now float64, free cluster.Alloc, view *sim.View) (map[workload.AppID]cluster.Alloc, error) {
	out := make(map[workload.AppID]cluster.Alloc)
	s.demand = demandInto(s.demand, view)
	demand, picker := s.demand, &s.picker
	granted := make(map[workload.AppID]bool)
	picker.Load(view.Topo, free)
	var alloc cluster.Alloc // scratch: mergeGrant copies out of it

	for picker.Total() > 0 {
		var worst *sim.AppState
		worstRho := math.Inf(-1)
		for _, st := range view.Apps {
			if granted[st.App.ID] || demand[st.App.ID] <= 0 {
				continue
			}
			rho := s.estimatorFor(view, st).CurrentRho(now, st.Held)
			if rho > worstRho {
				worst, worstRho = st, rho
			}
		}
		if worst == nil {
			break
		}
		granted[worst.App.ID] = true
		alloc = picker.Draw(alloc, worst.Held, demand[worst.App.ID])
		mergeGrant(out, worst.App.ID, alloc)
	}
	return out, nil
}

func (s *Strawman) estimatorFor(view *sim.View, st *sim.AppState) *core.RhoEstimator {
	est, ok := s.estimators[st.App.ID]
	if !ok {
		est = core.NewRhoEstimator(view.Topo, st.App, st.Tuner)
		s.estimators[st.App.ID] = est
	}
	return est
}
