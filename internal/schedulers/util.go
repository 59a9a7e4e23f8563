package schedulers

import (
	"themis/internal/cluster"
	"themis/internal/sim"
	"themis/internal/workload"
)

// demandInto fills demand (cleared first; allocated when nil) with how many
// GPUs each active app can still use, keyed by ID, and returns it.
func demandInto(demand map[workload.AppID]int, view *sim.View) map[workload.AppID]int {
	if demand == nil {
		demand = make(map[workload.AppID]int, len(view.Apps))
	}
	clear(demand)
	for _, st := range view.Apps {
		if d := st.UnmetDemand(); d > 0 {
			demand[st.App.ID] = d
		}
	}
	return demand
}

// chunkFor bounds a single grant: policies hand out GPUs in gang-size chunks
// (the app's typical gang), never exceeding the app's unmet demand.
func chunkFor(st *sim.AppState, unmet int) int {
	gang := 0
	for _, j := range st.App.Jobs {
		if j.Active() && j.GangSize > gang {
			gang = j.GangSize
		}
	}
	if gang <= 0 {
		gang = 1
	}
	if gang > unmet {
		gang = unmet
	}
	return gang
}

// mergeGrant accumulates a grant into the policy's result map. alloc is the
// caller's scratch, so an app's first grant is copied; later ones are
// credited into that copy, which the result map already owns.
func mergeGrant(out map[workload.AppID]cluster.Alloc, id workload.AppID, alloc cluster.Alloc) {
	if alloc.Total() == 0 {
		return
	}
	if held, ok := out[id]; ok {
		held.Credit(alloc)
	} else {
		out[id] = alloc.Clone()
	}
}
