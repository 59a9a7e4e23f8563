package sim

import (
	"cmp"
	"slices"
	"sort"

	"themis/internal/cluster"
	"themis/internal/workload"
)

// AppRecord is the per-app outcome of a simulation run.
type AppRecord struct {
	App        workload.AppID
	Model      string
	Network    bool
	SubmitTime float64
	FinishTime float64 // workload.NotFinished if unfinished at the horizon
	// TIdeal is the dedicated-cluster running time estimate (minutes).
	TIdeal float64
	// CompletionTime is FinishTime − SubmitTime (or NotFinished).
	CompletionTime float64
	// FinishTimeFairness is the realised ρ = completion time / TIdeal for
	// finished apps; for unfinished apps it uses the elapsed time so far
	// (a lower bound).
	FinishTimeFairness float64
	// BusyGPUTime is the GPU-minutes the app's jobs actively computed on.
	BusyGPUTime float64
	// HeldGPUTime is the GPU-minutes the app held GPUs (busy or not).
	HeldGPUTime float64
	// PlacementScore is the time-weighted average placement score of the
	// app's allocations while it held GPUs (1.0 = always tightly packed).
	PlacementScore float64
	// JobsTotal and JobsKilled count the app's trials and how many its
	// tuner terminated early.
	JobsTotal  int
	JobsKilled int
}

// AllocationEvent is one point in an app's GPU-allocation timeline (Figure 8).
type AllocationEvent struct {
	Time float64
	App  workload.AppID
	GPUs int
}

// Result aggregates everything a simulation run produced.
type Result struct {
	Policy    string
	TotalGPUs int
	Makespan  float64
	// ClusterGPUTime is the integral of in-use GPUs over time — the paper's
	// "GPU Time" efficiency metric (lower is better for a fixed workload).
	ClusterGPUTime float64
	// PeakContention is the maximum over time of (aggregate unmet + held
	// demand) / cluster GPUs, matching the paper's contention statistic.
	PeakContention float64
	// Fragmentation summarises, time-weighted over the run, how the free
	// capacity was scattered across the topology hierarchy.
	Fragmentation FragStats

	Apps     []AppRecord
	Timeline []AllocationEvent

	topo *cluster.Topology // nil once finalized

	// frag is the free-pool fragmentation snapshot for the current interval,
	// recomputed lazily (fragDirty) after allocation changes; fragWeight and
	// the frag* sums accumulate the time-weighted statistics. The Mean* block
	// fields of Fragmentation hold weighted sums until finalize normalises
	// them.
	frag         fragSnapshot
	fragDirty    bool
	fragWeight   float64
	fragSumScore float64 // Σ score·dt
	fragSumFree  float64 // Σ freeGPUs·dt
	// rackFree and domainFree are snapshotFrag's per-level free counts,
	// indexed by Topology.RackIndex and DomainIndex, cleared and refilled
	// per snapshot.
	rackFree   []int
	domainFree []int
}

// FragStats is the run-level fragmentation summary of the free GPU pool: the
// per-level largest free blocks say how big a gang could have been placed
// machine-, rack- or domain-local at a typical instant, and the score says
// what fraction of free capacity a machine-local gang could not reach
// (0 = all free GPUs on one machine, →1 = free capacity is dust).
type FragStats struct {
	// MeanFreeGPUs is the time-weighted mean number of free GPUs.
	MeanFreeGPUs float64
	// MeanScore and PeakScore track 1 − largestMachineBlock/freeGPUs over
	// time (0 whenever the cluster is fully busy).
	MeanScore float64
	PeakScore float64
	// MeanLargestMachineBlock, MeanLargestRackBlock and
	// MeanLargestDomainBlock are the time-weighted mean largest free blocks
	// at each level of the hierarchy.
	MeanLargestMachineBlock float64
	MeanLargestRackBlock    float64
	MeanLargestDomainBlock  float64
}

// fragSnapshot is the free pool's fragmentation at one instant.
type fragSnapshot struct {
	freeGPUs       int
	largestMachine int
	largestRack    int
	largestDomain  int
	score          float64
}

// snapshotFrag computes the free-pool fragmentation from the cluster state.
// It runs only on intervals following an allocation change, and allocates
// nothing.
func (r *Result) snapshotFrag(cs *cluster.State) fragSnapshot {
	var snap fragSnapshot
	clear(r.rackFree)
	clear(r.domainFree)
	for id := 0; id < r.topo.NumMachines(); id++ {
		n := cs.FreeOn(cluster.MachineID(id))
		if n <= 0 {
			continue
		}
		snap.freeGPUs += n
		if n > snap.largestMachine {
			snap.largestMachine = n
		}
		r.rackFree[r.topo.RackIndex(cluster.MachineID(id))] += n
		r.domainFree[r.topo.DomainIndex(cluster.MachineID(id))] += n
	}
	snap.largestRack, snap.largestDomain = slices.Max(r.rackFree), slices.Max(r.domainFree)
	if snap.freeGPUs > 0 {
		snap.score = 1 - float64(snap.largestMachine)/float64(snap.freeGPUs)
	}
	return snap
}

func newResult(cfg Config) *Result {
	return &Result{
		Policy:     cfg.Policy.Name(),
		TotalGPUs:  cfg.Topology.TotalGPUs(),
		topo:       cfg.Topology,
		fragDirty:  true,
		rackFree:   make([]int, cfg.Topology.NumRacks()),
		domainFree: make([]int, cfg.Topology.NumDomains()),
	}
}

func (r *Result) noteArrival(now float64, st *AppState) {
	r.Timeline = append(r.Timeline, AllocationEvent{Time: now, App: st.App.ID, GPUs: 0})
}

func (r *Result) noteAllocation(now float64, st *AppState, held cluster.Alloc) {
	r.fragDirty = true
	r.Timeline = append(r.Timeline, AllocationEvent{Time: now, App: st.App.ID, GPUs: held.Total()})
}

func (r *Result) noteFinish(now float64, st *AppState) {
	r.fragDirty = true
	r.Timeline = append(r.Timeline, AllocationEvent{Time: now, App: st.App.ID, GPUs: 0})
}

// noteInterval accrues cluster- and app-level GPU time and placement scores
// over an interval during which allocations were constant. Placement is
// scored per job (the paper's Figure 7 metric): an app's sample is the
// GPU-weighted mean of its jobs' placement scores.
func (r *Result) noteInterval(from, to float64, cs *cluster.State, active []*AppState) {
	dt := to - from
	if dt <= 0 {
		return
	}
	used := cs.TotalUsed()
	r.ClusterGPUTime += float64(used) * dt
	if r.TotalGPUs > 0 {
		if c := float64(used) / float64(r.TotalGPUs); c > r.PeakContention {
			r.PeakContention = c
		}
	}
	// Allocations are constant over the interval, so one snapshot (refreshed
	// only after allocation changes) weighted by dt accrues exactly.
	if r.fragDirty {
		r.frag = r.snapshotFrag(cs)
		r.fragDirty = false
	}
	r.fragWeight += dt
	r.fragSumFree += float64(r.frag.freeGPUs) * dt
	r.fragSumScore += r.frag.score * dt
	r.Fragmentation.MeanLargestMachineBlock += float64(r.frag.largestMachine) * dt
	r.Fragmentation.MeanLargestRackBlock += float64(r.frag.largestRack) * dt
	r.Fragmentation.MeanLargestDomainBlock += float64(r.frag.largestDomain) * dt
	if r.frag.score > r.Fragmentation.PeakScore {
		r.Fragmentation.PeakScore = r.frag.score
	}
	// Apps holding GPUs are exactly the active apps with a non-empty Held
	// (finished apps release everything).
	for _, st := range active {
		g := st.heldTotal
		if g == 0 {
			continue
		}
		st.heldGPUTime += float64(g) * dt
		score, weight := st.placementScore()
		st.scoreSum += score * dt * weight
		st.scoreWeightSum += dt * weight
	}
}

// finalize converts accumulators into AppRecords at the end of the run.
func (r *Result) finalize(now float64, apps []*AppState) {
	if r.topo == nil {
		return // already finalized
	}
	r.Makespan = now
	if w := r.fragWeight; w > 0 {
		r.Fragmentation.MeanFreeGPUs = r.fragSumFree / w
		r.Fragmentation.MeanScore = r.fragSumScore / w
		r.Fragmentation.MeanLargestMachineBlock /= w
		r.Fragmentation.MeanLargestRackBlock /= w
		r.Fragmentation.MeanLargestDomainBlock /= w
	}
	r.Apps = r.Apps[:0]
	for _, st := range apps {
		rec := AppRecord{
			App:        st.App.ID,
			Model:      st.App.Profile.Name,
			Network:    st.App.Profile.NetworkIntensive,
			SubmitTime: st.App.SubmitTime,
			FinishTime: st.App.FinishedAt,
			TIdeal:     st.TIdealAtArrival,
			JobsTotal:  len(st.App.Jobs),
		}
		for _, j := range st.App.Jobs {
			if j.Killed {
				rec.JobsKilled++
			}
		}
		rec.BusyGPUTime = st.App.GPUTime()
		rec.HeldGPUTime = st.heldGPUTime
		if st.scoreWeightSum > 0 {
			rec.PlacementScore = st.scoreSum / st.scoreWeightSum
		}
		elapsed := now - st.App.SubmitTime
		if st.App.Finished() {
			rec.CompletionTime = st.App.CompletionTime()
			elapsed = rec.CompletionTime
		} else {
			rec.CompletionTime = workload.NotFinished
		}
		if st.TIdealAtArrival > 0 && elapsed > 0 {
			rec.FinishTimeFairness = elapsed / st.TIdealAtArrival
		}
		r.Apps = append(r.Apps, rec)
	}
	sort.Slice(r.Apps, func(i, j int) bool { return r.Apps[i].App < r.Apps[j].App })
	// Stable, so an app's events at one instant keep their recording order
	// (an arrival before the grant of its round).
	slices.SortStableFunc(r.Timeline, func(x, y AllocationEvent) int {
		return cmp.Or(cmp.Compare(x.Time, y.Time), cmp.Compare(x.App, y.App))
	})
	// A finished Result keeps nothing of the run's working state alive.
	r.topo, r.rackFree, r.domainFree = nil, nil, nil
}

// Finished returns the records of apps that completed within the run.
func (r *Result) Finished() []AppRecord {
	var out []AppRecord
	for _, a := range r.Apps {
		if a.FinishTime != workload.NotFinished {
			out = append(out, a)
		}
	}
	return out
}

// TimelineFor returns the allocation timeline of one app, in time order.
func (r *Result) TimelineFor(id workload.AppID) []AllocationEvent {
	var out []AllocationEvent
	for _, e := range r.Timeline {
		if e.App == id {
			out = append(out, e)
		}
	}
	return out
}
