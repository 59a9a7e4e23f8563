package schedulers

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/sim"
	"themis/internal/workload"
)

// gandivaOracle is Gandiva.Allocate as it read before the anchors were kept
// per app and scored in place, kept verbatim but for mergeGrantAdd: every
// candidate is scored on a fresh Held.Add(out[id]) plus anchor.Add(cand).
func gandivaOracle(free cluster.Alloc, view *sim.View) map[workload.AppID]cluster.Alloc {
	out := make(map[workload.AppID]cluster.Alloc)
	demand := demandInto(nil, view)
	var picker placement.Picker
	picker.Load(view.Topo, free)
	// Every app is asked what it would do with the pool before any of it is
	// committed, so each candidate is drawn and handed back.
	var cand, bestAnchor cluster.Alloc
	for picker.Total() > 0 {
		var best *sim.AppState
		bestScore := 0.0
		for _, st := range view.Apps {
			unmet := demand[st.App.ID]
			if unmet <= 0 {
				continue
			}
			anchor := st.Held.Add(out[st.App.ID])
			cand = picker.Draw(cand, anchor, chunkFor(st, unmet))
			picker.Credit(cand)
			if cand.Total() == 0 {
				continue
			}
			score := cluster.PlacementScore(view.Topo, anchor.Add(cand))
			if best == nil || score > bestScore ||
				(score == bestScore && st.App.SubmitTime < best.App.SubmitTime) {
				best, bestScore, bestAnchor = st, score, anchor
			}
		}
		if best == nil {
			break
		}
		// The pool is as the winner saw it, so drawing its pick again takes
		// exactly the GPUs it was scored on.
		cand = picker.Draw(cand, bestAnchor, chunkFor(best, demand[best.App.ID]))
		mergeGrantAdd(out, best.App.ID, cand)
		demand[best.App.ID] -= cand.Total()
	}
	return out
}

// mergeGrantAdd is mergeGrant as it read before it credited in place: every
// grant replaces the app's result map with a fresh sum.
func mergeGrantAdd(out map[workload.AppID]cluster.Alloc, id workload.AppID, alloc cluster.Alloc) {
	if alloc.Total() == 0 {
		return
	}
	out[id] = out[id].Add(alloc)
}

// randomGandivaView draws a topology — flat, or its racks split over fabric
// domains — a free pool and 1–24 apps (1–3 in half the views). Apps hold GPUs on a few machines or
// none, their jobs mix gang sizes 1–8 with wider maximum parallelism, some
// jobs are killed, and the pool ranges from a few GPUs to the whole cluster,
// so it falls short of demand in some views and exceeds it in others.
func randomGandivaView(rng *rand.Rand, fabric bool) (cluster.Alloc, *sim.View) {
	gpus := []int{2, 4, 8}[rng.Intn(3)]
	perRack, racksPerDomain := 1+rng.Intn(4), 1+rng.Intn(3)
	machines := make([]cluster.Machine, 2+rng.Intn(23))
	for i := range machines {
		rack := i / perRack
		domain := 0
		if fabric {
			domain = rack / racksPerDomain
		}
		machines[i] = cluster.Machine{
			ID:       cluster.MachineID(i),
			Rack:     cluster.RackID(rack),
			Domain:   cluster.DomainID(domain),
			NumGPUs:  gpus,
			SlotSize: max(gpus/(1+rng.Intn(2)), 1),
			GPU:      cluster.GPUTypeP100,
		}
	}
	topo, err := cluster.NewTopology(machines)
	if err != nil {
		panic(err)
	}

	view := &sim.View{Topo: topo}
	numApps := []int{1 + rng.Intn(3), 1 + rng.Intn(24)}[rng.Intn(2)]
	for a := 0; a < numApps; a++ {
		id := workload.AppID(fmt.Sprintf("app%02d", a))
		jobs := make([]*workload.Job, 1+rng.Intn(4))
		for k := range jobs {
			j := workload.NewJob(id, k, 100, []int{1, 2, 3, 4, 8}[rng.Intn(5)])
			j.MaxParallelism = j.GangSize * (1 + rng.Intn(3))
			j.Killed = rng.Intn(8) == 0
			jobs[k] = j
		}
		app := workload.NewApp(id, float64(rng.Intn(4)), placement.ResNet50, jobs)
		held := cluster.NewAlloc()
		for n := rng.Intn(3); n > 0; n-- {
			m := machines[rng.Intn(len(machines))]
			held[m.ID] = 1 + rng.Intn(m.NumGPUs)
		}
		view.Apps = append(view.Apps, &sim.AppState{App: app, Held: held})
	}
	free := cluster.NewAlloc()
	density := []float64{0.1, 0.5, 1}[rng.Intn(3)]
	for _, m := range machines {
		if rng.Float64() < density {
			free[m.ID] = 1 + rng.Intn(m.NumGPUs)
		}
	}
	return free, view
}

// FuzzGandivaMatchesOracle pins Gandiva's per-app anchors, scored by a
// credit-and-debit round trip, to the oracle that builds a fresh anchor for
// every candidate: the result maps must be equal on every seeded view, and
// the view's holdings must come back untouched.
func FuzzGandivaMatchesOracle(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, fabric bool) {
		free, view := randomGandivaView(rand.New(rand.NewSource(seed)), fabric)
		held := make([]cluster.Alloc, len(view.Apps))
		for i, st := range view.Apps {
			held[i] = st.Held.Clone()
		}
		want := gandivaOracle(free, view)
		got, err := NewGandiva().Allocate(0, free, view)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d fabric %v: Allocate = %v, oracle gives %v", seed, fabric, got, want)
		}
		for i, st := range view.Apps {
			if !reflect.DeepEqual(st.Held, held[i]) {
				t.Fatalf("seed %d fabric %v: Allocate changed %s's holding from %v to %v", seed, fabric, st.App.ID, held[i], st.Held)
			}
		}
	})
}

// TestGandivaViewsCoverPoolShapes checks the fuzz target's seed views reach
// the cases it must get right: pools short of demand and pools beyond it,
// apps holding GPUs, several grants to one app in a call, and fabric views
// that span more than one domain.
func TestGandivaViewsCoverPoolShapes(t *testing.T) {
	var short, surplus, holding, multi, domains int
	for seed := int64(0); seed < 64; seed++ {
		fabric := seed%2 == 1
		free, view := randomGandivaView(rand.New(rand.NewSource(seed)), fabric)
		total := 0
		for _, d := range demandInto(nil, view) {
			total += d
		}
		if free.Total() < total {
			short++
		} else {
			surplus++
		}
		for _, st := range view.Apps {
			if st.Held.Total() > 0 {
				holding++
				break
			}
		}
		if fabric && view.Topo.NumDomains() > 1 {
			domains++
		}
		grants := gandivaOracle(free, view)
		for _, st := range view.Apps {
			if grants[st.App.ID].Total() > chunkFor(st, st.UnmetDemand()) {
				multi++
				break
			}
		}
	}
	t.Logf("%d short pools, %d surplus pools, %d with held GPUs, %d with repeat grants, %d multi-domain", short, surplus, holding, multi, domains)
	if short < 10 || surplus < 10 || holding < 10 || multi < 10 || domains < 10 {
		t.Errorf("seed views too tame: %d short pools, %d surplus pools, %d with held GPUs, %d with repeat grants, %d multi-domain", short, surplus, holding, multi, domains)
	}
}
