package schedulers

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"themis/internal/cluster"
	"themis/internal/estimator"
	"themis/internal/placement"
	"themis/internal/sim"
	"themis/internal/workload"
)

// slaqFullRevaluation is SLAQ.Allocate as it read before it kept per-app
// gains: every loop turn re-values every app with demand, through
// slaqLossReduction, and merges grants through mergeGrantAdd. It is the
// oracle the incremental, memoised loop must match grant for grant, and
// shares none of its valuation or merging code.
func slaqFullRevaluation(s *SLAQ, free cluster.Alloc, view *sim.View) (map[workload.AppID]cluster.Alloc, error) {
	out := make(map[workload.AppID]cluster.Alloc)
	demand := demandInto(nil, view)
	granted := make(map[workload.AppID]int)
	var picker placement.Picker
	picker.Load(view.Topo, free)
	var alloc cluster.Alloc // scratch: mergeGrantAdd copies out of it

	for picker.Total() > 0 {
		var best *sim.AppState
		bestGain := 0.0
		for _, st := range view.Apps {
			if demand[st.App.ID] <= 0 {
				continue
			}
			chunk := chunkFor(st, demand[st.App.ID])
			gain := slaqLossReduction(s, st, st.Held.Total()+granted[st.App.ID], chunk)
			if best == nil || gain > bestGain ||
				(gain == bestGain && st.App.SubmitTime < best.App.SubmitTime) {
				best, bestGain = st, gain
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
		mergeGrantAdd(out, best.App.ID, alloc)
		demand[best.App.ID] -= alloc.Total()
		granted[best.App.ID] += alloc.Total()
	}
	return out, nil
}

// slaqLossReduction is SLAQ.lossReduction as it read before the per-call
// memo, kept verbatim: every valuation derives each active trial's curve and
// computes both losses afresh.
func slaqLossReduction(s *SLAQ, st *sim.AppState, have, extra int) float64 {
	window := s.WindowMinutes
	if window <= 0 {
		window = 20
	}
	bestGain := 0.0
	for _, j := range st.App.Jobs {
		if !j.Active() {
			continue
		}
		curve := estimator.CurveForJob(j)
		perIterWork := j.TotalWork / float64(maxInt(j.TotalIterations, 1))
		done := j.IterationsDone()
		itersWith := done + int(window*float64(have+extra)/maxFloat(perIterWork, 1e-9))
		itersWithout := done + int(window*float64(have)/maxFloat(perIterWork, 1e-9))
		gain := curve.Loss(itersWithout) - curve.Loss(itersWith)
		if gain > bestGain {
			bestGain = gain
		}
	}
	return bestGain
}

// randomSLAQView draws a free pool and 1–40 apps on topo. Apps often copy
// one of a few job sets and submit times, so equal gains are common and the
// SubmitTime tie-break (or view order) decides; some jobs are killed or done,
// some apps have no active job at all, some trials are so slow that no window
// moves them an iteration (gain 0), and the pool ranges from a few GPUs to
// the whole cluster.
func randomSLAQView(rng *rand.Rand, topo *cluster.Topology, numApps int) (cluster.Alloc, *sim.View) {
	type jobShape struct {
		work, done       float64
		gang, par, iters int
		quality          float64
		seed             int64
		killed, finished bool
	}
	randomJobs := func() []jobShape {
		jobs := make([]jobShape, 1+rng.Intn(6))
		for k := range jobs {
			j := &jobs[k]
			j.gang = []int{1, 2, 4, 8}[rng.Intn(4)]
			j.par = []int{j.gang, j.gang, max(j.gang/2, 1), 2 * j.gang}[rng.Intn(4)]
			j.work = 10 + rng.Float64()*2000
			if rng.Intn(8) == 0 {
				j.work = 1e7 // no window moves it an iteration
			}
			j.iters = []int{0, 1, 1000, 200 + rng.Intn(1800)}[rng.Intn(4)]
			j.done = j.work * rng.Float64() * 0.9
			j.quality, j.seed = rng.Float64(), rng.Int63n(64)
			j.killed, j.finished = rng.Intn(10) == 0, rng.Intn(10) == 0
		}
		if rng.Intn(10) == 0 {
			for k := range jobs {
				jobs[k].killed = true
			}
		}
		return jobs
	}
	shared := [][]jobShape{randomJobs(), randomJobs(), randomJobs()}

	view := &sim.View{Topo: topo}
	for a := 0; a < numApps; a++ {
		id := workload.AppID(fmt.Sprintf("app%02d", a))
		shapes := shared[rng.Intn(len(shared))]
		if rng.Intn(3) == 0 {
			shapes = randomJobs()
		}
		jobs := make([]*workload.Job, len(shapes))
		for k, sh := range shapes {
			j := workload.NewJob(id, k, sh.work, sh.gang)
			j.MaxParallelism, j.TotalIterations, j.DoneWork = sh.par, sh.iters, sh.done
			j.Quality, j.Seed, j.Killed = sh.quality, sh.seed, sh.killed
			if sh.finished {
				j.DoneAt = 1
			}
			jobs[k] = j
		}
		app := workload.NewApp(id, float64(rng.Intn(4)), placement.ResNet50, jobs)
		held := cluster.NewAlloc()
		for n := rng.Intn(3); n > 0; n-- {
			m := topo.Machines()[rng.Intn(topo.NumMachines())]
			held[m.ID] = 1 + rng.Intn(m.NumGPUs)
		}
		view.Apps = append(view.Apps, &sim.AppState{App: app, Held: held})
	}
	free := cluster.NewAlloc()
	density := []float64{0.02, 0.1, 0.5, 1}[rng.Intn(4)]
	for _, m := range topo.Machines() {
		if rng.Float64() < density {
			free[m.ID] = 1 + rng.Intn(m.NumGPUs)
		}
	}
	return free, view
}

// TestSLAQMatchesFullRevaluation pins the incremental loop to the oracle on
// seeded views over the sim and testbed clusters, and checks the views
// exercise the cases the incremental loop must get right.
func TestSLAQMatchesFullRevaluation(t *testing.T) {
	topos := map[string]*cluster.Topology{"sim": cluster.SimulationCluster(), "testbed": cluster.TestbedCluster()}
	var ties, drained, shortPool int
	for _, name := range []string{"sim", "testbed"} {
		topo := topos[name]
		for seed := int64(1); seed <= 1200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			free, view := randomSLAQView(rng, topo, 1+rng.Intn(40))
			s := NewSLAQ()
			if seed%5 == 0 {
				s.WindowMinutes = []float64{0, 3, 60}[seed%3]
			}
			want, err := slaqFullRevaluation(s, free, view)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Allocate(0, free, view)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: Allocate = %v, full re-valuation gives %v", name, seed, got, want)
			}

			demand, total := demandInto(nil, view), 0
			gains := map[float64]int{}
			for _, st := range view.Apps {
				if d := demand[st.App.ID]; d > 0 {
					total += d
					gains[slaqLossReduction(s, st, st.Held.Total(), chunkFor(st, d))]++
					if got[st.App.ID].Total() == d {
						drained++
					}
				}
			}
			for _, n := range gains {
				if n > 1 {
					ties++
					break
				}
			}
			if free.Total() < total {
				shortPool++
			}
		}
	}
	t.Logf("%d views with equal gains, %d apps drained, %d pools short of demand", ties, drained, shortPool)
	if ties < 200 || drained < 200 || shortPool < 200 {
		t.Errorf("views too tame: %d with equal gains, %d apps drained, %d pools short of demand", ties, drained, shortPool)
	}
}

// TestSLAQMemoMatchesValuation holds the memoised valuation to the verbatim
// one on any sequence of (have, extra) an app is valued at, not only the one
// Allocate produces (where a winner's next "without" count always equals its
// last "with" count): revaluations that grow by the full chunk, by part of
// it, not at all, or shrink must give the same bits.
func TestSLAQMemoMatchesValuation(t *testing.T) {
	topo := cluster.SimulationCluster()
	var hits, misses int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, view := randomSLAQView(rng, topo, 1+rng.Intn(10))
		s := NewSLAQ()
		s.WindowMinutes = []float64{0, 3, 20, 60}[rng.Intn(4)]
		for _, st := range view.Apps {
			var trials []slaqTrial
			for _, j := range st.App.Jobs {
				if j.Active() {
					trials = append(trials, newSLAQTrial(j))
				}
			}
			have := rng.Intn(8)
			for step := 0; step < 8; step++ {
				extra := 1 + rng.Intn(8)
				want := slaqLossReduction(s, st, have, extra)
				if got := s.lossReduction(trials, have, extra); got != want {
					t.Fatalf("seed %d app %s step %d: lossReduction(%d, %d) = %v, want %v", seed, st.App.ID, step, have, extra, got, want)
				}
				if rng.Intn(2) == 0 {
					have += extra
					hits++
				} else {
					have = max(have+rng.Intn(5)-2, 0)
					misses++
				}
			}
		}
	}
	t.Logf("%d revaluations from the last \"with\" point, %d from elsewhere", hits, misses)
}

// BenchmarkSLAQAllocate times one SLAQ round in the sweep's shape: 60
// generated apps part-way through training on the sim cluster, offered the
// whole cluster.
func BenchmarkSLAQAllocate(b *testing.B) {
	cfg := workload.DefaultGeneratorConfig()
	cfg.NumApps = 60
	apps, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	topo := cluster.SimulationCluster()
	view := &sim.View{Topo: topo}
	for _, app := range apps {
		for _, j := range app.Jobs {
			j.DoneWork = 0.3 * j.TotalWork
		}
		view.Apps = append(view.Apps, &sim.AppState{App: app, Held: cluster.NewAlloc()})
	}
	free := cluster.NewState(topo).FreeVector()
	s := NewSLAQ()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Allocate(0, free, view); err != nil {
			b.Fatal(err)
		}
	}
}
