package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"themis"
	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/pack"
	"themis/internal/placement"
	"themis/internal/schedulers"
	"themis/internal/telemetry"
	"themis/internal/topology"
	"themis/internal/trace"
)

// sweepPolicies is the paper's comparison set (§8.1), in grid order.
var sweepPolicies = []string{"themis", "gandiva", "tiresias", "slaq"}

// subSeed derives an independent non-zero generator seed from the run seed
// (splitmix64 finaliser), so every generated input is a pure function of
// -seed while no two inputs of a run share a stream.
func subSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>1) | 1
}

func digestOf(h hash.Hash) string {
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// solverCounters reads the solver's process-global telemetry counters; deltas
// between two reads attribute solves to a section of the run.
type solverCounters struct{ exact, greedy, pairMoves uint64 }

func readSolverCounters() solverCounters {
	reg := telemetry.Default()
	return solverCounters{
		exact:     reg.Counter("themis_solver_solves_total", "", telemetry.L("mode", "exact")).Value(),
		greedy:    reg.Counter("themis_solver_solves_total", "", telemetry.L("mode", "greedy")).Value(),
		pairMoves: reg.Counter("themis_solver_pair_moves_total", "").Value(),
	}
}

func (c solverCounters) since(m *metricSet, base solverCounters, rounds float64) {
	m.set("solver.solves_exact", float64(c.exact-base.exact))
	m.set("solver.solves_greedy", float64(c.greedy-base.greedy))
	m.set("solver.pair_moves", float64(c.pairMoves-base.pairMoves))
	if rounds > 0 {
		m.set("solver.solves_per_round", float64(c.exact-base.exact+c.greedy-base.greedy)/rounds)
	}
}

// setCore reports an arbiter's cumulative auction statistics.
func setCore(m *metricSet, st core.ArbiterStats) {
	m.set("core.rounds", float64(st.Auctions))
	m.set("core.participants", float64(st.OffersMade))
	m.set("core.winners", float64(st.AuctionWinners))
	if st.OffersMade > 0 {
		m.set("core.win_ratio", float64(st.AuctionWinners)/float64(st.OffersMade))
	}
	m.set("core.gpus_offered", float64(st.GPUsAuctioned))
	m.set("core.gpus_leftover", float64(st.GPUsLeftOver))
	m.set("core.probe_s", st.ProbeTime.Seconds())
	m.set("core.bid_s", st.BidTime.Seconds())
	m.set("core.solve_s", st.SolveTime.Seconds())
	m.set("core.leftover_s", st.LeftoverTime.Seconds())
	m.set("core.round_s", st.TotalAuctionTime.Seconds())
}

func addStats(dst *core.ArbiterStats, st core.ArbiterStats) {
	dst.Auctions += st.Auctions
	dst.OffersMade += st.OffersMade
	dst.AuctionWinners += st.AuctionWinners
	dst.GPUsAuctioned += st.GPUsAuctioned
	dst.GPUsLeftOver += st.GPUsLeftOver
	dst.ProbeTime += st.ProbeTime
	dst.BidTime += st.BidTime
	dst.SolveTime += st.SolveTime
	dst.LeftoverTime += st.LeftoverTime
	dst.TotalAuctionTime += st.TotalAuctionTime
}

// statsSince returns the part of st accumulated after base was read.
func statsSince(st, base core.ArbiterStats) core.ArbiterStats {
	return core.ArbiterStats{
		Auctions:         st.Auctions - base.Auctions,
		OffersMade:       st.OffersMade - base.OffersMade,
		AuctionWinners:   st.AuctionWinners - base.AuctionWinners,
		GPUsAuctioned:    st.GPUsAuctioned - base.GPUsAuctioned,
		GPUsLeftOver:     st.GPUsLeftOver - base.GPUsLeftOver,
		ProbeTime:        st.ProbeTime - base.ProbeTime,
		BidTime:          st.BidTime - base.BidTime,
		SolveTime:        st.SolveTime - base.SolveTime,
		LeftoverTime:     st.LeftoverTime - base.LeftoverTime,
		TotalAuctionTime: st.TotalAuctionTime - base.TotalAuctionTime,
	}
}

// simTotals is what the wrappers and reports of traced simulations add up to.
type simTotals struct {
	newNs, runNs int64
	rounds       int64
	events       int64
	allocNs      map[string]int64 // by policy
	core         core.ArbiterStats
}

// newTracedPolicy builds a registry policy and wraps it for timing.
func newTracedPolicy(name string, tr *tracer, parent int64) (*timedPolicy, error) {
	inner, err := themis.Policy(name)
	if err != nil {
		return nil, err
	}
	return &timedPolicy{inner: inner, tr: tr, parent: parent}, nil
}

// run builds and runs one simulation with the policy wrapper installed,
// records its sim.new / sim.run spans under parent and folds it into the
// totals. opts carry everything but the policy; wall is NewSimulation + Run.
func (t *simTotals) run(tr *tracer, parent int64, policy string, opts []themis.Option) (rep *themis.Report, wall time.Duration, err error) {
	runID := tr.newID()
	tp, err := newTracedPolicy(policy, tr, runID)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	sim, err := themis.NewSimulation(append(opts, themis.WithPolicyInstance(tp))...)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	rep, err = sim.Run(context.Background())
	t2 := time.Now()
	if err != nil {
		return nil, t2.Sub(t0), err
	}
	tr.leaf(parent, "sim.new", t0, t1)
	tr.record(runID, parent, "sim.run", t1, t2)
	t.newNs += t1.Sub(t0).Nanoseconds()
	t.runNs += t2.Sub(t1).Nanoseconds()
	t.fold(tp, rep)
	return rep, t2.Sub(t0), nil
}

// fold adds one finished traced simulation to the totals.
func (t *simTotals) fold(p *timedPolicy, rep *themis.Report) {
	if t.allocNs == nil {
		t.allocNs = make(map[string]int64)
	}
	t.rounds += p.calls.Load()
	t.allocNs[p.Name()] += p.ns.Load()
	t.events += int64(len(rep.Timeline))
	if th, ok := p.inner.(*schedulers.Themis); ok && th.Arbiter() != nil {
		addStats(&t.core, th.Arbiter().Stats)
	}
}

// report writes the sim, schedulers and core blocks; packNs is the packer
// wrapper's time inside the same simulations.
func (t *simTotals) report(m *metricSet, packNs int64) {
	m.set("sim.new_s", seconds(t.newNs))
	m.set("sim.run_s", seconds(t.runNs))
	m.set("sim.rounds", float64(t.rounds))
	m.set("sim.timeline_events", float64(t.events))
	if t.runNs > 0 {
		m.set("sim.events_per_s", float64(t.events)/seconds(t.runNs))
	}
	var allocNs int64
	for _, name := range sweepPolicies {
		m.set("schedulers.allocate_s."+name, seconds(t.allocNs[name]))
		allocNs += t.allocNs[name]
	}
	m.set("sim.self_s", seconds(t.runNs-allocNs-packNs))
	m.set("schedulers.self_s", seconds(t.allocNs["themis"])-t.core.TotalAuctionTime.Seconds())
	setCore(m, t.core)
}

// checkReport is the correctness check of one finished simulation: every app
// ran to completion, and none finished faster than its dedicated-cluster
// ideal (ρ ≥ 1).
func checkReport(name string, rep *themis.Report) []string {
	var fails []string
	if rep.Summary.AppsFinished != rep.Summary.AppsTotal {
		fails = append(fails, fmt.Sprintf("%s: %d of %d apps finished", name, rep.Summary.AppsFinished, rep.Summary.AppsTotal))
	}
	for _, a := range rep.Apps {
		if !(a.FinishTimeFairness >= 1-1e-9) {
			fails = append(fails, fmt.Sprintf("%s: app %s has rho %v < 1", name, a.App, a.FinishTimeFairness))
			break
		}
	}
	return fails
}

// ---------------------------------------------------------------- replay --

// replayInst is the replay-contended workload: a set of v3 binary trace files
// written at set-up, each replayed under Themis (f = 0.8, 20-minute lease) on
// the 50-GPU testbed cluster at a contention factor that keeps ~20 apps
// bidding per auction. Decode, ToApps and Run are all inside the timed
// operation, as `themis-sim -trace` users pay them.
type replayInst struct {
	tr    *tracer
	paths []string
	files [][]byte
	apps  int // per operation

	// last holds the newest operation's reports — what a user is left
	// holding, so live_heap_mb prices them.
	last []*themis.Report

	totals    simTotals
	solver    solverCounters
	maxRho    float64 // mean over the set, last operation
	jainIndex float64
}

func setupReplay(seed int64, sz sizes, out string, tr *tracer) (instance, string, error) {
	dir := filepath.Join(out, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	in := &replayInst{tr: tr}
	h := sha256.New()
	for i := 0; i < sz.replayTraces; i++ {
		spec := themis.DefaultWorkloadSpec()
		spec.NumApps = sz.replayApps
		spec.ContentionFactor = sz.replayContention
		spec.Seed = subSeed(seed, 1, i)
		apps, err := themis.GenerateWorkload(spec)
		if err != nil {
			return nil, "", err
		}
		var buf bytes.Buffer
		if err := themis.WriteTraceBinary(&buf, themis.NewTrace(fmt.Sprintf("replay-%d", i), apps)); err != nil {
			return nil, "", err
		}
		path := filepath.Join(dir, fmt.Sprintf("replay-%d.thmb", i))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, "", err
		}
		h.Write(buf.Bytes())
		in.paths = append(in.paths, path)
		in.files = append(in.files, buf.Bytes())
		in.apps += len(apps)
	}
	return in, digestOf(h), nil
}

func (in *replayInst) begin() {
	in.totals = simTotals{}
	in.solver = readSolverCounters()
}

func (in *replayInst) op(parent int64) opResult {
	res := opResult{apps: in.apps}
	var maxRho, jain float64
	in.last = in.last[:0]
	for i, path := range in.paths {
		name := fmt.Sprintf("trace %d", i)
		opts := []themis.Option{themis.WithCluster(themis.ClusterTestbed), themis.WithTraceFile(path)}
		var rep *themis.Report
		var wall time.Duration
		var err error
		if in.tr != nil {
			rep, wall, err = in.totals.run(in.tr, parent, "themis", opts)
		} else {
			t0 := time.Now()
			var sim *themis.Simulation
			if sim, err = themis.NewSimulation(append(opts, themis.WithPolicy("themis"))...); err == nil {
				rep, err = sim.Run(context.Background())
			}
			wall = time.Since(t0)
		}
		res.wall += wall
		if err != nil {
			res.fails = append(res.fails, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		res.fails = append(res.fails, checkReport(name, rep)...)
		in.last = append(in.last, rep)
		maxRho += rep.Summary.MaxFairness
		jain += rep.Summary.JainsIndex
	}
	in.maxRho, in.jainIndex = maxRho/float64(len(in.paths)), jain/float64(len(in.paths))
	return res
}

func (in *replayInst) layers(m *metricSet, ops int) []string {
	in.totals.report(m, 0)
	readSolverCounters().since(m, in.solver, float64(in.totals.core.Auctions))
	m.set("sim.max_rho", in.maxRho)
	m.set("sim.jain_index", in.jainIndex)

	// Decode and ToApps called directly over the same files; scaled by the
	// operation count so they compare with the traced section's totals.
	var fails []string
	var size int
	var decode, toApps time.Duration
	var decodeAllocs uint64
	var ms0, ms1 runtime.MemStats
	for _, data := range in.files {
		size += len(data)
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		tr, err := trace.ReadBinary(bytes.NewReader(data))
		t1 := time.Now()
		runtime.ReadMemStats(&ms1)
		decodeAllocs += ms1.Mallocs - ms0.Mallocs
		if err != nil {
			fails = append(fails, fmt.Sprintf("trace.ReadBinary: %v", err))
			continue
		}
		decode += t1.Sub(t0)
		t2 := time.Now()
		if _, err := tr.ToApps(); err != nil {
			fails = append(fails, fmt.Sprintf("trace.ToApps: %v", err))
		}
		toApps += time.Since(t2)
	}
	m.set("trace.bytes", float64(size))
	m.set("trace.decode_s", decode.Seconds()*float64(ops))
	m.set("trace.toapps_s", toApps.Seconds()*float64(ops))
	m.set("trace.decode_allocs", float64(decodeAllocs))
	return fails
}

func (in *replayInst) close() {}

// ----------------------------------------------------------------- sweep --

// sweepCell is one grid cell: a policy on a cluster variant over one
// generated workload.
type sweepCell struct {
	policy string
	fabric bool // sim-fabric + pack-to-empty instead of flat sim
	spec   themis.WorkloadSpec
}

func (c sweepCell) name() string {
	variant := "flat"
	if c.fabric {
		variant = "fabric"
	}
	return fmt.Sprintf("%s/%s/seed=%d", c.policy, variant, c.spec.Seed)
}

// sweepInst is the sweep-grid workload: themis.RunSweep at GOMAXPROCS workers
// over {themis, gandiva, tiresias, slaq} × {sim flat, sim-fabric with
// pack-to-empty} × seeds at contention 2 — the figure sweep users wait for.
// Workload generation happens inside each worker, as RunSweep does it.
type sweepInst struct {
	tr       *tracer
	cells    []sweepCell
	apps     int
	packer   string     // registered packer name for fabric cells
	packs    *packStats // what the traced packer saw
	parallel []float64  // traced operation walls, seconds
	// last holds the newest sweep's results — what a user is left holding, so
	// live_heap_mb prices the reports — and is what the serial pass and the
	// fidelity readouts compare against.
	last []themis.SweepResult
}

func setupSweep(seed int64, sz sizes, out string, tr *tracer) (instance, string, error) {
	in := &sweepInst{tr: tr, packer: themis.PackerPackToEmpty}
	var specs []themis.WorkloadSpec
	h := sha256.New()
	for i := 0; i < sz.sweepSeeds; i++ {
		spec := themis.DefaultWorkloadSpec()
		spec.NumApps = sz.sweepApps
		spec.ContentionFactor = 2
		spec.Seed = subSeed(seed, 2, i)
		specs = append(specs, spec)
		// The digest covers the workloads the specs expand to, not just the
		// spec fields, so a generator change shows as a different input.
		apps, err := themis.GenerateWorkload(spec)
		if err != nil {
			return nil, "", err
		}
		if err := themis.WriteTraceBinary(h, themis.NewTrace("sweep", apps)); err != nil {
			return nil, "", err
		}
	}
	for _, policy := range sweepPolicies {
		for _, fabric := range []bool{false, true} {
			for _, spec := range specs {
				in.cells = append(in.cells, sweepCell{policy: policy, fabric: fabric, spec: spec})
				in.apps += spec.NumApps
			}
		}
	}
	if tr != nil {
		// The packer registry is keyed by name and its factories see only
		// the topology, so a traced set-up registers its own timing packer.
		in.packs = &packStats{}
		in.packer = fmt.Sprintf("bench-timed-pack-%p", in.packs)
		packs := in.packs
		err := themis.RegisterPacker(in.packer, "pack-to-empty behind the benchmark's timing wrapper",
			func(topo *themis.Topology) themis.Packer {
				return &timedPacker{inner: pack.New(topology.Lift(topo)), tr: tr, stats: packs}
			})
		if err != nil {
			return nil, "", err
		}
	}
	return in, digestOf(h), nil
}

// options returns the NewSimulation options of one cell, policy excepted.
func (in *sweepInst) options(c sweepCell) []themis.Option {
	opts := []themis.Option{themis.WithWorkload(c.spec)}
	if c.fabric {
		return append(opts, themis.WithCluster(themis.ClusterSimFabric), themis.WithPacker(in.packer))
	}
	return append(opts, themis.WithCluster(themis.ClusterSim))
}

func (in *sweepInst) begin() { in.parallel = in.parallel[:0] }

func (in *sweepInst) op(parent int64) opResult {
	res := opResult{apps: in.apps}
	// Policies are single-use, so the spec list is rebuilt per operation.
	specs := make([]themis.SweepSpec, len(in.cells))
	for i, c := range in.cells {
		policy := themis.WithPolicy(c.policy)
		if in.tr != nil {
			tp, err := newTracedPolicy(c.policy, in.tr, parent)
			if err != nil {
				res.fails = append(res.fails, err.Error())
				return res
			}
			policy = themis.WithPolicyInstance(tp)
		}
		specs[i] = themis.SweepSpec{Name: c.name(), Options: append(in.options(c), policy)}
	}
	if in.packs != nil {
		in.packs.parent.Store(parent)
	}
	t0 := time.Now()
	results, err := themis.RunSweep(context.Background(), 0, specs)
	res.wall = time.Since(t0)
	if err != nil {
		res.fails = append(res.fails, err.Error())
		return res
	}
	for _, r := range results {
		res.fails = append(res.fails, checkReport(r.Name, r.Report)...)
	}
	in.last = results
	if in.tr != nil {
		in.parallel = append(in.parallel, res.wall.Seconds())
	}
	return res
}

func (in *sweepInst) layers(m *metricSet, ops int) []string {
	var fails []string
	workers := runtime.GOMAXPROCS(0)

	// The serial pass: the same cells one at a time, which is where the sim,
	// schedulers, core, solver and pack blocks are read — their parts then
	// sum to sweep.serial_s without workers contending for the two cores.
	in.packs.ns.Store(0)
	in.packs.calls.Store(0)
	solver := readSolverCounters()
	var totals simTotals
	serialID := in.tr.newID()
	in.packs.parent.Store(serialID)
	serialStart := time.Now()
	for i, c := range in.cells {
		rep, _, err := totals.run(in.tr, serialID, c.policy, in.options(c))
		if err != nil {
			return append(fails, fmt.Sprintf("%s: %v", c.name(), err))
		}
		if i < len(in.last) {
			par := in.last[i].Report
			if !reflect.DeepEqual(par.Summary, rep.Summary) || !reflect.DeepEqual(par.Apps, rep.Apps) {
				fails = append(fails, fmt.Sprintf("%s: serial report differs from the parallel one", c.name()))
			}
		}
	}
	serialEnd := time.Now()
	in.tr.record(serialID, 0, "sweep.serial", serialStart, serialEnd)
	serial := serialEnd.Sub(serialStart).Seconds()

	totals.report(m, in.packs.ns.Load())
	readSolverCounters().since(m, solver, float64(totals.core.Auctions))
	m.set("pack.place_calls", float64(in.packs.calls.Load()))
	m.set("pack.place_s", seconds(in.packs.ns.Load()))

	parallel := median(in.parallel)
	m.set("sweep.runs", float64(len(in.cells)))
	m.set("sweep.parallel_s", parallel)
	m.set("sweep.serial_s", serial)
	if parallel > 0 {
		m.set("sweep.speedup", serial/parallel)
		m.set("sweep.worker_util", serial/(float64(workers)*parallel))
	}

	// Fidelity readouts over the flat cells of the last parallel sweep.
	type fid struct {
		rho, jain float64
		n         int
	}
	byPolicy := make(map[string]*fid)
	for i, c := range in.cells {
		if c.fabric || i >= len(in.last) {
			continue
		}
		f := byPolicy[c.policy]
		if f == nil {
			f = &fid{}
			byPolicy[c.policy] = f
		}
		f.rho += in.last[i].Report.Summary.MaxFairness
		f.jain += in.last[i].Report.Summary.JainsIndex
		f.n++
	}
	for name, f := range byPolicy {
		m.set("schedulers.max_rho."+name, f.rho/float64(f.n))
		m.set("schedulers.jain."+name, f.jain/float64(f.n))
	}
	m.set("sim.max_rho", m.get("schedulers.max_rho.themis"))
	m.set("sim.jain_index", m.get("schedulers.jain.themis"))

	// Workload generation on its own, over the cells' specs.
	t0 := time.Now()
	for _, c := range in.cells {
		if _, err := themis.GenerateWorkload(c.spec); err != nil {
			fails = append(fails, err.Error())
		}
	}
	m.set("workload.generate_s", time.Since(t0).Seconds())

	in.replayPlacement(m)
	return fails
}

// replayPlacement runs the tuples captured at the packer boundary through
// the three placement engines the repo has — the per-call baseline for
// collapsing them into one.
func (in *sweepInst) replayPlacement(m *metricSet) {
	in.packs.mu.Lock()
	tuples := in.packs.tuples
	in.packs.mu.Unlock()
	if len(tuples) == 0 {
		return
	}
	topo, err := themis.Cluster(themis.ClusterSimFabric)
	if err != nil {
		return
	}
	engine := pack.New(topology.Lift(topo))
	var picker placement.Picker
	dst := cluster.NewAlloc()
	perCall := func(f func(t placeTuple)) float64 {
		t0 := time.Now()
		for _, t := range tuples {
			f(t)
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(tuples))
	}
	m.set("placement.pick_us", perCall(func(t placeTuple) {
		placement.PickConstrained(topo, t.free, t.anchor, t.want, t.c)
	}))
	m.set("placement.pickinto_us", perCall(func(t placeTuple) {
		picker.PickInto(dst, topo, t.free, t.anchor, t.want)
	}))
	m.set("pack.place_us", perCall(func(t placeTuple) {
		engine.Place(t.free, t.anchor, t.want, t.c)
	}))
}

func (in *sweepInst) close() {}
