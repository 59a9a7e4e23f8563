// Command bench is the repo's end-to-end benchmark: four named workloads
// driven through the public entry points (themis.NewSimulation/Run/RunSweep,
// daemon.NewArbiterServer/NewShardedArbiter/NewAgentServer and the rpc
// clients), each reporting the end-to-end metrics a user would see and, in a
// separate traced run, a per-layer ladder measured from outside by wrapping
// the layer boundaries the code already exposes. README.md has the glossary;
// BENCHMARK.json at the repo root is the driver's copy of the metric tables.
//
// The driver runs one workload per process:
//
//	bash bench/run.sh --workload replay-contended --seed 1 --seconds 20 --trace 0
//
// and reads the last line of standard output, one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"themis/internal/telemetry"
)

// opResult is one operation's outcome: the wall time the user waited (checks
// excluded), the apps it served, and any correctness check that failed.
type opResult struct {
	wall  time.Duration
	apps  int
	fails []string
}

// instance is one set-up workload. begin is called after warm-up; op runs one
// operation and its checks; layers fills the per-layer metrics after a traced
// section (and may report further check failures); close releases listeners.
type instance interface {
	begin()
	op(parent int64) opResult
	layers(m *metricSet, ops int) []string
	close()
}

// workloadDef names a workload. setup builds its inputs from the seed alone —
// the program under test receives only the generated inputs — and returns the
// input digest; tr is nil for untraced runs.
type workloadDef struct {
	name string
	why  string
	// rounds marks the serving workloads, whose operation is one auction
	// round: they warm up for sizes.warmRounds rounds and time at least
	// sizes.minRounds. A replay or sweep is timed from its first operation,
	// as its users pay for it.
	rounds bool
	setup  func(seed int64, sz sizes, out string, tr *tracer) (instance, string, error)
}

func (d workloadDef) warmup(sz sizes) int {
	if d.rounds {
		return sz.warmRounds
	}
	return 0
}

func (d workloadDef) minOps(sz sizes) int {
	if d.rounds {
		return sz.minRounds
	}
	return 1
}

var workloads = []workloadDef{
	{
		name:  "replay-contended",
		why:   "Themis replays of contended traces (~20 bidders per auction): bid valuation and many small warm solves do the work, the event core little",
		setup: setupReplay,
	},
	{
		name:  "sweep-grid",
		why:   "RunSweep over 4 policies x flat/fabric clusters x seeds at contention 2: 1-2 bidders per auction, so the event core, baselines, packer and worker pool do the work",
		setup: setupSweep,
	},
	{
		name:   "serve-loopback",
		why:    "full-reclaim rounds of one ArbiterServer over real loopback HTTP agents: sequential per-agent RPCs and the JSON codec dominate, solve is small",
		rounds: true,
		setup:  setupLoopback,
	},
	{
		name:   "serve-sharded",
		why:    "full-reclaim rounds of an 8-shard arbiter over 20k synthetic bidders: few huge cold solves with hidden payments, plus partitioning and reconcile",
		rounds: true,
		setup:  setupSharded,
	},
}

// sizes fixes the workloads' input sizes; "full" is what BENCHMARK.json
// measures, "tiny" is the smoke test's.
type sizes struct {
	setupReps int // set-ups per run; setup_s is their median

	replayTraces     int
	replayApps       int
	replayContention float64

	sweepSeeds int
	sweepApps  int

	loopbackAgents int

	shards         int
	shardMachines  int
	shardBidders   int
	shardDemanding int

	warmRounds int
	minRounds  int
}

var scales = map[string]sizes{
	"full": {
		setupReps:    15,
		replayTraces: 6, replayApps: 160, replayContention: 64,
		sweepSeeds: 6, sweepApps: 60,
		loopbackAgents: 250,
		shards:         8, shardMachines: 160, shardBidders: 20000, shardDemanding: 1000,
		warmRounds: 5, minRounds: 20,
	},
	"tiny": {
		setupReps:    2,
		replayTraces: 2, replayApps: 20, replayContention: 16,
		sweepSeeds: 1, sweepApps: 10,
		loopbackAgents: 12,
		shards:         4, shardMachines: 16, shardBidders: 400, shardDemanding: 40,
		warmRounds: 1, minRounds: 3,
	},
}

// runResult is one run of one workload, in the driver's output shape plus
// what the human-readable report prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload string
	seed     int64
	digest   string
	ops      int
	defs     []metricDef
	fails    []string
	sums     []sumCheck
}

// section is one timed stretch of operations.
type section struct {
	walls   []float64 // seconds per operation
	apps    int
	mallocs uint64
	bytes   uint64
}

// timed runs operations until `limit` of operation time has been spent and at
// least minOps have run; when traced, each operation is a span under root.
// Allocation counters are read around each operation,
// so the checks between operations are not charged to it.
func timed(in instance, tr *tracer, root int64, res *runResult, limit time.Duration, minOps int) section {
	var sec section
	var spent time.Duration
	var m0, m1 runtime.MemStats
	for spent < limit || len(sec.walls) < minOps {
		var id int64
		start := time.Now()
		if tr != nil {
			id = tr.newID()
		}
		runtime.ReadMemStats(&m0)
		r := in.op(id)
		runtime.ReadMemStats(&m1)
		if tr != nil {
			tr.record(id, root, "op", start, start.Add(r.wall))
		}
		res.count(r.fails)
		spent += r.wall
		sec.walls = append(sec.walls, r.wall.Seconds())
		sec.apps += r.apps
		sec.mallocs += m1.Mallocs - m0.Mallocs
		sec.bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return sec
}

func (s section) total() float64 {
	var t float64
	for _, w := range s.walls {
		t += w
	}
	return t
}

// count books one operation (or one post-run analysis) and its failures.
func (r *runResult) count(fails []string) {
	r.Attempted++
	if len(fails) > 0 {
		r.Failed++
		r.fails = append(r.fails, fails...)
	}
}

func warm(def workloadDef, in instance, sz sizes, res *runResult) {
	for i := 0; i < def.warmup(sz); i++ {
		res.count(in.op(0).fails)
	}
	in.begin()
}

// runUntraced measures the end-to-end metrics: the set-up several times over
// (setup_s is the median), then the timed section with no wrapper installed.
func runUntraced(def workloadDef, seed int64, sz sizes, out string, limit time.Duration) (*runResult, error) {
	res := &runResult{workload: def.name, seed: seed, defs: endToEnd}
	var in instance
	var setups []float64
	for i := 0; i < sz.setupReps; i++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		next, digest, err := def.setup(seed, sz, out, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		in, res.digest = next, digest
	}
	defer in.close()
	warm(def, in, sz, res)
	sec := timed(in, nil, 0, res, limit, def.minOps(sz))

	// Live heap with the system under test, and what its last operation
	// returned, still referenced.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(in)

	m := newMetricSet(endToEnd)
	ops := float64(len(sec.walls))
	m.set("setup_s", median(setups))
	m.set("op_p50_ms", median(sec.walls)*1e3)
	m.set("apps_per_s", float64(sec.apps)/sec.total())
	m.set("allocs_per_op", float64(sec.mallocs)/ops)
	m.set("bytes_per_op", float64(sec.bytes)/ops)
	m.set("live_heap_mb", float64(ms.HeapAlloc)/(1<<20))
	res.ops = len(sec.walls)
	res.Metrics = m.export()
	res.Correct = res.Failed == 0
	return res, nil
}

// runTraced produces the per-layer ladder: a short untraced reference
// section, then the same workload set up again with the wrappers installed.
// The difference between the two median operation times is the tracing
// overhead; end-to-end metrics never come from here.
func runTraced(def workloadDef, seed int64, sz sizes, out string, limit time.Duration) (*runResult, error) {
	res := &runResult{workload: def.name, seed: seed, defs: perLayer}
	ref, _, err := def.setup(seed, sz, out, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	warm(def, ref, sz, res)
	refSec := timed(ref, nil, 0, res, limit/3, def.minOps(sz))
	ref.close()

	tr := newTracer(def.name)
	in, digest, err := def.setup(seed, sz, out, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", def.name, err)
	}
	defer in.close()
	res.digest = digest
	warm(def, in, sz, res)
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	runID, runStart := tr.newID(), time.Now()
	sec := timed(in, tr, runID, res, limit-limit/3, def.minOps(sz))
	runtime.ReadMemStats(&gc1)
	tr.record(runID, 0, "run", runStart, time.Now())

	m := newMetricSet(perLayer)
	ops := len(sec.walls)
	m.set("trace.ops", float64(ops))
	m.set("trace.timed_s", sec.total())
	m.set("trace_overhead_frac", median(sec.walls)/median(refSec.walls)-1)
	m.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	m.set("runtime.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	m.set("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	m.set("telemetry.scrape_us", scrapeMicros())
	res.count(in.layers(m, ops))
	res.sums = checkSums(def.name, m)
	for _, c := range res.sums {
		if c.ok {
			res.count(nil)
		} else {
			res.count([]string{c.String()})
		}
	}
	path, err := tr.write(out)
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s\n", path)
	res.ops = ops
	res.Metrics = m.export()
	res.Correct = res.Failed == 0
	return res, nil
}

// scrapeMicros times one Prometheus rendering of the process registry.
func scrapeMicros() float64 {
	const reps = 5
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		_ = telemetry.Default().WritePrometheus(io.Discard)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / reps
}

// sumCheck is one "parts sum to the whole" assertion over the ladder.
type sumCheck struct {
	name         string
	parts, whole float64
	tolerance    float64
	ok           bool
}

func (c sumCheck) String() string {
	verdict := "ok"
	if !c.ok {
		verdict = "FAILED"
	}
	return fmt.Sprintf("sum check %s: parts %.6f vs whole %.6f (tolerance %.0f%%) %s", c.name, c.parts, c.whole, c.tolerance*100, verdict)
}

// checkSums enforces the ladder's decompositions for the blocks a workload
// exercises.
func checkSums(workload string, m *metricSet) []sumCheck {
	check := func(name string, whole float64, parts ...float64) sumCheck {
		c := sumCheck{name: name, whole: whole, tolerance: 0.05}
		for _, p := range parts {
			c.parts += p
		}
		diff := c.parts - c.whole
		if diff < 0 {
			diff = -diff
		}
		c.ok = diff <= c.tolerance*c.whole
		return c
	}
	var out []sumCheck
	if m.get("core.round_s") > 0 {
		out = append(out, check("core.probe_s+bid_s+solve_s+leftover_s = core.round_s", m.get("core.round_s"),
			m.get("core.probe_s"), m.get("core.bid_s"), m.get("core.solve_s"), m.get("core.leftover_s")))
	}
	if m.get("sim.run_s") > 0 {
		parts := []float64{m.get("sim.self_s"), m.get("pack.place_s")}
		for _, p := range sweepPolicies {
			parts = append(parts, m.get("schedulers.allocate_s."+p))
		}
		out = append(out, check("sim.self_s+schedulers.allocate_s.*+pack.place_s = sim.run_s", m.get("sim.run_s"), parts...))
	}
	if workload == "serve-loopback" {
		out = append(out,
			check("rpc.reclaim_s+core.round_s+rpc.grant_s = rpc.round_s", m.get("rpc.round_s"),
				m.get("rpc.reclaim_s"), m.get("core.round_s"), m.get("rpc.grant_s")),
			check("rpc.round_s+deliver_s+trigger_overhead_s = client-seen rounds", m.get("trace.timed_s"),
				m.get("rpc.round_s"), m.get("rpc.deliver_s"), m.get("rpc.trigger_overhead_s")))
	}
	return out
}

// print writes the human-readable report and, as the last line, the driver's
// JSON object.
func (r *runResult) print() {
	fmt.Printf("workload %s seed %d input_digest %s GOMAXPROCS %d ops %d attempted %d failed %d ops_failed_ratio %g\n",
		r.workload, r.seed, r.digest, runtime.GOMAXPROCS(0), r.ops, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, d := range r.defs {
		fmt.Printf("  %-34s %18.6f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, c := range r.sums {
		fmt.Printf("  %s\n", c)
	}
	for i, f := range r.fails {
		if i == 10 {
			fmt.Printf("  ... %d more failures\n", len(r.fails)-i)
			break
		}
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
}

func findWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return []workloadDef{w}, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have: all, %s)", name, strings.Join(names, ", "))
}

// repeatStat is one metric's spread over the -repeat runs.
type repeatStat struct {
	Workload   string    `json:"workload"`
	Metric     string    `json:"metric"`
	Unit       string    `json:"unit"`
	Values     []float64 `json:"values"`
	Q1         float64   `json:"q1"`
	Median     float64   `json:"median"`
	Q3         float64   `json:"q3"`
	Spread     float64   `json:"spread"` // (q3-q1)/median
	Bound      float64   `json:"bound"`
	Unresolved bool      `json:"unresolved"` // spread wider than the bound
}

// repeat runs every selected workload k times in fresh child processes —
// seeds seed, seed+1, … as the driver does — and reports each end-to-end
// metric's median, quartiles and spread against its bound.
func repeat(defs []workloadDef, k int, seed int64, secs float64, scale, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var stats []repeatStat
	failed := false
	for _, def := range defs {
		values := make(map[string][]float64)
		for i := 0; i < k; i++ {
			cmd := exec.Command(self, "-workload", def.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", "0", "-scale", scale, "-out", out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", def.name, i, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var r runResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s run %d: last line is not a result: %w", def.name, i, err)
			}
			failed = failed || !r.Correct
			for name, v := range r.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			st := repeatStat{Workload: def.name, Metric: d.Name, Unit: d.Unit, Values: values[d.Name],
				Q1: q1, Median: q2, Q3: q3, Spread: (q3 - q1) / q2, Bound: d.Bound}
			st.Unresolved = st.Spread > st.Bound
			stats = append(stats, st)
			flag := ""
			if st.Unresolved {
				flag = "  unresolved"
			}
			fmt.Printf("%-17s %-14s median %16.6f %-5s q1 %16.6f q3 %16.6f spread %.4f bound %.2f%s\n",
				def.name, d.Name, q2, d.Unit, q1, q3, st.Spread, d.Bound, flag)
		}
	}
	data, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "repeat.json"), data, 0o644); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("a repeated run failed its correctness checks")
	}
	return nil
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed; seed 2 is held out for later claims")
	secs := flag.Float64("seconds", 20, "operation time to measure per run")
	trace := flag.Int("trace", 0, "1 runs with the layer wrappers installed and reports the per-layer metrics")
	scale := flag.String("scale", "full", "input sizes: full or tiny")
	k := flag.Int("repeat", 0, "run each workload this many times on consecutive seeds and report the spread")
	out := flag.String("out", "bench/out", "directory for generated inputs, span dumps and repeat.json")
	flag.Parse()

	defs, err := findWorkloads(*workload)
	sz, ok := scales[*scale]
	if err == nil && !ok {
		err = fmt.Errorf("unknown scale %q (have: full, tiny)", *scale)
	}
	if err == nil && flag.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *k > 0 {
		if err := repeat(defs, *k, *seed, *secs, *scale, *out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	limit := time.Duration(*secs * float64(time.Second))
	failed := false
	for _, def := range defs {
		run := runUntraced
		if *trace != 0 {
			run = runTraced
		}
		res, err := run(def, *seed, sz, *out, limit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		res.print()
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}
