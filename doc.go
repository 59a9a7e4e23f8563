// Package themis is a from-scratch Go reproduction of "Themis: Fair and
// Efficient GPU Cluster Scheduling for Machine Learning Workloads"
// (Mahajan et al., NSDI 2020), exposed behind a stable public API.
//
// This root package is the facade: it assembles simulations with functional
// options and runs them under the paper's schedulers,
//
//	s, err := themis.NewSimulation(
//		themis.WithCluster(themis.ClusterTestbed),
//		themis.WithWorkload(themis.DefaultWorkloadSpec()),
//		themis.WithPolicy("themis"),
//		themis.WithFairnessKnob(0.8),
//	)
//	if err != nil { ... }
//	report, err := s.Run(ctx)
//
// returning a typed Report (fairness, JCT, GPU time, per-app records,
// auction telemetry). The paper's policies are built in by name —
// Policy("themis"|"gandiva"|"tiresias"|"slaq"|"resource-fair"|"strawman") —
// and a policy of one's own runs through WithPolicyInstance.
// Misconfiguration surfaces as errors at construction time, and Run honors
// context cancellation.
//
// Parameter studies — many policies, seeds and workloads, as in the paper's
// §8 sweeps — run through RunSweep, which fans a grid of SweepSpecs (each a
// NewSimulation option list) across a bounded worker pool:
//
//	results, err := themis.RunSweep(ctx, 0, []themis.SweepSpec{
//		{Name: "themis", Options: []themis.Option{themis.WithPolicy("themis"), themis.WithWorkload(spec)}},
//		{Name: "tiresias", Options: []themis.Option{themis.WithPolicy("tiresias"), themis.WithWorkload(spec)}},
//	})
//
// Results align with the specs regardless of worker count, each run
// constructs its simulation inside its own worker, and the first failure
// cancels the rest. The sweep engine also powers themis/experiments: every
// figure table fans its {parameter, seed, scheme} grid across
// Options.Workers goroutines with results identical to a sequential run.
// The Grid type expands a Policies × Clusters × Scenarios × Seeds cross
// product into sweep specs declaratively.
//
// Workloads come from a built-in scenario library:
// GenerateScenario("paper-mix"|"diurnal"|"heavy-tailed"|"bursty"|
// "mixed-gangs", params...) materialises a scenario and WithScenario feeds
// one to a simulation. Any other ScenarioConfig composition of arrival
// pattern × job-size law × gang mix generates through ComposeWorkload, with
// ScenarioParams.Apply setting its runtime knobs, and runs through WithApps.
// Real cluster logs normalise into replayable
// traces through ImportTrace: Philly-style and Alibaba-style CSV adapters
// plus format auto-detection, validated by the same typed-error contract as
// native traces (see internal/trace). The adapters stream — one bounded
// pass with an online top-K selection under ImportOptions.MaxApps, so
// multi-GB logs import without materialising their rows — and
// ImportTraceStream adds progress callbacks for long imports.
//
// Traces use format v2: an optional per-app PlacementSpec block carries the
// placement-sensitivity profile name and locality constraints (per-machine
// GPU floor, machine-spread cap, fabric-domain and GPU-flavor affinities)
// on the wire, and ToApps threads them into the simulator's placement
// scoring, so a constrained trace replays with locality-sensitive
// scheduling anywhere. v1 traces load unchanged (lossless upgrade-on-read).
//
// Clusters are hierarchical and built in by name like policies: Cluster
// builds "sim", "testbed", or the three-fabric-domain "sim-fabric", and
// TopologySpec.Build constructs any other from a declarative spec — regions
// of named fabric domains of racks of machine groups, the names resolving
// trace placement blocks and job affinities (a name another domain already
// answers to is rejected) — for WithTopology. The Topology itself is the hierarchy view: every machine knows
// its rack and domain, and DomainByName resolves names. Placement values
// the hierarchy (slot / machine / rack / domain / cross-domain locality),
// and WithPacker routes every policy grant through a registered placement
// engine — the built-in "pack-to-empty" packs gangs machine- and
// domain-local, spilling across domains by free capacity — while
// Report.Fragmentation summarises, time-weighted, how the free pool
// fragmented across the hierarchy during the run.
//
// The calibration subsystem closes the loop between real traces and
// synthetic scenarios: FitTrace learns a full ScenarioConfig from an
// observed workload — arrival-process fitting (Poisson rate, diurnal day
// shape, bursty spikes), job-size law selection (lognormal vs Pareto by AIC,
// KS distances reported) and gang-population estimation — returning a
// FitReport with goodness-of-fit evidence and provenance. Its Config is a
// composition like any other: ComposeWorkload generates the fitted twin.
// cmd/tracegen is the CLI workbench for all of this
// (generate/list/import/fit/validate/describe), and cmd/themis-sim replays
// traces (-trace/-trace-format), built-in scenarios (-scenario) and fit
// reports (-scenario fitted.json) directly.
//
// The companion public packages are themis/experiments (one table per
// figure of the paper's evaluation) and themis/daemon (the distributed
// Arbiter/Agent HTTP services). The implementation lives under internal/ —
// see DESIGN.md for the module map and the public-API layering.
//
// The benchmarks in this root package regenerate every table and figure of
// the paper's evaluation; run them with
//
//	go test -bench=. -benchmem
//
// and run `go run ./cmd/expdriver -fig scorecard` for the paper's claims
// checked against the measured figures.
package themis
