package themis

import (
	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/metrics"
	"themis/internal/placement"
	"themis/internal/sim"
	"themis/internal/topology"
	"themis/internal/trace"
	"themis/internal/workload"
)

// The themis package is a facade: the implementation lives under internal/
// (see DESIGN.md for the module map) and the names below re-export the data
// types that cross the public API boundary. Aliasing rather than wrapping
// keeps the facade zero-cost — a *themis.Topology IS a cluster topology, a
// Report's AppRecord IS the simulator's record — while keeping the internal
// packages free to evolve behind it.
type (
	// Topology is an immutable description of a GPU cluster: machines with
	// GPU counts and slot sizes, grouped into racks.
	Topology = cluster.Topology
	// ClusterConfig declaratively describes a topology to build; call its
	// Build method to obtain a *Topology.
	ClusterConfig = cluster.Config
	// MachineSpec is one homogeneous group of machines in a ClusterConfig.
	MachineSpec = cluster.MachineSpec
	// GPUType names a GPU model in a MachineSpec.
	GPUType = cluster.GPUType
	// Alloc is a set of GPUs, keyed by machine, as granted to an app.
	Alloc = cluster.Alloc

	// TopologySpec declares a hierarchical cluster — regions of named
	// fabric domains of racks of machine groups. Its Build method assigns
	// machine, rack and domain IDs densely in declaration order and returns
	// the *Topology; domain names in the spec are what trace placement
	// blocks and job domain affinities resolve against, so a name another
	// domain already answers to ("domain-<id>" included) is an error.
	TopologySpec = topology.Spec
	// RegionSpec is one region of a TopologySpec.
	RegionSpec = topology.RegionSpec
	// DomainSpec is one fabric domain (pod) of a RegionSpec.
	DomainSpec = topology.DomainSpec
	// RackSpec is one rack of a DomainSpec.
	RackSpec = topology.RackSpec
	// MachineGroup is one homogeneous run of machines in a RackSpec.
	MachineGroup = topology.MachineGroup

	// App is one ML application: a hyperparameter exploration of one or more
	// gang-scheduled jobs (trials) sharing a placement-sensitivity profile.
	App = workload.App
	// Job is a single trial of an App.
	Job = workload.Job
	// AppID identifies an App.
	AppID = workload.AppID
	// JobID identifies a Job.
	JobID = workload.JobID
	// Profile is a model family's placement-sensitivity profile (how much
	// throughput it loses when its gang is spread across machines or racks).
	Profile = placement.Profile
	// WorkloadSpec parameterises the synthetic workload generator whose
	// distributions match the enterprise trace the paper replays.
	WorkloadSpec = workload.GeneratorConfig
	// WorkloadStats summarises a generated workload's distributions.
	WorkloadStats = workload.Stats
	// ScenarioConfig composes a synthetic scenario: the base generator
	// distributions plus pluggable arrival, job-size and gang-size models.
	// Feed one to ComposeWorkload.
	ScenarioConfig = workload.ScenarioConfig
	// ArrivalPattern names a scenario's app arrival process.
	ArrivalPattern = workload.ArrivalPattern
	// SizePattern names a scenario's job-duration law.
	SizePattern = workload.SizePattern
	// GangMix is one weighted entry of a scenario's gang-size population.
	GangMix = workload.GangMix
	// Trace is the serialisable form of a workload, loadable across runs.
	Trace = trace.Trace
	// TraceFormat names an on-disk trace shape ImportTrace understands.
	TraceFormat = trace.Format
	// ImportOptions tune the external-trace importers (time scale, status
	// filtering, app cap, model/placement stamping, progress reporting).
	// Invalid values (negative or non-finite TimeScale, negative MaxApps)
	// fail the import with a typed error.
	ImportOptions = trace.ImportOptions
	// ImportProgress is one streaming-import progress snapshot (rows and
	// bytes consumed, apps retained), delivered to the ImportTraceStream
	// callback.
	ImportProgress = trace.ImportProgress
	// TraceLoadInfo is the wire-level metadata LoadTraceWithInfo reports:
	// the on-disk encoding and the pre-upgrade format version.
	TraceLoadInfo = trace.LoadInfo
	// PlacementSpec is the trace v2 per-app placement block: the
	// placement-sensitivity profile name plus the per-machine GPU floor and
	// machine-spread cap the app's jobs default to. Attach one to an
	// AppSpec (or stamp imports via ImportOptions.Placement) to carry
	// locality constraints on the wire.
	PlacementSpec = trace.PlacementSpec
	// AppSpec is one application entry of a Trace.
	AppSpec = trace.AppSpec
	// JobSpec is one trial entry of an AppSpec.
	JobSpec = trace.JobSpec

	// SchedulerPolicy is the cross-app scheduling discipline the simulator
	// invokes at every decision point. Use Policy to construct a built-in
	// implementation by name, or implement it directly — Allocate receives
	// the free GPUs as an Alloc and the cluster/app snapshot as a *View —
	// and plug it in with WithPolicyInstance.
	SchedulerPolicy = sim.Policy
	// View is the policy-facing snapshot a SchedulerPolicy allocates
	// against: the topology, cluster occupancy and every active app's state.
	View = sim.View
	// AppState is one active app's scheduling state inside a View: the app,
	// its tuner, its current allocation and its unmet demand.
	AppState = sim.AppState
	// Tuner is the app-level hyperparameter scheduler (HyperBand etc.) that
	// kills and promotes an app's trials.
	Tuner = hyperparam.Tuner
	// Packer re-materialises policy grants onto concrete GPUs: the policy
	// decides how many GPUs each app gets, the Packer decides which. Select
	// a registered one with WithPacker, or register your own via
	// RegisterPacker.
	Packer = sim.Packer
	// Failure injects a machine failure into a simulation run.
	Failure = sim.Failure

	// Summary is the headline metrics of one run (fairness, JCT, GPU time).
	Summary = metrics.Summary
	// AppRecord is the per-app outcome of a run.
	AppRecord = sim.AppRecord
	// AllocationEvent is one point of an app's GPU-allocation timeline.
	AllocationEvent = sim.AllocationEvent
	// FragStats is a run's time-weighted free-pool fragmentation summary
	// (mean free GPUs, largest free blocks per hierarchy level, and the
	// fragmentation score), surfaced as Report.Fragmentation.
	FragStats = sim.FragStats
	// AuctionStats is the Themis arbiter's auction telemetry (§8.3.2).
	AuctionStats = core.ArbiterStats
)

// GPU models used by the built-in cluster topologies.
const (
	GPUTypeK80  = cluster.GPUTypeK80
	GPUTypeM60  = cluster.GPUTypeM60
	GPUTypeP100 = cluster.GPUTypeP100
	GPUTypeV100 = cluster.GPUTypeV100
)

// Arrival processes a ScenarioConfig can compose.
const (
	ArrivalPoisson = workload.ArrivalPoisson
	ArrivalDiurnal = workload.ArrivalDiurnal
	ArrivalBursty  = workload.ArrivalBursty
)

// Job-duration laws a ScenarioConfig can compose.
const (
	SizeLognormal = workload.SizeLognormal
	SizePareto    = workload.SizePareto
)

// Trace formats ImportTrace accepts; TraceFormatAuto sniffs the input.
// TraceFormatBinary is the compact v3 container SaveTraceBinary writes.
const (
	TraceFormatJSON    = trace.FormatJSON
	TraceFormatBinary  = trace.FormatBinary
	TraceFormatPhilly  = trace.FormatPhilly
	TraceFormatAlibaba = trace.FormatAlibaba
	TraceFormatAuto    = trace.FormatAuto
)

// TraceFormatVersion is the current native trace format version (v2: the
// per-app placement block and per-job machine-spread constraint). v1 traces
// upgrade losslessly on read.
const TraceFormatVersion = trace.FormatVersion

// NotFinished marks an app or job that did not complete within a run's
// horizon (AppRecord.FinishTime and CompletionTime use it).
const NotFinished = workload.NotFinished
