// Package telemetry is the serving stack's runtime instrumentation: a
// dependency-free metrics registry (atomic counters, gauges and fixed-bucket
// histograms exposed in Prometheus text exposition format v0.0.4), a
// per-round structured trace ring buffer, and the HTTP surface every daemon
// mounts (/metrics, /healthz, /debug/rounds, and an opt-in pprof debug mux).
//
// It answers a different question than package metrics: internal/metrics
// computes the PAPER'S EVALUATION metrics (§8.1 finish-time fairness, Jain's
// index, JCT distributions) from a completed simulation Result, offline;
// this package measures the RUNNING SYSTEM — auction-round phase latencies,
// RPC error rates, cluster occupancy — online, with a record path cheap enough
// to live inside the zero-allocation auction round. Use metrics to reproduce a figure; use telemetry to find out why
// last night's round took 80 ms.
//
// # Record-path memory model
//
// Every metric is a preallocated handle obtained from a Registry at
// construction time (get-or-create, so re-registering a name returns the
// same handle). Recording is a single atomic RMW — Counter.Add and
// Gauge.Set/Add are one atomic instruction; Histogram.Observe is one atomic
// bucket increment, one atomic count increment and a CAS loop folding the
// value into the float sum — so the record path performs zero allocations
// and takes no locks, and may be called from the auction hot paths pinned by
// TestBidValuationBatchZeroAlloc and TestEventCoreZeroAlloc without breaking
// their 0 allocs/op contract (TestTelemetryRecordZeroAlloc pins this
// package's own contract). Registration, exposition and trace-ring snapshots
// allocate freely: they run at construction time or on the debug surface,
// never inside a round.
//
// Histogram buckets are fixed at registration — no dynamic resizing, no
// per-observation bucket math beyond a short linear scan — because a
// histogram that reshapes itself under load would need a lock exactly where
// we refuse to take one. Pick bounds from the expected range (DurationBuckets
// suits auction rounds: 10µs–10s, log-spaced).
package telemetry
