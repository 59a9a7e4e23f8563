package themis

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"themis/internal/placement"
	"themis/internal/trace"
	"themis/internal/workload"
)

// DefaultWorkloadSpec returns the generator parameters matching the
// enterprise trace the paper replays (§8.1): lognormal trials-per-app with
// median 23, mostly 4-GPU gangs, Poisson arrivals every 20 minutes, 40% of
// apps network-intensive.
func DefaultWorkloadSpec() WorkloadSpec { return workload.DefaultGeneratorConfig() }

// GenerateWorkload synthesises a workload from the spec. Zero-valued fields
// whose zero value would be invalid (counts, durations, scales) are filled
// from DefaultWorkloadSpec, so callers only set what they sweep; fraction
// fields keep their zero value because zero is meaningful there — start from
// DefaultWorkloadSpec to get the paper's 40% network-intensive mix.
func GenerateWorkload(spec WorkloadSpec) ([]*App, error) {
	return workload.Generate(spec.WithDefaults())
}

// SummarizeWorkload computes distribution statistics over a workload.
func SummarizeWorkload(apps []*App) WorkloadStats { return workload.Summarize(apps) }

// Model returns the placement-sensitivity profile of a model family by name
// (e.g. "VGG16", "ResNet50").
func Model(name string) (Profile, error) {
	p, ok := placement.ByName(name)
	if !ok {
		return Profile{}, fmt.Errorf("themis: unknown model %q (catalog: %s)", name, strings.Join(ModelNames(), ", "))
	}
	return p, nil
}

// ModelNames lists the model families in the placement catalog.
func ModelNames() []string {
	var names []string
	for _, p := range placement.Catalog() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// NewJob creates one trial of an app: serialWork GPU-minutes of training on
// a gang of gangSize GPUs.
func NewJob(app AppID, index int, serialWork float64, gangSize int) *Job {
	return workload.NewJob(app, index, serialWork, gangSize)
}

// NewApp creates an app from its trials and validates it.
func NewApp(id AppID, submitTime float64, profile Profile, jobs []*Job) (*App, error) {
	app := workload.NewApp(id, submitTime, profile, jobs)
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("themis: invalid app %s: %w", id, err)
	}
	return app, nil
}

// NewTrace captures a workload as a serialisable trace.
func NewTrace(name string, apps []*App) Trace { return trace.FromApps(name, apps) }

// LoadTrace reads a trace from a file written by SaveTrace or Trace.Write.
func LoadTrace(path string) (Trace, error) { return trace.Load(path) }

// SaveTrace writes a trace to a file.
func SaveTrace(path string, tr Trace) error { return trace.Save(path, tr) }

// SaveTraceBinary writes a trace to a file in the compact binary container
// (format v3): an interned string table plus delta-encoded varint app
// records. The encoding is lossless — LoadTrace on the result produces the
// same apps, byte for byte, as the JSON form — and typically several times
// smaller and faster to decode. LoadTrace auto-detects it.
func SaveTraceBinary(path string, tr Trace) error { return trace.SaveBinary(path, tr) }

// WriteTraceBinary encodes a trace into the binary container on a stream.
func WriteTraceBinary(w io.Writer, tr Trace) error { return tr.WriteBinary(w) }

// LoadTraceWithInfo is LoadTrace plus wire-level metadata: which encoding the
// file used (TraceFormatJSON or TraceFormatBinary) and the format version it
// declared on disk before any in-memory upgrade — the value `tracegen
// validate` reports.
func LoadTraceWithInfo(path string) (Trace, TraceLoadInfo, error) { return trace.LoadWithInfo(path) }

// ImportTrace normalises an external cluster trace into the native Trace
// form: TraceFormatPhilly reads Philly-style CSV job logs (jobid, submit
// time, GPUs, duration, status), TraceFormatAlibaba reads Alibaba-style CSV
// task logs (job_name, inst_num, plan_gpu, start/end, status), and
// TraceFormatAuto sniffs the input. The result validates like any native
// trace and replays through WithTrace.
//
// The CSV adapters stream: rows are parsed one at a time and, for the
// row-per-job Philly format, an online top-K selection keeps importer memory
// at O(ImportOptions.MaxApps) regardless of input size — a multi-GB cluster
// log imports without materialising its rows. Use ImportTraceStream to
// observe progress.
func ImportTrace(r io.Reader, format TraceFormat, opts ImportOptions) (Trace, error) {
	return trace.Import(r, format, opts)
}

// ImportTraceStream is ImportTrace with progress reporting for long-running
// streaming imports: onProgress (when non-nil) receives a snapshot of rows,
// bytes and retained apps about every ImportOptions.ProgressEvery rows
// (default 100000) and once at end of input, on the importing goroutine.
func ImportTraceStream(r io.Reader, format TraceFormat, opts ImportOptions, onProgress func(ImportProgress)) (Trace, error) {
	if onProgress != nil {
		opts.Progress = onProgress
	}
	return trace.Import(r, format, opts)
}

// ImportTraceFile imports an external cluster trace from a file.
func ImportTraceFile(path string, format TraceFormat, opts ImportOptions) (Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return Trace{}, fmt.Errorf("themis: %w", err)
	}
	defer f.Close()
	return trace.Import(f, format, opts)
}

// TraceFormats lists the concrete trace formats ImportTrace accepts.
func TraceFormats() []TraceFormat { return trace.Formats() }
