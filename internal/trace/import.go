package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strings"
)

// Format names an on-disk trace shape the importer pipeline understands.
type Format string

const (
	// FormatJSON is the native versioned JSON trace (Read/Write).
	FormatJSON Format = "json"
	// FormatBinary is the native v3 binary container (ReadBinary/WriteBinary):
	// the same data model as FormatJSON in a compact, streamable encoding.
	FormatBinary Format = "binary"
	// FormatPhilly is a Philly-style CSV cluster log: one row per job with
	// submit time, GPU count, duration and completion status.
	FormatPhilly Format = "philly"
	// FormatAlibaba is an Alibaba-style CSV cluster log: one row per task
	// with job name, instance count, plan_gpu, start/end times and status.
	FormatAlibaba Format = "alibaba"
	// FormatAuto sniffs the input and dispatches to one of the above.
	FormatAuto Format = "auto"
)

// Formats lists the concrete formats Import accepts (FormatAuto aside).
func Formats() []Format { return []Format{FormatJSON, FormatBinary, FormatPhilly, FormatAlibaba} }

// sniffBytes is how much of the stream format auto-detection examines.
const sniffBytes = 4096

// ImportOptions tune the CSV adapters. The zero value is usable: times are
// interpreted in each format's conventional unit, non-completed rows are
// dropped, and every app is kept. Options are validated up front (see
// Validate); invalid values fail the import with a typed OptionError instead
// of silently producing garbage timestamps.
type ImportOptions struct {
	// Name is recorded as the trace name; empty defaults to the format name.
	Name string
	// TimeScale converts input time units into scheduling minutes. It must
	// be finite and non-negative. Zero is the documented "use the format's
	// convention" sentinel — Philly-style rows are already minutes (scale
	// 1), Alibaba-style rows are Unix seconds (scale 1/60) — so an explicit
	// zero is indistinguishable from unset and selects the convention; a
	// caller that wants to stop time entirely cannot (and negative, NaN and
	// Inf scales are rejected outright).
	TimeScale float64
	// KeepNonCompleted retains rows whose status is not a completion
	// (failed/killed jobs); by default only completed work is replayed.
	KeepNonCompleted bool
	// MaxApps caps the number of imported apps, keeping the earliest by
	// submit time (ID tie-broken); zero keeps all of them, negative is
	// rejected. For the row-per-job Philly format the cap bounds importer
	// memory to O(MaxApps) via an online top-K selection. On native JSON
	// input the kept apps retain their original submit times (no rebase).
	MaxApps int
	// Model stamps every imported app with a placement profile name from
	// the catalog; empty leaves it to ToApps's generic fallback.
	Model string
	// Placement, when non-nil, stamps every imported app with a v2
	// placement block carrying the given profile and locality constraints.
	// It is validated like any decoded placement block (non-negative
	// constraints, profile resolvable in the catalog).
	Placement *PlacementSpec
	// Progress, when non-nil, receives streaming progress snapshots on the
	// importing goroutine: one about every ProgressEvery data rows and a
	// final one (Done=true) at end of input.
	Progress func(ImportProgress)
	// ProgressEvery is the data-row interval between Progress callbacks;
	// zero defaults to 100000, negative is rejected.
	ProgressEvery int64
}

// defaultProgressEvery is the Progress callback interval when unset.
const defaultProgressEvery = 100_000

// Validate rejects option values the importers cannot honour, with a typed
// OptionError naming the offending field. It is called by every import entry
// point, so a bad TimeScale fails fast instead of surfacing as nonsense
// submit times deep in a replay.
func (o ImportOptions) Validate() error {
	if math.IsNaN(o.TimeScale) || math.IsInf(o.TimeScale, 0) {
		return &OptionError{Option: "TimeScale", Value: fmt.Sprint(o.TimeScale), Reason: "must be finite"}
	}
	if o.TimeScale < 0 {
		return &OptionError{Option: "TimeScale", Value: fmt.Sprint(o.TimeScale), Reason: "must be non-negative (0 selects the format's convention)"}
	}
	if o.MaxApps < 0 {
		return &OptionError{Option: "MaxApps", Value: fmt.Sprint(o.MaxApps), Reason: "must be non-negative (0 keeps all apps)"}
	}
	if o.ProgressEvery < 0 {
		return &OptionError{Option: "ProgressEvery", Value: fmt.Sprint(o.ProgressEvery), Reason: "must be non-negative (0 uses the default interval)"}
	}
	if p := o.Placement; p != nil {
		probe := AppSpec{ID: "(options)", Placement: p}
		if err := probe.validatePlacement(FormatVersion); err != nil {
			return &OptionError{Option: "Placement", Value: fmt.Sprintf("%+v", *p), Reason: err.Error()}
		}
	}
	return nil
}

// Import reads a trace in the named format and normalises it into the native
// Trace form, validated and ready for ToApps. FormatAuto sniffs the stream.
// The CSV adapters run as a single streaming pass (see ImportPhilly and
// ImportAlibaba for their memory models), reporting progress through
// opts.Progress when set.
func Import(r io.Reader, f Format, opts ImportOptions) (Trace, error) {
	if err := opts.Validate(); err != nil {
		return Trace{}, err
	}
	if f == FormatAuto {
		br := bufio.NewReaderSize(r, sniffBytes)
		head, err := br.Peek(sniffBytes)
		if err != nil && err != io.EOF {
			// A reader that fails mid-sniff is an I/O error, not a format
			// mismatch: surface it instead of letting DetectFormat misreport
			// the truncated head as an unknown format.
			return Trace{}, fmt.Errorf("trace: sniffing format: %w", err)
		}
		detected, err := DetectFormat(head)
		if err != nil {
			return Trace{}, err
		}
		f, r = detected, br
	}
	switch f {
	case FormatJSON:
		return importNative(r, opts, Read, FormatJSON)
	case FormatBinary:
		return importNative(r, opts, ReadBinary, FormatBinary)
	case FormatPhilly:
		return ImportPhilly(r, opts)
	case FormatAlibaba:
		return ImportAlibaba(r, opts)
	default:
		return Trace{}, fmt.Errorf("trace: unknown import format %q (want %v or %q)", f, Formats(), FormatAuto)
	}
}

// DetectFormat sniffs the leading bytes of a trace file: the binary
// container announces itself with a magic prefix, native JSON starts with a
// JSON value, and the CSV dialects are told apart by their header columns
// (plan_gpu/job_name for Alibaba-style, jobid/submit for Philly-style).
func DetectFormat(head []byte) (Format, error) {
	if bytes.HasPrefix(head, []byte(binaryMagic)) {
		return FormatBinary, nil
	}
	trimmed := bytes.TrimLeft(head, " \t\r\n")
	if len(trimmed) > 0 && (trimmed[0] == '{' || trimmed[0] == '[') {
		return FormatJSON, nil
	}
	line := trimmed
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	header := strings.ToLower(string(line))
	switch {
	case strings.Contains(header, "plan_gpu") || strings.Contains(header, "job_name"):
		return FormatAlibaba, nil
	case strings.Contains(header, "jobid") || strings.Contains(header, "job_id") ||
		(strings.Contains(header, "submit") && strings.Contains(header, "gpu")):
		return FormatPhilly, nil
	}
	return "", fmt.Errorf("trace: cannot detect trace format from header %q", header)
}

// columnIndex resolves the first matching alias in a lowercased CSV header,
// or -1 when absent.
func columnIndex(header []string, aliases ...string) int {
	for i, col := range header {
		col = strings.TrimSpace(strings.ToLower(col))
		for _, a := range aliases {
			if col == a {
				return i
			}
		}
	}
	return -1
}

// completedStatus reports whether a status cell denotes successfully
// completed work. The pass sets cover both dialects; an absent status column
// counts as completed.
func completedStatus(s string) bool {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "pass", "passed", "completed", "complete", "success", "succeeded", "terminated", "finished":
		return true
	}
	return false
}

// isFinite rejects the NaN/±Inf values hostile CSV cells can smuggle in:
// they would poison work accounting and are unencodable as JSON.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// deriveSeed hashes an imported ID into a stable job seed, and deriveQuality
// into a stable [0,1) quality, so re-imports of the same file replay
// identically without a shared RNG.
func deriveSeed(id string) int64 {
	h := fnv.New64a()
	io.WriteString(h, id)
	return int64(h.Sum64() & (1<<62 - 1))
}

func deriveQuality(id string) float64 {
	return float64(deriveSeed(id)%1_000_000) / 1_000_000
}

// importNative adapts a native decoder (Read or ReadBinary) to the importer
// contract, so the options a caller hands Import apply uniformly across
// formats instead of being silently ignored on native input: Name, Model and
// Placement stamp the decoded apps, MaxApps keeps the earliest by (submit
// time, ID) — without the CSV adapters' rebase to t = 0, since a native
// trace owns its time base — and a Progress callback still receives its
// final Done snapshot (Rows counts decoded app entries; native traces have
// no data rows). The two encodings import identically apart from the Format
// in that snapshot.
func importNative(r io.Reader, opts ImportOptions, decode func(io.Reader) (Trace, error), f Format) (Trace, error) {
	count := &countingReader{r: r}
	tr, err := decode(count)
	if err != nil {
		return Trace{}, err
	}
	if opts.Name != "" {
		tr.Name = opts.Name
	}
	if opts.Model != "" {
		for i := range tr.Apps {
			tr.Apps[i].Model = opts.Model
		}
	}
	if opts.MaxApps > 0 && len(tr.Apps) > opts.MaxApps {
		sort.SliceStable(tr.Apps, func(i, j int) bool { return appLess(&tr.Apps[i], &tr.Apps[j]) })
		tr.Apps = tr.Apps[:opts.MaxApps]
	}
	stampPlacement(&tr, opts.Placement)
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	if opts.Progress != nil {
		n := int64(len(tr.Apps))
		opts.Progress(ImportProgress{Format: f, Rows: n, Kept: n, Bytes: count.n, Done: true})
	}
	return tr, nil
}

// stampPlacement attaches a copy of the options' placement block to every
// imported app. Each app gets its own copy so later mutation of one spec
// (constraint stripping in studies, tests) cannot alias the others.
func stampPlacement(tr *Trace, p *PlacementSpec) {
	if p == nil {
		return
	}
	for i := range tr.Apps {
		block := *p
		tr.Apps[i].Placement = &block
	}
}
