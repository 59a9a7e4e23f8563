// Package trace persists and replays workload traces. A Trace is the
// serialisable description of the apps submitted to a cluster — the
// stand-in for the production trace the paper replays — so experiments can
// be re-run bit-for-bit from a file instead of regenerating workloads.
//
// Two interchangeable encodings carry the same data model: the versioned
// JSON document (Read/Write) and the compact v3 binary container
// (ReadBinary/WriteBinary — interned string table, delta-encoded varint
// timestamps, and a streaming BinaryDecoder that yields apps one at a time
// at zero allocations per app in steady state). Load, Import and
// DetectFormat auto-detect the encoding; ToApps output is byte-identical
// across both.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"themis/internal/placement"
	"themis/internal/workload"
)

// FormatVersion identifies the current on-disk trace format. Writers always
// emit it; readers accept any version in SupportedVersions.
//
// Version history:
//
//	v1 — apps with per-job work/gang/parallelism fields.
//	v2 — adds the optional per-app placement block (PlacementSpec: profile
//	     name, per-machine GPU minimum, machine-spread cap, and the fabric
//	     domain / GPU-flavor affinities) and the per-job max_machines
//	     constraint. v1 is a strict subset of v2, so v1 traces upgrade
//	     losslessly on read.
//	v3 — the binary container encoding of the v2 data model (see binary.go):
//	     sectioned layout, interned string table, delta-encoded varint
//	     timestamps. Not a JSON version: binary traces decode to Version 2 in
//	     memory and the two encodings are interchangeable (ToApps output is
//	     byte-identical across them).
const FormatVersion = 2

// formatVersionV1 is the pre-placement-block format, still replayable.
const formatVersionV1 = 1

// SupportedVersions lists the format versions this build can replay, oldest
// first. Readers negotiate through this list: v1 traces (no placement data)
// decode losslessly under v2 code, and anything else is rejected with an
// UnsupportedVersionError at decode time.
func SupportedVersions() []int { return []int{formatVersionV1, FormatVersion} }

// versionSupported reports whether v is a replayable format version.
func versionSupported(v int) bool {
	for _, s := range SupportedVersions() {
		if v == s {
			return true
		}
	}
	return false
}

// Trace is the on-disk form of a workload.
type Trace struct {
	Version int       `json:"version"`
	Name    string    `json:"name,omitempty"`
	Apps    []AppSpec `json:"apps"`
}

// AppSpec describes one application in a trace.
type AppSpec struct {
	ID         string  `json:"id"`
	SubmitTime float64 `json:"submit_time"`
	Model      string  `json:"model"`
	// Placement is the optional v2 placement block: the app's
	// placement-sensitivity profile and the locality constraints its jobs
	// default to. Traces declaring version 1 must not carry it.
	Placement *PlacementSpec `json:"placement,omitempty"`
	Jobs      []JobSpec      `json:"jobs"`
}

// PlacementSpec is the v2 per-app placement block: it puts the constraints
// that previously had to be injected at import time (ImportOptions.Model) on
// the wire, so a trace replays with locality-sensitive scheduling anywhere.
type PlacementSpec struct {
	// Profile names a placement-sensitivity profile from the catalog (e.g.
	// "VGG16", "generic-network"). Unlike AppSpec.Model — which falls back
	// to a generic profile for unknown names — a placement block naming an
	// unknown profile is a validation error: the block exists to pin
	// placement behaviour, so a typo must not silently degrade it. Empty
	// defers to Model.
	Profile string `json:"profile,omitempty"`
	// MinGPUsPerMachine is the default per-machine GPU floor for every job
	// of the app that does not carry its own (§6: machines contributing
	// fewer GPUs stall the gang). Zero means unconstrained.
	MinGPUsPerMachine int `json:"min_gpus_per_machine,omitempty"`
	// MaxMachines is the default machine-spread cap for every job of the
	// app that does not carry its own: the gang may span at most this many
	// machines. Zero means unconstrained.
	MaxMachines int `json:"max_machines,omitempty"`
	// Domain names the fabric domain the app's jobs must run inside,
	// matched against the topology's domain names ("pod-a", or the default
	// "domain-<id>"). Empty means any domain. Resolution happens at replay
	// time against the run's topology: names the topology does not declare
	// make the app's jobs infeasible there.
	Domain string `json:"domain,omitempty"`
	// Flavor names the GPU model the app's jobs require (e.g. "V100").
	// Empty means any flavor.
	Flavor string `json:"flavor,omitempty"`
}

// JobSpec describes one hyperparameter trial.
type JobSpec struct {
	TotalWork         float64 `json:"total_work"`
	GangSize          int     `json:"gang_size"`
	MaxParallelism    int     `json:"max_parallelism,omitempty"`
	MinGPUsPerMachine int     `json:"min_gpus_per_machine,omitempty"`
	// MaxMachines caps how many machines the job's gang may span (v2).
	// Traces declaring version 1 must not carry it.
	MaxMachines     int     `json:"max_machines,omitempty"`
	TotalIterations int     `json:"total_iterations,omitempty"`
	Quality         float64 `json:"quality"`
	Seed            int64   `json:"seed"`
}

// FromApps converts in-memory apps into a serialisable trace.
func FromApps(name string, apps []*workload.App) Trace {
	t := Trace{Version: FormatVersion, Name: name}
	for _, a := range apps {
		spec := AppSpec{ID: string(a.ID), SubmitTime: a.SubmitTime, Model: a.Profile.Name}
		// Domain/flavor affinities are app-level in the wire format (they
		// arrive via the placement block and apply to every job), so the
		// first job's affinity round-trips the block.
		if len(a.Jobs) > 0 {
			if j0 := a.Jobs[0]; j0.DomainAffinity != "" || j0.FlavorAffinity != "" {
				spec.Placement = &PlacementSpec{Domain: j0.DomainAffinity, Flavor: j0.FlavorAffinity}
			}
		}
		for _, j := range a.Jobs {
			spec.Jobs = append(spec.Jobs, JobSpec{
				TotalWork:         j.TotalWork,
				GangSize:          j.GangSize,
				MaxParallelism:    j.MaxParallelism,
				MinGPUsPerMachine: j.MinGPUsPerMachine,
				MaxMachines:       j.MaxMachines,
				TotalIterations:   j.TotalIterations,
				Quality:           j.Quality,
				Seed:              j.Seed,
			})
		}
		t.Apps = append(t.Apps, spec)
	}
	return t
}

// Validate checks the trace header and app entries against the format
// contract: a supported version, non-empty unique app IDs, positive
// work/gang and non-negative constraints on every job, and — version-aware —
// that v2-only fields (the placement block, per-job max_machines) appear
// only in traces declaring version 2. Violations surface as the typed errors
// in errors.go, so callers can distinguish a version mismatch from a
// structural defect.
func (t Trace) Validate() error {
	if !versionSupported(t.Version) {
		return &UnsupportedVersionError{Version: t.Version}
	}
	seen := make(map[string]int, len(t.Apps))
	for i, spec := range t.Apps {
		if spec.ID == "" {
			return &MissingAppIDError{Index: i}
		}
		if first, dup := seen[spec.ID]; dup {
			return &DuplicateAppIDError{ID: spec.ID, First: first, Second: i}
		}
		seen[spec.ID] = i
		// NaN/±Inf are unencodable as JSON but expressible in the binary
		// container's fixed-width floats; rejecting them here keeps both
		// encodings accepting exactly the same traces (and NaN would slip
		// through the <= comparisons below).
		if !isFinite(spec.SubmitTime) {
			return &AppError{ID: spec.ID, Reason: fmt.Sprintf("non-finite submit_time %v", spec.SubmitTime)}
		}
		if err := spec.validatePlacement(t.Version); err != nil {
			return err
		}
		if len(spec.Jobs) == 0 {
			return &JobError{App: spec.ID, Index: 0, Reason: "app has no jobs"}
		}
		for j, js := range spec.Jobs {
			if !isFinite(js.TotalWork) || !isFinite(js.Quality) {
				return &JobError{App: spec.ID, Index: j, Reason: fmt.Sprintf("non-finite work/quality %v/%v", js.TotalWork, js.Quality)}
			}
			if js.TotalWork <= 0 || js.GangSize <= 0 {
				return &JobError{App: spec.ID, Index: j, Reason: fmt.Sprintf("invalid work/gang %v/%d", js.TotalWork, js.GangSize)}
			}
			if js.MinGPUsPerMachine < 0 {
				return &JobError{App: spec.ID, Index: j, Reason: fmt.Sprintf("negative min_gpus_per_machine %d", js.MinGPUsPerMachine)}
			}
			if js.MaxMachines < 0 {
				return &JobError{App: spec.ID, Index: j, Reason: fmt.Sprintf("negative max_machines %d", js.MaxMachines)}
			}
			if t.Version < FormatVersion && js.MaxMachines != 0 {
				return &JobError{App: spec.ID, Index: j, Reason: fmt.Sprintf("max_machines requires format version %d, trace declares %d", FormatVersion, t.Version)}
			}
		}
	}
	return nil
}

// validatePlacement checks an app's placement block against the declared
// format version: present only under v2, constraint fields non-negative, and
// the profile name (when set) resolvable in the catalog.
func (spec AppSpec) validatePlacement(version int) error {
	p := spec.Placement
	if p == nil {
		return nil
	}
	if version < FormatVersion {
		return &PlacementError{App: spec.ID, Reason: fmt.Sprintf("placement block requires format version %d, trace declares %d", FormatVersion, version)}
	}
	if p.MinGPUsPerMachine < 0 {
		return &PlacementError{App: spec.ID, Reason: fmt.Sprintf("negative min_gpus_per_machine %d", p.MinGPUsPerMachine)}
	}
	if p.MaxMachines < 0 {
		return &PlacementError{App: spec.ID, Reason: fmt.Sprintf("negative max_machines %d", p.MaxMachines)}
	}
	if p.Profile != "" {
		if _, ok := placement.ByName(p.Profile); !ok {
			return &PlacementError{App: spec.ID, Reason: fmt.Sprintf("unknown placement profile %q", p.Profile)}
		}
	}
	return nil
}

// Upgrade losslessly lifts a validated trace to the current format version
// in place. v1 is a strict subset of v2 (no placement data), so upgrading
// only rewrites the version header; Read applies it so every decoded trace
// is current-format and Write round-trips bit-identically.
func (t *Trace) Upgrade() {
	if t.Version < FormatVersion {
		t.Version = FormatVersion
	}
}

// ToApps materialises the trace back into runnable apps with fresh runtime
// state. The app's profile resolves from the placement block's Profile when
// present (validated against the catalog), else from Model — unknown model
// names fall back to the generic compute-intensive profile. Placement-block
// constraints apply as defaults to every job that does not carry its own.
func (t Trace) ToApps() ([]*workload.App, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	var apps []*workload.App
	for _, spec := range t.Apps {
		profile := spec.resolveProfile()
		jobs := make([]*workload.Job, 0, len(spec.Jobs))
		slab := workload.NewJobSlab(workload.AppID(spec.ID), len(spec.Jobs))
		for i, js := range spec.Jobs {
			j := slab.Job(i, js.TotalWork, js.GangSize)
			if js.MaxParallelism > 0 {
				j.MaxParallelism = js.MaxParallelism
			}
			if js.MinGPUsPerMachine > 0 {
				j.MinGPUsPerMachine = js.MinGPUsPerMachine
			}
			if js.MaxMachines > 0 {
				j.MaxMachines = js.MaxMachines
			}
			if p := spec.Placement; p != nil {
				if j.MinGPUsPerMachine == 0 && p.MinGPUsPerMachine > 0 {
					j.MinGPUsPerMachine = p.MinGPUsPerMachine
				}
				if j.MaxMachines == 0 && p.MaxMachines > 0 {
					j.MaxMachines = p.MaxMachines
				}
				j.DomainAffinity = p.Domain
				j.FlavorAffinity = p.Flavor
			}
			if js.TotalIterations > 0 {
				j.TotalIterations = js.TotalIterations
			}
			j.Quality = js.Quality
			j.Seed = js.Seed
			jobs = append(jobs, j)
		}
		app := workload.NewApp(workload.AppID(spec.ID), spec.SubmitTime, profile, jobs)
		if err := app.Validate(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		apps = append(apps, app)
	}
	return apps, nil
}

// resolveProfile returns the app's placement-sensitivity profile: the
// placement block's Profile when set (Validate guarantees it resolves), else
// Model with the historical generic fallback.
func (spec AppSpec) resolveProfile() placement.Profile {
	if p := spec.Placement; p != nil && p.Profile != "" {
		if profile, ok := placement.ByName(p.Profile); ok {
			return profile
		}
	}
	profile, ok := placement.ByName(spec.Model)
	if !ok {
		profile = placement.GenericComputeIntensive
	}
	return profile
}

// Write serialises the trace as indented JSON.
func (t Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Read parses and validates a trace from JSON. Unknown format versions,
// missing or duplicate app IDs, and v2-only fields in v1 traces are rejected
// at decode time with the typed errors in errors.go rather than silently
// accepted and replayed wrong. Accepted traces come back upgraded to the
// current format version (lossless; see Upgrade), so Write on the result
// emits valid current-format JSON.
func Read(r io.Reader) (Trace, error) {
	t, _, err := readJSON(r)
	return t, err
}

// readJSON is Read, also reporting what the file declared: a zero LoadInfo
// when the JSON does not decode, its declared version otherwise.
func readJSON(r io.Reader) (Trace, LoadInfo, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return Trace{}, LoadInfo{}, fmt.Errorf("trace: decoding: %w", err)
	}
	info := LoadInfo{Encoding: FormatJSON, WireVersion: t.Version}
	if err := t.Validate(); err != nil {
		return Trace{}, info, err
	}
	t.Upgrade()
	return t, info, nil
}

// Save writes the trace to a file.
func Save(path string, t Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := t.Write(f); err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}

// Load reads a trace from a file, auto-detecting the encoding: files
// starting with the v3 binary magic decode through ReadBinary, everything
// else through the JSON Read.
func Load(path string) (Trace, error) {
	t, _, err := LoadWithInfo(path)
	return t, err
}

// LoadInfo describes what was actually found on disk by LoadWithInfo —
// before the lossless upgrade every decoded trace undergoes.
type LoadInfo struct {
	// Encoding is FormatJSON or FormatBinary.
	Encoding Format
	// WireVersion is the format version the file declares: 1 or 2 for JSON
	// traces, BinaryVersion (3) for binary containers. The in-memory trace
	// always carries FormatVersion after the upgrade; WireVersion preserves
	// what the file said.
	WireVersion int
}

// LoadWithInfo reads a trace from a file like Load and additionally reports
// the detected on-disk encoding and declared format version. tracegen's
// validate subcommand uses it to name what it actually checked.
func LoadWithInfo(path string) (Trace, LoadInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return Trace{}, LoadInfo{}, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return Trace{}, LoadInfo{}, fmt.Errorf("trace: reading %s: %w", path, err)
	}
	if string(head) == binaryMagic {
		t, err := ReadBinary(br)
		return t, LoadInfo{Encoding: FormatBinary, WireVersion: BinaryVersion}, err
	}
	return readJSON(br)
}
