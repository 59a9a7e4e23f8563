// Package experiments is the public face of the paper's evaluation harness:
// one table per figure of Themis's §8, holding the data series the figure
// plots, plus the paper's claims checked against those tables. It re-exports
// the internal experiment engine so downstream tools (cmd/expdriver, plotting
// scripts) depend only on the public module surface.
package experiments

import "themis/internal/experiments"

// Options control the scale and parameters of the experiment runs,
// including the sweep engine's worker-pool size (Options.Workers).
type Options = experiments.Options

// Default returns the paper-fidelity options (§8.1).
func Default() Options { return experiments.Default() }

// Quick returns options scaled down for fast benchmarks and CI while
// preserving every figure's qualitative shape.
func Quick() Options { return experiments.Quick() }

// A Table is one figure of the evaluation as data: columns that each carry a
// name and a fmt verb, rows of raw cells (float64, int or string), and "#"
// notes whose numbers stay in Note.Args. Table.String prints it as expdriver
// does.
type (
	Table  = experiments.Table
	Column = experiments.Column
	Note   = experiments.Note
)

// Names lists every figure table ("1", "2", "4a" … "11") in the order
// `expdriver -fig all` prints them.
func Names() []string { return experiments.Names() }

// Tables builds the named tables in request order, running each experiment
// at most once per call. Besides Names, "scorecard" names the table of the
// paper's claims checked against the figure tables.
func Tables(opts Options, names ...string) ([]Table, error) {
	return experiments.Tables(opts, names...)
}
