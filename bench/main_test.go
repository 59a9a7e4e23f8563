package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json, the driver's copy of the tables in metrics.go.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesTables pins BENCHMARK.json to the workload and metric
// tables the binary emits from, entry for entry.
func TestManifestMatchesTables(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	seen := make(map[string]bool)
	compare := func(kind string, listed []manifestMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the binary has %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			l := listed[i]
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, d.Name)
			}
			seen[d.Name] = true
			if l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the binary %+v", kind, i, l, d)
			}
			if bounded != (l.Bound != nil) || (bounded && (*l.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, d.Name, d.Bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
}

// checkRun asserts a run emitted exactly its table, every value finite and
// carrying its unit, with no failed operation or sum check.
func checkRun(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", res.workload, res.Correct, res.Attempted, res.Failed, res.fails)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, table has %d", res.workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s emitted as %+v (present=%v)", res.workload, d.Name, v, ok)
		}
	}
	for _, c := range res.sums {
		if !c.ok {
			t.Errorf("%s: %s", res.workload, c)
		}
	}
}

// TestTinyRuns is the smoke test: every workload, untraced and traced, at the
// tiny scale with a fixed operation count. End-to-end metrics must all be
// non-zero (the driver refuses a zero), and on the workloads whose counts must
// repeat exactly, two traced runs of one seed must agree.
func TestTinyRuns(t *testing.T) {
	sz := scales["tiny"]
	out := t.TempDir()
	exact := map[string][]string{
		"replay-contended": {"core.rounds", "core.participants", "solver.solves_exact", "solver.solves_greedy", "solver.pair_moves", "sim.max_rho", "sim.jain_index"},
		"serve-sharded":    {"core.rounds", "core.participants", "solver.solves_exact", "solver.solves_greedy", "solver.pair_moves", "shard.reconciled_gpus"},
	}
	for _, def := range workloads {
		// A zero limit runs exactly minOps operations.
		res, err := runUntraced(def, 1, sz, out, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, res, endToEnd)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", def.name, name, v.Value)
			}
		}
		traced, err := runTraced(def, 1, sz, out, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, traced, perLayer)
		if names := exact[def.name]; names != nil {
			again, err := runTraced(def, 1, sz, out, 0)
			if err != nil {
				t.Fatal(err)
			}
			if traced.digest != again.digest {
				t.Errorf("%s: input digest %s then %s for one seed", def.name, traced.digest, again.digest)
			}
			for _, name := range names {
				if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s: %s was %v then %v for one seed", def.name, name, a, b)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
