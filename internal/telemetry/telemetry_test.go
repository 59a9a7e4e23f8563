package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"themis/internal/race"
)

// TestTelemetryRecordZeroAlloc pins the record-path contract that lets these
// handles live inside the zero-alloc auction round: counter, gauge and
// histogram records are 0 allocs/op. It joins the CI zero-alloc gate next to
// TestBidValuationBatchZeroAlloc and TestEventCoreZeroAlloc.
func TestTelemetryRecordZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	reg := NewRegistry()
	c := reg.Counter("zz_counter_total", "probe", L("k", "v"))
	g := reg.Gauge("zz_gauge", "probe")
	h := reg.Histogram("zz_hist_seconds", "probe", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(42)
		h.Observe(0.004)
		h.ObserveDuration(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("record path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHistogramConcurrentExact hammers one histogram from 16 goroutines and
// asserts exact totals: the count, every cumulative bucket and the CAS-folded
// sum account for every observation. Run under -race in CI.
func TestHistogramConcurrentExact(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("hammer_seconds", "contended histogram", []float64{0.5, 1.5, 2.5})
	c := reg.Counter("hammer_total", "contended counter")

	const goroutines = 16
	const perG = 5000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Cycle through the buckets: 0, 1, 2, 3 → one per bucket incl.
				// overflow. Value 1.0 keeps the float sum exact.
				h.Observe(float64(i % 4))
				c.Inc()
			}
		}(w)
	}
	wg.Wait()

	const total = goroutines * perG
	if got := h.Count(); got != total {
		t.Errorf("histogram count %d, want %d", got, total)
	}
	wantSum := float64(total/4) * (0 + 1 + 2 + 3)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-9 {
		t.Errorf("histogram sum %v, want %v", got, wantSum)
	}
	var bucketTotal uint64
	for i := range h.buckets {
		bucketTotal += h.buckets[i].Load()
	}
	if bucketTotal != total {
		t.Errorf("bucket increments %d, want %d (every observation lands in exactly one bucket)", bucketTotal, total)
	}
	if got := c.Value(); got != total {
		t.Errorf("counter %d, want %d", got, total)
	}
}

// TestGetOrCreateReturnsSameHandle pins the re-registration contract that
// keeps per-shard constructors from growing the registry.
func TestGetOrCreateReturnsSameHandle(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "first", L("shard", "0"))
	b := reg.Counter("dup_total", "second registration's help is ignored", L("shard", "0"))
	if a != b {
		t.Fatal("same name+labels returned distinct counter handles")
	}
	other := reg.Counter("dup_total", "", L("shard", "1"))
	if a == other {
		t.Fatal("distinct labels returned the same handle")
	}
	ha := reg.Histogram("dup_seconds", "", []float64{1, 2})
	hb := reg.Histogram("dup_seconds", "", []float64{1, 2})
	if ha != hb {
		t.Fatal("same histogram registration returned distinct handles")
	}
}

func TestKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("conflict_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter's name did not panic")
		}
	}()
	reg.Gauge("conflict_total", "")
}

// TestPrometheusExpositionGolden pins the full text exposition of a registry
// with one family of each kind: HELP/TYPE lines, sorted family and series
// order, label rendering, cumulative buckets, +Inf, sum and count.
func TestPrometheusExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	// Registered deliberately out of name order to pin the sort.
	g := reg.Gauge("themis_test_gauge", "A gauge.", L("shard", "0"))
	g.Set(-7)
	c1 := reg.Counter("themis_test_requests_total", "Requests.", L("endpoint", "/v1/auction"), L("class", "2xx"))
	c1.Add(12)
	c0 := reg.Counter("themis_test_requests_total", "Requests.", L("class", "5xx"), L("endpoint", "/v1/auction"))
	c0.Inc()
	h := reg.Histogram("themis_test_round_seconds", "Round latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP themis_test_gauge A gauge.
# TYPE themis_test_gauge gauge
themis_test_gauge{shard="0"} -7
# HELP themis_test_requests_total Requests.
# TYPE themis_test_requests_total counter
themis_test_requests_total{class="2xx",endpoint="/v1/auction"} 12
themis_test_requests_total{class="5xx",endpoint="/v1/auction"} 1
# HELP themis_test_round_seconds Round latency.
# TYPE themis_test_round_seconds histogram
themis_test_round_seconds_bucket{le="0.01"} 1
themis_test_round_seconds_bucket{le="0.1"} 3
themis_test_round_seconds_bucket{le="1"} 3
themis_test_round_seconds_bucket{le="+Inf"} 4
themis_test_round_seconds_sum 2.105
themis_test_round_seconds_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// A second render must be byte-identical: ordering is stable, not
	// map-iteration luck.
	var b2 strings.Builder
	if err := reg.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Error("two renders of the same registry differ")
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "", L("path", `C:\tmp "x"`+"\n"))
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="C:\\tmp \"x\"\n"} 0`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped label line %q missing from:\n%s", want, b.String())
	}
}
