package fit

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"themis/internal/workload"
)

// genApps generates a scenario workload for round-trip tests, failing the
// test on config errors.
func genApps(t *testing.T, cfg workload.ScenarioConfig) []*workload.App {
	t.Helper()
	apps, err := workload.GenerateScenario(cfg)
	if err != nil {
		t.Fatalf("GenerateScenario: %v", err)
	}
	return apps
}

func mustFit(t *testing.T, apps []*workload.App) *Report {
	t.Helper()
	rep, err := Fit(apps)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return rep
}

// within asserts |got−want| ≤ tol·want.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Abs(want) {
		t.Errorf("%s = %v, want %v ± %v%%", name, got, want, tol*100)
	}
}

// baseCfg is a large-sample scenario whose lognormal law is a single
// component, so parameter recovery is exact up to sampling noise.
func baseCfg(seed int64, n int) workload.ScenarioConfig {
	cfg := workload.ScenarioConfig{GeneratorConfig: workload.DefaultGeneratorConfig()}
	cfg.Seed = seed
	cfg.NumApps = n
	cfg.ShortTaskMedian = 60
	cfg.LongTaskMedian = 60
	cfg.LongTaskFraction = 0
	cfg.TaskSigma = 0.5
	return cfg
}

// Round-trip: every arrival pattern × size law must be recovered in kind,
// with the rate/shape parameters within documented tolerance. Tolerances are
// generous for burst parameters (cluster-based estimates) and tight for MLEs.
func TestRoundTripArrivalBySize(t *testing.T) {
	const n = 2000
	cases := []struct {
		name    string
		mutate  func(*workload.ScenarioConfig)
		arrival workload.ArrivalPattern
		size    workload.SizePattern
	}{
		{"poisson-lognormal", func(c *workload.ScenarioConfig) {}, workload.ArrivalPoisson, workload.SizeLognormal},
		{"poisson-pareto", func(c *workload.ScenarioConfig) {
			c.JobSize = workload.SizePareto
		}, workload.ArrivalPoisson, workload.SizePareto},
		{"diurnal-lognormal", func(c *workload.ScenarioConfig) {
			c.Arrival = workload.ArrivalDiurnal
		}, workload.ArrivalDiurnal, workload.SizeLognormal},
		{"diurnal-pareto", func(c *workload.ScenarioConfig) {
			c.Arrival = workload.ArrivalDiurnal
			c.JobSize = workload.SizePareto
		}, workload.ArrivalDiurnal, workload.SizePareto},
		{"bursty-lognormal", func(c *workload.ScenarioConfig) {
			c.Arrival = workload.ArrivalBursty
		}, workload.ArrivalBursty, workload.SizeLognormal},
		{"bursty-pareto", func(c *workload.ScenarioConfig) {
			c.Arrival = workload.ArrivalBursty
			c.JobSize = workload.SizePareto
		}, workload.ArrivalBursty, workload.SizePareto},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseCfg(11, n)
			tc.mutate(&cfg)
			full := cfg.WithDefaults()
			rep := mustFit(t, genApps(t, cfg))

			if rep.Arrival.Pattern != tc.arrival {
				t.Fatalf("arrival pattern = %s, want %s (amp %v, IoD %v, burst frac %v)",
					rep.Arrival.Pattern, tc.arrival, rep.Arrival.DiurnalAmplitude,
					rep.Arrival.IndexOfDispersion, rep.Arrival.BurstFraction)
			}
			if rep.Size.Law != tc.size {
				t.Fatalf("size law = %s, want %s (lognormal AIC %v, pareto AIC %v)",
					rep.Size.Law, tc.size, rep.Size.Lognormal.AIC, rep.Size.Pareto.AIC)
			}

			// Rate/shape recovery, against the generating configuration.
			switch tc.arrival {
			case workload.ArrivalPoisson, workload.ArrivalDiurnal:
				within(t, "MeanInterArrival", rep.Config.MeanInterArrival, full.MeanInterArrival, 0.15)
			case workload.ArrivalBursty:
				within(t, "MeanInterArrival", rep.Config.MeanInterArrival, full.MeanInterArrival, 0.25)
				within(t, "BurstApps", float64(rep.Config.BurstApps), float64(full.BurstApps), 0.35)
				within(t, "BurstInterval", rep.Config.BurstInterval, full.BurstInterval, 0.35)
				if d := math.Abs(rep.Config.BurstFraction - full.BurstFraction); d > 0.12 {
					t.Errorf("BurstFraction = %v, want %v ± 0.12", rep.Config.BurstFraction, full.BurstFraction)
				}
			}
			if tc.arrival == workload.ArrivalDiurnal {
				within(t, "DiurnalPeakToTrough", rep.Config.DiurnalPeakToTrough, full.DiurnalPeakToTrough, 0.25)
			}
			switch tc.size {
			case workload.SizeLognormal:
				within(t, "lognormal median", rep.Size.LognormalMedian, full.ShortTaskMedian, 0.08)
				within(t, "lognormal sigma", rep.Size.LognormalSigma, full.TaskSigma, 0.10)
			case workload.SizePareto:
				within(t, "pareto alpha", rep.Size.ParetoAlpha, full.ParetoAlpha, 0.10)
				within(t, "pareto min", rep.Size.ParetoMin, full.ParetoMinDuration, 0.05)
			}

			// The fitted config must itself generate.
			twin := rep.Config
			twin.Seed = 99
			twin.NumApps = 50
			if _, err := workload.GenerateScenario(twin); err != nil {
				t.Fatalf("fitted config does not generate: %v", err)
			}
		})
	}
}

// The base generator's short/long lognormal mixture is recovered as a single
// lognormal matching the mixture's geometric median and effective log-sd.
func TestRoundTripLognormalMixture(t *testing.T) {
	cfg := workload.ScenarioConfig{GeneratorConfig: workload.DefaultGeneratorConfig()}
	cfg.Seed = 5
	cfg.NumApps = 2000
	full := cfg.WithDefaults()
	rep := mustFit(t, genApps(t, cfg))

	if rep.Size.Law != workload.SizeLognormal {
		t.Fatalf("size law = %s, want lognormal", rep.Size.Law)
	}
	p := full.LongTaskFraction
	logRatio := math.Log(full.LongTaskMedian / full.ShortTaskMedian)
	wantMedian := full.ShortTaskMedian * math.Exp(p*logRatio)
	wantSigma := math.Sqrt(full.TaskSigma*full.TaskSigma + p*(1-p)*logRatio*logRatio)
	within(t, "mixture geometric median", rep.Size.LognormalMedian, wantMedian, 0.10)
	within(t, "mixture effective sigma", rep.Size.LognormalSigma, wantSigma, 0.10)
}

// Gang-size populations are recovered as weight fractions.
func TestRoundTripGangPopulation(t *testing.T) {
	cfg := baseCfg(23, 800)
	cfg.GangSizes = []workload.GangMix{
		{Size: 1, Weight: 2}, {Size: 2, Weight: 3}, {Size: 4, Weight: 4}, {Size: 8, Weight: 1},
	}
	rep := mustFit(t, genApps(t, cfg))

	var totalWeight float64
	for _, g := range cfg.GangSizes {
		totalWeight += g.Weight
	}
	if len(rep.Gangs) != len(cfg.GangSizes) {
		t.Fatalf("fitted %d gang sizes, want %d: %+v", len(rep.Gangs), len(cfg.GangSizes), rep.Gangs)
	}
	for i, g := range rep.Gangs {
		want := cfg.GangSizes[i]
		if g.Size != want.Size {
			t.Errorf("gang[%d].Size = %d, want %d", i, g.Size, want.Size)
		}
		if d := math.Abs(g.Weight - want.Weight/totalWeight); d > 0.05 {
			t.Errorf("gang[%d].Weight = %v, want %v ± 0.05", i, g.Weight, want.Weight/totalWeight)
		}
	}
}

// Jobs-per-app and the network-intensive fraction are recovered.
func TestRoundTripAuxiliaryKnobs(t *testing.T) {
	cfg := baseCfg(31, 1500)
	full := cfg.WithDefaults()
	rep := mustFit(t, genApps(t, cfg))

	within(t, "JobsPerAppMedian", rep.Config.JobsPerAppMedian, full.JobsPerAppMedian, 0.15)
	within(t, "JobsPerAppSigma", rep.Config.JobsPerAppSigma, full.JobsPerAppSigma, 0.20)
	if d := math.Abs(rep.Config.FractionNetworkIntensive - full.FractionNetworkIntensive); d > 0.05 {
		t.Errorf("FractionNetworkIntensive = %v, want %v ± 0.05",
			rep.Config.FractionNetworkIntensive, full.FractionNetworkIntensive)
	}
	if rep.Config.NumApps != cfg.NumApps {
		t.Errorf("NumApps = %d, want %d", rep.Config.NumApps, cfg.NumApps)
	}
}

// Fitting is deterministic: the same input yields a bit-identical report.
func TestFitDeterministic(t *testing.T) {
	cfg := baseCfg(7, 400)
	cfg.Arrival = workload.ArrivalBursty
	apps := genApps(t, cfg)
	a := mustFit(t, apps)
	b := mustFit(t, apps)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fit not deterministic:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("serialised reports differ for identical input")
	}
	if a.Render() != b.Render() {
		t.Fatal("rendered reports differ for identical input")
	}
}

// The serialised report round-trips losslessly through ReadReport.
func TestReportJSONRoundTrip(t *testing.T) {
	for _, mutate := range []func(*workload.ScenarioConfig){
		func(c *workload.ScenarioConfig) {},
		func(c *workload.ScenarioConfig) { c.Arrival = workload.ArrivalDiurnal },
		func(c *workload.ScenarioConfig) { c.Arrival = workload.ArrivalBursty; c.JobSize = workload.SizePareto },
	} {
		cfg := baseCfg(13, 600)
		mutate(&cfg)
		rep := mustFit(t, genApps(t, cfg))
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadReport(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadReport: %v", err)
		}
		if !reflect.DeepEqual(rep, back) {
			t.Fatalf("JSON round trip changed the report:\nfirst:  %+v\nsecond: %+v", rep, back)
		}
	}
}

// ReadReport rejects junk, version skew and unusable configs.
func TestReadReportRejects(t *testing.T) {
	cases := map[string]string{
		"not json":       "}{",
		"wrong version":  `{"fit_format": 99, "config": {"num_apps": 5}}`,
		"invalid config": `{"fit_format": 1, "config": {"num_apps": 5, "arrival": "sideways"}}`,
	}
	for name, in := range cases {
		if _, err := ReadReport(bytes.NewReader([]byte(name[:0] + in))); err == nil {
			t.Errorf("%s: ReadReport accepted %q", name, in)
		}
	}
}

// Degenerate inputs degrade gracefully: tiny samples fall back to Poisson +
// lognormal with notes, never NaN, and still yield a generatable config.
func TestFitDegenerateInputs(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := Fit(nil); err == nil {
			t.Fatal("Fit(nil) succeeded")
		}
	})
	t.Run("single app", func(t *testing.T) {
		job := workload.NewJob("a", 0, 100, 2)
		app := workload.NewApp("a", 0, workload.DefaultGeneratorConfig().ComputeProfiles[0], []*workload.Job{job})
		rep := mustFit(t, []*workload.App{app})
		if rep.Arrival.Pattern != workload.ArrivalPoisson {
			t.Errorf("pattern = %s, want poisson", rep.Arrival.Pattern)
		}
		if len(rep.Provenance.Notes) == 0 {
			t.Error("expected degradation notes for a single-app fit")
		}
		twin := rep.Config
		twin.NumApps = 5
		if _, err := workload.GenerateScenario(twin); err != nil {
			t.Fatalf("degenerate fitted config does not generate: %v", err)
		}
	})
	t.Run("constant durations", func(t *testing.T) {
		var apps []*workload.App
		for i := 0; i < 40; i++ {
			id := workload.AppID(string(rune('a'+i%26)) + string(rune('a'+i/26)))
			job := workload.NewJob(id, 0, 60, 2)
			apps = append(apps, workload.NewApp(id, float64(i*10), workload.DefaultGeneratorConfig().ComputeProfiles[0], []*workload.Job{job}))
		}
		rep := mustFit(t, apps)
		if rep.Size.Law != workload.SizeLognormal {
			t.Errorf("size law = %s, want lognormal fallback", rep.Size.Law)
		}
		twin := rep.Config
		if _, err := workload.GenerateScenario(twin); err != nil {
			t.Fatalf("constant-duration fitted config does not generate: %v", err)
		}
	})
}

// exponentialKS must sort the time-ordered gaps before the KS walk:
// arrivals [0, 10, 11] have gaps [10, 1], and feeding them unsorted inflates
// the statistic (regression: 0.838 instead of the correct 0.338).
func TestExponentialKSSortsGaps(t *testing.T) {
	got := exponentialKS([]float64{0, 10, 11}, 5.5)
	// Hand-computed: sorted gaps [1, 10] against Exp(5.5) give
	// D = F(10) − 1/2 = (1 − e^(−10/5.5)) − 0.5.
	want := (1 - math.Exp(-10/5.5)) - 0.5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("exponentialKS = %v, want %v", got, want)
	}
}
