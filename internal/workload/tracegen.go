package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"themis/internal/placement"
)

// GeneratorConfig describes a synthetic trace to generate. The zero value is
// not valid; use DefaultGeneratorConfig as a starting point.
type GeneratorConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// NumApps is the number of applications to generate.
	NumApps int
	// MeanInterArrival is the mean of the exponential inter-arrival
	// distribution, in minutes (the paper uses 20).
	MeanInterArrival float64
	// ContentionFactor scales the arrival rate: 2 means apps arrive twice as
	// fast (inter-arrival halved). Used by the Figure 10 sweep.
	ContentionFactor float64
	// FractionNetworkIntensive is the fraction of apps drawn from
	// network-intensive (placement-sensitive) model families. The paper's
	// default mix is 40% network-intensive.
	FractionNetworkIntensive float64
	// JobsPerAppMedian and JobsPerAppSigma parameterise the lognormal
	// distribution of trials per app; the result is clamped to
	// [MinJobsPerApp, MaxJobsPerApp]. The paper's trace has 1–98 with
	// median 23.
	JobsPerAppMedian float64
	JobsPerAppSigma  float64
	MinJobsPerApp    int
	MaxJobsPerApp    int
	// ShortTaskMedian and LongTaskMedian are the medians (minutes) of the
	// short and long task-duration lognormals; LongTaskFraction is the
	// probability a job is drawn from the long distribution.
	ShortTaskMedian  float64
	LongTaskMedian   float64
	TaskSigma        float64
	LongTaskFraction float64
	// MaxTaskDuration truncates sampled durations (Figure 1's x-axis tops
	// out around 1000 minutes).
	MaxTaskDuration float64
	// GangSizeFourFraction is the probability a job needs 4 GPUs; the rest
	// need 2 (the trace's "most tasks require 4 GPUs, a few 2").
	GangSizeFourFraction float64
	// DurationScale scales all sampled durations, e.g. 0.2 for the paper's
	// 5× scale-down in testbed experiments.
	DurationScale float64
	// Profiles optionally overrides the model-family catalogs to draw from.
	NetworkProfiles []placement.Profile
	ComputeProfiles []placement.Profile
}

// DefaultGeneratorConfig returns the configuration matching the paper's
// simulation setup (§8.1).
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Seed:                     1,
		NumApps:                  50,
		MeanInterArrival:         20,
		ContentionFactor:         1,
		FractionNetworkIntensive: 0.4,
		JobsPerAppMedian:         23,
		JobsPerAppSigma:          0.9,
		MinJobsPerApp:            1,
		MaxJobsPerApp:            98,
		ShortTaskMedian:          59,
		LongTaskMedian:           123,
		TaskSigma:                0.55,
		LongTaskFraction:         0.2,
		MaxTaskDuration:          1000,
		GangSizeFourFraction:     0.85,
		DurationScale:            1,
		NetworkProfiles:          placement.NetworkIntensiveProfiles(),
		ComputeProfiles:          placement.ComputeIntensiveProfiles(),
	}
}

// WithDefaults returns the configuration with every zero-valued field whose
// zero value would be invalid replaced by its DefaultGeneratorConfig value.
// Fields where zero is meaningful (the fraction knobs) are kept verbatim.
// Keep this next to DefaultGeneratorConfig: a new field with an invalid zero
// value must be added to both.
func (c GeneratorConfig) WithDefaults() GeneratorConfig {
	def := DefaultGeneratorConfig()
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.NumApps == 0 {
		c.NumApps = def.NumApps
	}
	if c.MeanInterArrival == 0 {
		c.MeanInterArrival = def.MeanInterArrival
	}
	if c.ContentionFactor == 0 {
		c.ContentionFactor = def.ContentionFactor
	}
	if c.JobsPerAppMedian == 0 {
		c.JobsPerAppMedian = def.JobsPerAppMedian
	}
	if c.JobsPerAppSigma == 0 {
		c.JobsPerAppSigma = def.JobsPerAppSigma
	}
	if c.MinJobsPerApp == 0 {
		c.MinJobsPerApp = def.MinJobsPerApp
	}
	if c.MaxJobsPerApp == 0 {
		c.MaxJobsPerApp = def.MaxJobsPerApp
	}
	if c.ShortTaskMedian == 0 {
		c.ShortTaskMedian = def.ShortTaskMedian
	}
	if c.LongTaskMedian == 0 {
		c.LongTaskMedian = def.LongTaskMedian
	}
	if c.TaskSigma == 0 {
		c.TaskSigma = def.TaskSigma
	}
	if c.MaxTaskDuration == 0 {
		c.MaxTaskDuration = def.MaxTaskDuration
	}
	if c.DurationScale == 0 {
		c.DurationScale = def.DurationScale
	}
	if c.NetworkProfiles == nil {
		c.NetworkProfiles = def.NetworkProfiles
	}
	if c.ComputeProfiles == nil {
		c.ComputeProfiles = def.ComputeProfiles
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c GeneratorConfig) Validate() error {
	switch {
	case c.NumApps <= 0:
		return fmt.Errorf("NumApps must be positive, got %d", c.NumApps)
	case c.MeanInterArrival <= 0:
		return fmt.Errorf("MeanInterArrival must be positive, got %v", c.MeanInterArrival)
	case c.ContentionFactor <= 0:
		return fmt.Errorf("ContentionFactor must be positive, got %v", c.ContentionFactor)
	case c.FractionNetworkIntensive < 0 || c.FractionNetworkIntensive > 1:
		return fmt.Errorf("FractionNetworkIntensive must be in [0,1], got %v", c.FractionNetworkIntensive)
	case c.JobsPerAppMedian <= 0 || c.MinJobsPerApp <= 0 || c.MaxJobsPerApp < c.MinJobsPerApp:
		return fmt.Errorf("invalid jobs-per-app parameters")
	case c.ShortTaskMedian <= 0 || c.LongTaskMedian <= 0 || c.MaxTaskDuration <= 0:
		return fmt.Errorf("invalid task-duration parameters")
	case c.LongTaskFraction < 0 || c.LongTaskFraction > 1:
		return fmt.Errorf("LongTaskFraction must be in [0,1], got %v", c.LongTaskFraction)
	case c.GangSizeFourFraction < 0 || c.GangSizeFourFraction > 1:
		return fmt.Errorf("GangSizeFourFraction must be in [0,1], got %v", c.GangSizeFourFraction)
	case c.DurationScale <= 0:
		return fmt.Errorf("DurationScale must be positive, got %v", c.DurationScale)
	case len(c.NetworkProfiles) == 0 && c.FractionNetworkIntensive > 0:
		return fmt.Errorf("no network-intensive profiles configured")
	case len(c.ComputeProfiles) == 0 && c.FractionNetworkIntensive < 1:
		return fmt.Errorf("no compute-intensive profiles configured")
	}
	return nil
}

// Generate produces the apps of a synthetic trace. Apps are returned in
// arrival order with SubmitTime already populated.
func Generate(cfg GeneratorConfig) ([]*App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("workload: invalid generator config: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	apps := make([]*App, 0, cfg.NumApps)
	now := 0.0
	meanIA := cfg.MeanInterArrival / cfg.ContentionFactor
	for i := 0; i < cfg.NumApps; i++ {
		if i > 0 {
			now += rng.ExpFloat64() * meanIA
		}
		apps = append(apps, generateApp(cfg, rng, i, now))
	}
	return apps, nil
}

// generateApp builds one synthetic application arriving at time submit.
func generateApp(cfg GeneratorConfig, rng *rand.Rand, index int, submit float64) *App {
	id := AppID(fmt.Sprintf("app-%03d", index))

	var profile placement.Profile
	if rng.Float64() < cfg.FractionNetworkIntensive {
		profile = cfg.NetworkProfiles[rng.Intn(len(cfg.NetworkProfiles))]
	} else {
		profile = cfg.ComputeProfiles[rng.Intn(len(cfg.ComputeProfiles))]
	}

	nJobs := clampInt(int(math.Round(lognormal(rng, cfg.JobsPerAppMedian, cfg.JobsPerAppSigma))),
		cfg.MinJobsPerApp, cfg.MaxJobsPerApp)

	jobs := make([]*Job, 0, nJobs)
	for j := 0; j < nJobs; j++ {
		median := cfg.ShortTaskMedian
		if rng.Float64() < cfg.LongTaskFraction {
			median = cfg.LongTaskMedian
		}
		duration := lognormal(rng, median, cfg.TaskSigma)
		if duration > cfg.MaxTaskDuration {
			duration = cfg.MaxTaskDuration
		}
		duration *= cfg.DurationScale
		gang := 2
		if rng.Float64() < cfg.GangSizeFourFraction {
			gang = 4
		}
		job := NewJob(id, j, duration*float64(gang), gang)
		job.Quality = rng.Float64()
		job.Seed = rng.Int63()
		job.TotalIterations = 200 + rng.Intn(1800)
		jobs = append(jobs, job)
	}
	return NewApp(id, submit, profile, jobs)
}

// lognormal samples a lognormal variate with the given median and log-space
// standard deviation sigma.
func lognormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(rng.NormFloat64()*sigma)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Stats summarises the distributional properties of a generated trace, used
// for the Figure 1 reproduction and for trace inspection tooling.
type Stats struct {
	NumApps            int
	NumJobs            int
	JobsPerAppMin      int
	JobsPerAppMedian   float64
	JobsPerAppMax      int
	TaskDurationP50    float64
	TaskDurationP90    float64
	TaskDurationMax    float64
	GangSize4Fraction  float64
	NetworkAppFraction float64
	TotalSerialWork    float64
	MeanInterArrival   float64
}

// Summarize computes Stats over a set of apps.
func Summarize(apps []*App) Stats {
	var s Stats
	s.NumApps = len(apps)
	if len(apps) == 0 {
		return s
	}
	var jobsPerApp []int
	durations := TaskDurations(apps)
	gang4 := 0
	network := 0
	for _, a := range apps {
		jobsPerApp = append(jobsPerApp, len(a.Jobs))
		if a.Profile.NetworkIntensive {
			network++
		}
		for _, j := range a.Jobs {
			s.NumJobs++
			s.TotalSerialWork += j.TotalWork
			if j.GangSize == 4 {
				gang4++
			}
		}
	}
	sort.Ints(jobsPerApp)
	sort.Float64s(durations)
	s.JobsPerAppMin = jobsPerApp[0]
	s.JobsPerAppMax = jobsPerApp[len(jobsPerApp)-1]
	s.JobsPerAppMedian = percentileInt(jobsPerApp, 0.5)
	s.TaskDurationP50 = percentile(durations, 0.5)
	s.TaskDurationP90 = percentile(durations, 0.9)
	s.TaskDurationMax = durations[len(durations)-1]
	if s.NumJobs > 0 {
		s.GangSize4Fraction = float64(gang4) / float64(s.NumJobs)
	}
	s.NetworkAppFraction = float64(network) / float64(len(apps))
	if len(apps) > 1 {
		s.MeanInterArrival = (apps[len(apps)-1].SubmitTime - apps[0].SubmitTime) / float64(len(apps)-1)
	}
	return s
}

// TaskDurations returns every job's task duration (minutes): its serial work
// spread over its gang. Figure 1 is the CDF of these values.
func TaskDurations(apps []*App) []float64 {
	var durations []float64
	for _, a := range apps {
		for _, j := range a.Jobs {
			durations = append(durations, j.TotalWork/float64(j.GangSize))
		}
	}
	return durations
}

// percentile returns the q-quantile (0 < q ≤ 1) of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func percentileInt(sorted []int, q float64) float64 {
	f := make([]float64, len(sorted))
	for i, v := range sorted {
		f[i] = float64(v)
	}
	return percentile(f, q)
}
