package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"themis/internal/placement"
)

// This file grows the synthetic generator into a scenario engine: the base
// GeneratorConfig fixes the paper trace's marginal distributions, and a
// ScenarioConfig composes alternative arrival processes (diurnal cycles,
// bursty spikes), job-size laws (heavy-tailed Pareto durations) and gang-size
// populations on top of it. Every combination stays deterministic under its
// Seed, so scenarios replay bit-for-bit through traces, golden snapshots and
// the sweep engine.

// ArrivalPattern names the app arrival process of a scenario.
type ArrivalPattern string

const (
	// ArrivalPoisson is the paper's memoryless arrival process (default).
	ArrivalPoisson ArrivalPattern = "poisson"
	// ArrivalDiurnal modulates the Poisson rate sinusoidally over a day-like
	// period, modelling the daytime peaks of production clusters.
	ArrivalDiurnal ArrivalPattern = "diurnal"
	// ArrivalBursty superimposes load spikes — clumps of near-simultaneous
	// submissions — on a background Poisson process.
	ArrivalBursty ArrivalPattern = "bursty"
)

// SizePattern names the job-duration law of a scenario.
type SizePattern string

const (
	// SizeLognormal is the paper's short/long lognormal mix (default).
	SizeLognormal SizePattern = "lognormal"
	// SizePareto draws durations from a heavy-tailed Pareto law, producing
	// the elephant-and-mice mix reported for public cluster traces.
	SizePareto SizePattern = "pareto"
)

// GangMix is one entry of a gang-size population: jobs need Size GPUs with
// relative Weight.
type GangMix struct {
	Size   int
	Weight float64
}

// ScenarioConfig composes a synthetic scenario from the base generator
// distributions plus pluggable arrival, job-size and gang-size models. The
// zero value of every added knob means "use the paper's behaviour", so a
// plain GeneratorConfig wrapped in a ScenarioConfig generates the same
// workload family as Generate (via its own RNG schedule).
type ScenarioConfig struct {
	GeneratorConfig

	// Arrival selects the arrival process; empty means ArrivalPoisson.
	Arrival ArrivalPattern
	// DiurnalPeriod is the cycle length in minutes (default 1440, one day).
	DiurnalPeriod float64
	// DiurnalPeakToTrough is the ratio of the peak arrival rate to the
	// trough rate, ≥ 1 (default 4).
	DiurnalPeakToTrough float64
	// BurstInterval is the mean minutes between load spikes (default 360).
	BurstInterval float64
	// BurstApps is the number of apps arriving inside one spike (default 8).
	BurstApps int
	// BurstSpread is the window in minutes a spike's submissions land in
	// (default 2).
	BurstSpread float64
	// BurstFraction is the fraction of all apps that arrive in spikes
	// rather than as background Poisson traffic (default 0.5 for bursty).
	BurstFraction float64

	// JobSize selects the duration law; empty means SizeLognormal.
	JobSize SizePattern
	// ParetoAlpha is the Pareto tail index; smaller is heavier (default 1.5,
	// infinite variance like measured task-size tails).
	ParetoAlpha float64
	// ParetoMinDuration is the Pareto scale: the minimum task duration in
	// minutes (default 15).
	ParetoMinDuration float64

	// GangSizes overrides the 2/4-GPU gang mix with an arbitrary weighted
	// population (e.g. 1/2/4/8); empty keeps the base mix.
	GangSizes []GangMix
}

// WithDefaults fills every zero-valued knob whose zero would be invalid,
// including the embedded GeneratorConfig's.
func (c ScenarioConfig) WithDefaults() ScenarioConfig {
	c.GeneratorConfig = c.GeneratorConfig.WithDefaults()
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.DiurnalPeriod == 0 {
		c.DiurnalPeriod = 1440
	}
	if c.DiurnalPeakToTrough == 0 {
		c.DiurnalPeakToTrough = 4
	}
	if c.BurstInterval == 0 {
		c.BurstInterval = 360
	}
	if c.BurstApps == 0 {
		c.BurstApps = 8
	}
	if c.BurstSpread == 0 {
		c.BurstSpread = 2
	}
	if c.BurstFraction == 0 && c.Arrival == ArrivalBursty {
		c.BurstFraction = 0.5
	}
	if c.JobSize == "" {
		c.JobSize = SizeLognormal
	}
	if c.ParetoAlpha == 0 {
		c.ParetoAlpha = 1.5
	}
	if c.ParetoMinDuration == 0 {
		c.ParetoMinDuration = 15
	}
	return c
}

// Validate reports whether the scenario is usable. Call WithDefaults first;
// the zero value of several knobs is invalid by design.
func (c ScenarioConfig) Validate() error {
	if err := c.GeneratorConfig.Validate(); err != nil {
		return err
	}
	switch c.Arrival {
	case ArrivalPoisson, ArrivalDiurnal, ArrivalBursty:
	default:
		return fmt.Errorf("unknown arrival pattern %q", c.Arrival)
	}
	switch c.JobSize {
	case SizeLognormal, SizePareto:
	default:
		return fmt.Errorf("unknown job-size pattern %q", c.JobSize)
	}
	switch {
	case c.DiurnalPeriod <= 0:
		return fmt.Errorf("DiurnalPeriod must be positive, got %v", c.DiurnalPeriod)
	case c.DiurnalPeakToTrough < 1:
		return fmt.Errorf("DiurnalPeakToTrough must be ≥ 1, got %v", c.DiurnalPeakToTrough)
	case c.BurstInterval <= 0 || c.BurstApps < 1 || c.BurstSpread < 0:
		return fmt.Errorf("invalid burst parameters")
	case c.BurstFraction < 0 || c.BurstFraction > 1:
		return fmt.Errorf("BurstFraction must be in [0,1], got %v", c.BurstFraction)
	case c.ParetoAlpha <= 0 || c.ParetoMinDuration <= 0:
		return fmt.Errorf("invalid Pareto parameters")
	}
	for _, g := range c.GangSizes {
		if g.Size < 1 || g.Weight <= 0 {
			return fmt.Errorf("invalid gang mix entry %+v", g)
		}
	}
	return nil
}

// GenerateScenario produces the apps of a composed scenario, in arrival
// order with SubmitTime populated, deterministically under cfg.Seed.
func GenerateScenario(cfg ScenarioConfig) ([]*App, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("workload: invalid scenario config: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrivals := arrivalTimes(cfg, rng)
	apps := make([]*App, 0, cfg.NumApps)
	for i, submit := range arrivals {
		apps = append(apps, scenarioApp(cfg, rng, i, submit))
	}
	return apps, nil
}

// arrivalTimes samples cfg.NumApps submission times for the configured
// arrival process, sorted ascending and starting at 0.
func arrivalTimes(cfg ScenarioConfig, rng *rand.Rand) []float64 {
	meanIA := cfg.MeanInterArrival / cfg.ContentionFactor
	times := make([]float64, 0, cfg.NumApps)
	switch cfg.Arrival {
	case ArrivalDiurnal:
		// Lewis thinning of a sinusoidally modulated Poisson process:
		// λ(t) = λ̄ (1 + a sin(2πt/P)) with a = (R−1)/(R+1), so the peak rate
		// is R times the trough rate while the mean matches meanIA.
		amp := (cfg.DiurnalPeakToTrough - 1) / (cfg.DiurnalPeakToTrough + 1)
		rateMean := 1 / meanIA
		rateMax := rateMean * (1 + amp)
		now := 0.0
		times = append(times, 0)
		for len(times) < cfg.NumApps {
			now += rng.ExpFloat64() / rateMax
			rate := rateMean * (1 + amp*math.Sin(2*math.Pi*now/cfg.DiurnalPeriod))
			if rng.Float64()*rateMax <= rate {
				times = append(times, now)
			}
		}
	case ArrivalBursty:
		// Background Poisson traffic plus spikes of BurstApps near-simultaneous
		// submissions every ~BurstInterval minutes.
		nBurst := int(math.Round(cfg.BurstFraction * float64(cfg.NumApps)))
		for i := 0; i < cfg.NumApps-nBurst; i++ {
			var prev float64
			if len(times) > 0 {
				prev = times[len(times)-1]
			}
			times = append(times, prev+rng.ExpFloat64()*meanIA)
		}
		spike := 0.0
		for assigned := 0; assigned < nBurst; {
			spike += rng.ExpFloat64() * cfg.BurstInterval
			k := cfg.BurstApps
			if k > nBurst-assigned {
				k = nBurst - assigned
			}
			for i := 0; i < k; i++ {
				times = append(times, spike+rng.Float64()*cfg.BurstSpread)
			}
			assigned += k
		}
		sort.Float64s(times)
		base := times[0]
		for i := range times {
			times[i] -= base
		}
	default: // ArrivalPoisson
		now := 0.0
		for i := 0; i < cfg.NumApps; i++ {
			if i > 0 {
				now += rng.ExpFloat64() * meanIA
			}
			times = append(times, now)
		}
	}
	return times
}

// scenarioApp builds one synthetic application arriving at time submit,
// drawing job sizes and gang sizes from the scenario's models. Both
// generators build their apps here.
func scenarioApp(cfg ScenarioConfig, rng *rand.Rand, index int, submit float64) *App {
	id := AppID(fmt.Sprintf("app-%03d", index))

	var profile placement.Profile
	if rng.Float64() < cfg.FractionNetworkIntensive {
		profile = cfg.NetworkProfiles[rng.Intn(len(cfg.NetworkProfiles))]
	} else {
		profile = cfg.ComputeProfiles[rng.Intn(len(cfg.ComputeProfiles))]
	}

	nJobs := clampInt(int(math.Round(lognormal(rng, cfg.JobsPerAppMedian, cfg.JobsPerAppSigma))),
		cfg.MinJobsPerApp, cfg.MaxJobsPerApp)

	jobs, slab := make([]*Job, 0, nJobs), NewJobSlab(id, nJobs)
	for j := 0; j < nJobs; j++ {
		duration := sampleDuration(cfg, rng)
		gang := sampleGang(cfg, rng)
		job := slab.Job(j, duration*float64(gang), gang)
		job.Quality = rng.Float64()
		job.Seed = rng.Int63()
		job.TotalIterations = 200 + rng.Intn(1800)
		jobs = append(jobs, job)
	}
	return NewApp(id, submit, profile, jobs)
}

// sampleDuration draws one task duration (minutes) from the scenario's size
// law, truncated and scaled like the base generator.
func sampleDuration(cfg ScenarioConfig, rng *rand.Rand) float64 {
	var duration float64
	switch cfg.JobSize {
	case SizePareto:
		// Inverse-CDF sampling: x = x_min (1−U)^(−1/α).
		duration = cfg.ParetoMinDuration * math.Pow(1-rng.Float64(), -1/cfg.ParetoAlpha)
	default: // SizeLognormal
		median := cfg.ShortTaskMedian
		if rng.Float64() < cfg.LongTaskFraction {
			median = cfg.LongTaskMedian
		}
		duration = lognormal(rng, median, cfg.TaskSigma)
	}
	if duration > cfg.MaxTaskDuration {
		duration = cfg.MaxTaskDuration
	}
	return duration * cfg.DurationScale
}

// sampleGang draws one gang size from the configured population, falling
// back to the base generator's 2/4 mix.
func sampleGang(cfg ScenarioConfig, rng *rand.Rand) int {
	if len(cfg.GangSizes) == 0 {
		if rng.Float64() < cfg.GangSizeFourFraction {
			return 4
		}
		return 2
	}
	var total float64
	for _, g := range cfg.GangSizes {
		total += g.Weight
	}
	pick := rng.Float64() * total
	for _, g := range cfg.GangSizes {
		pick -= g.Weight
		if pick < 0 {
			return g.Size
		}
	}
	return cfg.GangSizes[len(cfg.GangSizes)-1].Size
}
