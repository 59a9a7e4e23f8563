package themis

import (
	"fmt"

	"themis/internal/core"
	"themis/internal/schedulers"
)

// PolicyConfig carries the knobs a policy consumes; the baseline policies
// ignore the fields that do not apply to them. Fields are used verbatim
// wherever their zero value is meaningful — FairnessKnob 0 really means f = 0
// (offer GPUs to every app), as in the paper's Figure 4a sweep — so set
// FairnessKnob to 0.8 for the paper's setting. A zero LeaseDuration (which
// would be invalid) defaults to 20 minutes.
type PolicyConfig struct {
	// FairnessKnob is Themis's f ∈ [0,1]: free GPUs are offered to the worst
	// 1−f fraction of apps by finish-time fairness.
	FairnessKnob float64
	// LeaseDuration is the GPU lease length in minutes.
	LeaseDuration float64
	// BidErrorTheta perturbs Themis agents' ρ estimates by ±θ (Figure 11).
	BidErrorTheta float64
	// ErrorSeed seeds the per-agent bid error models.
	ErrorSeed int64
}

// defaultPolicyConfig returns the configuration the paper converges on
// (§8.2): f = 0.8 and a 20-minute lease.
func defaultPolicyConfig() PolicyConfig {
	def := core.DefaultConfig()
	return PolicyConfig{FairnessKnob: def.FairnessKnob, LeaseDuration: def.LeaseDuration}
}

// withDefaults fills knobs whose zero value would be invalid. FairnessKnob
// is deliberately left verbatim: f = 0 is a valid extreme.
func (c PolicyConfig) withDefaults() PolicyConfig {
	if c.LeaseDuration == 0 {
		c.LeaseDuration = core.DefaultConfig().LeaseDuration
	}
	return c
}

// policies builds the paper's comparison set. Policies hold per-run agent
// state, so every simulation constructs a fresh instance.
var policies = newRegistry("policy", map[string]func(PolicyConfig) (SchedulerPolicy, error){
	"themis": func(cfg PolicyConfig) (SchedulerPolicy, error) {
		p, err := schedulers.NewThemis(core.Config{
			FairnessKnob:  cfg.FairnessKnob,
			LeaseDuration: cfg.LeaseDuration,
		})
		if err != nil {
			return nil, err
		}
		p.BidErrorTheta = cfg.BidErrorTheta
		p.ErrorSeed = cfg.ErrorSeed
		return p, nil
	},
	"gandiva": func(PolicyConfig) (SchedulerPolicy, error) {
		return schedulers.NewGandiva(), nil
	},
	"tiresias": func(PolicyConfig) (SchedulerPolicy, error) {
		return schedulers.NewTiresias(), nil
	},
	"slaq": func(cfg PolicyConfig) (SchedulerPolicy, error) {
		p := schedulers.NewSLAQ()
		p.WindowMinutes = cfg.LeaseDuration
		return p, nil
	},
	"resource-fair": func(PolicyConfig) (SchedulerPolicy, error) {
		return schedulers.NewResourceFair(), nil
	},
	"strawman": func(PolicyConfig) (SchedulerPolicy, error) {
		return schedulers.NewStrawman(), nil
	},
})

// Policies lists the built-in policy names, sorted.
func Policies() []string { return policies.names() }

// Policy constructs a built-in scheduling policy by name: "themis",
// "gandiva", "tiresias", "slaq", "resource-fair" or "strawman". A policy of
// one's own needs no name: pass it to WithPolicyInstance. The optional config
// carries the fairness knob, lease duration and bid-error model; omitted
// entirely, the paper's defaults (f = 0.8, 20-minute leases) apply. A
// supplied config is used verbatim — FairnessKnob 0 means f = 0 — except that
// a zero LeaseDuration defaults to 20 minutes. Unknown names and invalid
// configurations return errors.
func Policy(name string, cfg ...PolicyConfig) (SchedulerPolicy, error) {
	c := defaultPolicyConfig()
	if len(cfg) > 1 {
		return nil, fmt.Errorf("themis: Policy takes at most one config, got %d", len(cfg))
	}
	if len(cfg) == 1 {
		c = cfg[0]
	}
	factory, err := policies.lookup(name)
	if err != nil {
		return nil, err
	}
	return factory(c.withDefaults())
}
