package themis

import (
	"fmt"

	"themis/internal/core"
	"themis/internal/schedulers"
)

// PolicyConfig carries the knobs a policy factory may consume; the baseline
// policies ignore the fields that do not apply to them. Fields are used
// verbatim wherever their zero value is meaningful — FairnessKnob 0 really
// means f = 0 (offer GPUs to every app), as in the paper's Figure 4a sweep —
// so start from DefaultPolicyConfig to get the paper's settings. A zero
// LeaseDuration (which would be invalid) defaults to 20 minutes.
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

// DefaultPolicyConfig returns the configuration the paper converges on
// (§8.2): f = 0.8 and a 20-minute lease.
func DefaultPolicyConfig() PolicyConfig {
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

// PolicyFactory builds a fresh policy instance. Policies hold per-run agent
// state, so the registry constructs a new one for every simulation.
type PolicyFactory func(cfg PolicyConfig) (SchedulerPolicy, error)

var policies = newRegistry[PolicyFactory]("policy")

// RegisterPolicy adds a named policy to the registry, making it available to
// Policy and WithPolicy. Registering a name twice is an error.
func RegisterPolicy(name string, factory PolicyFactory) error {
	return policies.register(name, factory, factory != nil)
}

// Policies lists the registered policy names, sorted.
func Policies() []string { return policies.names() }

// Policy constructs a registered scheduling policy by name: "themis",
// "gandiva", "tiresias", "slaq", "resource-fair" or "strawman" (plus
// anything added via RegisterPolicy). The optional config carries the
// fairness knob, lease duration and bid-error model; omitted entirely, the
// paper's defaults (DefaultPolicyConfig) apply. A supplied config is used
// verbatim — FairnessKnob 0 means f = 0 — except that a zero LeaseDuration
// defaults to 20 minutes. Unknown names and invalid configurations return
// errors.
func Policy(name string, cfg ...PolicyConfig) (SchedulerPolicy, error) {
	c := DefaultPolicyConfig()
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

// The paper's comparison set ships pre-registered.
func init() {
	mustRegister := func(name string, f PolicyFactory) {
		if err := RegisterPolicy(name, f); err != nil {
			panic(err)
		}
	}
	mustRegister("themis", func(cfg PolicyConfig) (SchedulerPolicy, error) {
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
	})
	mustRegister("gandiva", func(PolicyConfig) (SchedulerPolicy, error) {
		return schedulers.NewGandiva(), nil
	})
	mustRegister("tiresias", func(PolicyConfig) (SchedulerPolicy, error) {
		return schedulers.NewTiresias(), nil
	})
	mustRegister("slaq", func(cfg PolicyConfig) (SchedulerPolicy, error) {
		p := schedulers.NewSLAQ()
		p.WindowMinutes = cfg.LeaseDuration
		return p, nil
	})
	mustRegister("resource-fair", func(PolicyConfig) (SchedulerPolicy, error) {
		return schedulers.NewResourceFair(), nil
	})
	mustRegister("strawman", func(PolicyConfig) (SchedulerPolicy, error) {
		return schedulers.NewStrawman(), nil
	})
}
