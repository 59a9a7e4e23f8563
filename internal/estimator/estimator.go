// Package estimator models the profiling side of the Themis Agent (§5.2,
// §7): it synthesises per-trial loss curves, which HyperBand's rung decisions
// and SLAQ's loss-reduction ranking observe, and injects controlled error
// into bid valuations for the Figure 11 sensitivity study. The tuners' work
// left is the trials' true remaining work, so no curve is fitted.
//
// A trial's curve and its noisy observations are pure functions of a seed:
// the first draws of math/rand seeded with it, computed by jump-ahead in tens
// of nanoseconds without allocating, so callers re-derive curves, never cache.
package estimator

import (
	"math"
	"math/rand"

	"themis/internal/workload"
)

// LossCurve is a synthetic convergence curve: loss as a function of SGD
// iteration. Curves follow the shifted power law
//
//	loss(i) = Floor + (Init − Floor) · (1 + i/Scale)^(−Alpha)
//
// which covers both sub-linear (Alpha < 1) and super-linear-looking
// (Alpha > 1) convergence, the two families the paper's profiler fits.
type LossCurve struct {
	Init  float64 // loss at iteration 0
	Floor float64 // asymptotic loss
	Scale float64 // iterations over which loss decays appreciably
	Alpha float64 // decay exponent
}

// CurveForJob derives a deterministic loss curve for a trial from its seed
// and latent quality: better (lower-quality-value) trials converge to lower
// floors and decay faster, so tuners that watch loss curves will keep them.
// Its draws are math/rand's for j.Seed, taken by jump-ahead (seededDraws).
func CurveForJob(j *workload.Job) LossCurve {
	r := seededDraws(j.Seed)
	return LossCurve{
		Init:  2.0 + r[0]*1.0,
		Floor: 0.05 + j.Quality*0.8,
		Scale: 40 + r[1]*160,
		Alpha: 0.6 + (1-j.Quality)*0.9 + r[2]*0.2,
	}
}

// Go 1 freezes the stream rand.New(rand.NewSource(seed)) yields
// ($GOROOT/src/math/rand/rng.go). Seeding runs the Lehmer chain
// x ← 48271·x mod (2³¹−1) from the normalised seed and sets register word i to
// x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i]; output k (from 0) is word
// 333−k plus word 606−k. The first three outputs need only words 331–333 and
// 604–606, chain positions 1014–1022 and 1833–1841, which one power of 48271
// each reaches directly: no 607-word register is allocated or filled.
const lehmerMod = 1<<31 - 1

// lehmerJumps are 48271¹⁰¹⁴ and 48271¹⁸³³ mod (2³¹−1); cookedWords are
// rngCooked[331:334] and rngCooked[604:607] of math/rand/rng.go.
var (
	lehmerJumps = [2]uint64{222931946, 1869090542}
	cookedWords = [2][3]int64{
		{-1072987336855386047, 4287360518296753003, -4633371852008891965},
		{8382142935188824023, 9103922860780351547, 4152330101494654406},
	}
)

// lehmerMul returns x·a mod (2³¹−1) for x, a < 2³¹−1, reducing the product
// by 2³¹ ≡ 1 instead of dividing.
func lehmerMul(x, a uint64) uint64 {
	x *= a
	x = x&lehmerMod + x>>31
	if x >= lehmerMod {
		x -= lehmerMod
	}
	return x
}

// seededDraws returns the first three Float64s of
// rand.New(rand.NewSource(seed)) by jump-ahead, without allocating.
func seededDraws(seed int64) [3]float64 {
	s := seed % lehmerMod // NewSource's normalisation, exactly
	if s < 0 {
		s += lehmerMod
	}
	if s == 0 {
		s = 89482311
	}
	var words [2][3]int64
	for h := range words {
		x := lehmerMul(lehmerJumps[h], uint64(s))
		for i := range words[h] {
			u := int64(x) << 40
			x = lehmerMul(x, 48271)
			u ^= int64(x) << 20
			x = lehmerMul(x, 48271)
			words[h][i] = u ^ int64(x) ^ cookedWords[h][i]
			x = lehmerMul(x, 48271)
		}
	}
	var out [3]float64
	for k := range out {
		f, ok := unitFloat(words[0][2-k] + words[1][2-k])
		if !ok {
			// Float64 would resample and shift every later draw (odds ≈ 2⁻⁵⁴).
			rng := rand.New(rand.NewSource(seed))
			return [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		out[k] = f
	}
	return out
}

// unitFloat is Float64's conversion of one source output; ok is false when it
// rounds to 1.0, which Float64 rejects and resamples.
func unitFloat(out int64) (f float64, ok bool) {
	f = float64(out&(1<<63-1)) / (1 << 63)
	return f, f != 1
}

// Loss returns the loss at iteration i (i ≥ 0).
func (c LossCurve) Loss(i int) float64 {
	if i < 0 {
		i = 0
	}
	return c.Floor + (c.Init-c.Floor)*math.Pow(1+float64(i)/c.Scale, -c.Alpha)
}

// Observe returns the loss observed at iteration i, with optional
// multiplicative observation noise of relative magnitude noise (e.g. 0.01
// for ±1%) drawn as the first Float64 of math/rand seeded with seed.
func (c LossCurve) Observe(i int, noise float64, seed int64) float64 {
	l := c.Loss(i)
	if noise > 0 {
		l *= 1 + (seededDraws(seed)[0]*2-1)*noise
	}
	return l
}

// ErrorModel perturbs bid valuations to study Themis's robustness to
// mis-estimated ρ (Figure 11). A Theta of 0.1 means each valuation is
// multiplied by a factor drawn uniformly from [0.9, 1.1].
type ErrorModel struct {
	// Theta is the maximum relative error magnitude; 0 disables perturbation.
	Theta float64
	rng   *rand.Rand
}

// NewErrorModel returns an error model with the given magnitude and seed.
func NewErrorModel(theta float64, seed int64) *ErrorModel {
	if theta < 0 {
		theta = 0
	}
	return &ErrorModel{Theta: theta, rng: rand.New(rand.NewSource(seed))}
}

// Perturb returns v multiplied by a uniform factor in [1−Theta, 1+Theta].
// A nil model or zero Theta returns v unchanged.
func (e *ErrorModel) Perturb(v float64) float64 {
	if e == nil || e.Theta == 0 {
		return v
	}
	return v * (1 + (e.rng.Float64()*2-1)*e.Theta)
}
