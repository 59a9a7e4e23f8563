package estimator

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"themis/internal/race"
	"themis/internal/workload"
)

// curveForJobMathRand is CurveForJob as it read before the jump-ahead: a fresh
// math/rand generator per curve. It is the oracle the seeded draws must match.
func curveForJobMathRand(j *workload.Job) LossCurve {
	rng := rand.New(rand.NewSource(j.Seed))
	return LossCurve{
		Init:  2.0 + rng.Float64()*1.0,
		Floor: 0.05 + j.Quality*0.8,
		Scale: 40 + rng.Float64()*160,
		Alpha: 0.6 + (1-j.Quality)*0.9 + rng.Float64()*0.2,
	}
}

// edgeSeeds are the seeds at NewSource's normalisation boundaries: zero and
// its remap target, ±1, multiples of 2³¹−1 and their neighbours, and the
// int64 extremes.
func edgeSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for _, k := range []int64{1, 2, 3, 1 << 20, math.MaxInt64 / lehmerMod} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, k*lehmerMod+d, -k*lehmerMod+d)
		}
	}
	return seeds
}

func checkCurve(t *testing.T, seed int64, quality float64) {
	t.Helper()
	j := &workload.Job{Seed: seed, Quality: quality}
	if got, want := CurveForJob(j), curveForJobMathRand(j); got != want {
		t.Fatalf("seed %d quality %v: CurveForJob = %+v, math/rand gives %+v", seed, quality, got, want)
	}
}

// TestCurveForJobMatchesMathRand pins the jump-ahead to math/rand's seeded
// stream over the edge seeds and a million random ones (a twentieth of them
// under -race, whose instrumentation makes each math/rand seeding ~10× dearer).
func TestCurveForJobMatchesMathRand(t *testing.T) {
	for _, s := range edgeSeeds() {
		checkCurve(t, s, 0.5)
	}
	n := 1_000_000
	if race.Enabled {
		n /= 20
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := w; i < n; i += workers {
				j := &workload.Job{Seed: int64(rng.Uint64()), Quality: rng.Float64()}
				if i%4 == 0 {
					j.Seed %= 1 << 32 // small seeds, as workloads draw them
				}
				if got, want := CurveForJob(j), curveForJobMathRand(j); got != want {
					t.Errorf("seed %d quality %v: CurveForJob = %+v, math/rand gives %+v", j.Seed, j.Quality, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLehmerJumps re-derives the jump constants by walking the chain.
func TestLehmerJumps(t *testing.T) {
	x := uint64(1)
	for n := 1; n <= 1833; n++ {
		x = x * 48271 % lehmerMod
		if n == 1014 && x != lehmerJumps[0] || n == 1833 && x != lehmerJumps[1] {
			t.Errorf("48271^%d mod (2³¹−1) = %d, not in lehmerJumps %v", n, x, lehmerJumps)
		}
	}
}

// TestUnitFloatResamplesAtOne pins the conversion's resample branch: the
// largest Int63 rounds to 1.0, which Float64 rejects.
func TestUnitFloatResamplesAtOne(t *testing.T) {
	if f, ok := unitFloat(math.MaxInt64); ok || f != 1 {
		t.Errorf("unitFloat(2⁶³−1) = %v, %v; want 1, false", f, ok)
	}
	// Bit 63 is masked off, as Int63 does.
	if f, ok := unitFloat(-1); ok || f != 1 {
		t.Errorf("unitFloat(-1) = %v, %v; want 1, false", f, ok)
	}
	if f, ok := unitFloat(1 << 62); !ok || f != 0.5 {
		t.Errorf("unitFloat(2⁶²) = %v, %v; want 0.5, true", f, ok)
	}
	// The largest output below the rounding boundary stays a draw.
	if f, ok := unitFloat(math.MaxInt64 - 1<<9); !ok || f >= 1 {
		t.Errorf("unitFloat(2⁶³−2⁹−1) = %v, %v; want < 1, true", f, ok)
	}
}

// TestObserveMatchesSample pins Observe to the multi-point sample it
// replaced: one point, the same seed, the same noise.
func TestObserveMatchesSample(t *testing.T) {
	c := LossCurve{Init: 2.4, Floor: 0.3, Scale: 90, Alpha: 0.8}
	for _, s := range edgeSeeds() {
		for _, noise := range []float64{0, 0.01, 0.5} {
			if got, want := c.Observe(170, noise, s), sample(c, []int{170}, noise, s)[0]; got != want {
				t.Fatalf("seed %d noise %v: Observe = %v, sample gives %v", s, noise, got, want)
			}
		}
	}
}

func FuzzCurveForJobMatchesMathRand(f *testing.F) {
	for _, s := range edgeSeeds() {
		f.Add(s, 0.5)
	}
	f.Add(int64(42), 0.05)
	f.Fuzz(func(t *testing.T, seed int64, quality float64) {
		if math.IsNaN(quality) {
			quality = 0 // NaN fields never compare equal
		}
		checkCurve(t, seed, quality)
		c := LossCurve{Init: 2, Floor: 0.2, Scale: 50, Alpha: 1}
		if got, want := c.Observe(100, 0.05, seed), sample(c, []int{100}, 0.05, seed)[0]; got != want {
			t.Fatalf("seed %d: Observe = %v, sample gives %v", seed, got, want)
		}
	})
}

var curveSink LossCurve

func BenchmarkCurveForJob(b *testing.B) {
	j := &workload.Job{Quality: 0.3}
	b.ReportAllocs()
	for b.Loop() {
		j.Seed++
		curveSink = CurveForJob(j)
	}
}
