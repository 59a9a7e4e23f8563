package estimator

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"themis/internal/workload"
)

func TestLossCurveMonotone(t *testing.T) {
	c := LossCurve{Init: 2.5, Floor: 0.2, Scale: 100, Alpha: 0.9}
	prev := math.Inf(1)
	for i := 0; i <= 2000; i += 50 {
		l := c.Loss(i)
		if l > prev+1e-12 {
			t.Fatalf("loss increased at iteration %d: %v > %v", i, l, prev)
		}
		if l < c.Floor-1e-12 {
			t.Fatalf("loss %v fell below floor %v", l, c.Floor)
		}
		prev = l
	}
	if got := c.Loss(-5); got != c.Loss(0) {
		t.Errorf("negative iteration should clamp to 0")
	}
}

func TestCurveForJobQualityOrdering(t *testing.T) {
	good := workload.NewJob("a", 0, 100, 4)
	good.Quality, good.Seed = 0.05, 42
	bad := workload.NewJob("a", 1, 100, 4)
	bad.Quality, bad.Seed = 0.95, 43
	cg, cb := CurveForJob(good), CurveForJob(bad)
	if cg.Floor >= cb.Floor {
		t.Errorf("better trial should reach a lower floor: %v vs %v", cg.Floor, cb.Floor)
	}
	// Deterministic under the same seed.
	if CurveForJob(good) != cg {
		t.Error("CurveForJob not deterministic")
	}
}

func TestErrorModel(t *testing.T) {
	if got := (*ErrorModel)(nil).Perturb(3.0); got != 3.0 {
		t.Errorf("nil model should be identity, got %v", got)
	}
	if got := NewErrorModel(0, 1).Perturb(3.0); got != 3.0 {
		t.Errorf("zero theta should be identity, got %v", got)
	}
	m := NewErrorModel(0.2, 5)
	f := func(v float64) bool {
		v = math.Abs(v)
		if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return true
		}
		p := m.Perturb(v)
		return p >= v*0.8-1e-12 && p <= v*1.2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Negative theta clamps to zero.
	if NewErrorModel(-1, 1).Theta != 0 {
		t.Error("negative theta should clamp to 0")
	}
}

// sample returns the losses observed on c at the given iterations, with
// multiplicative noise of relative magnitude noise drawn from one math/rand
// generator seeded with seed. It is the multi-point form Observe replaced,
// and Observe's oracle.
func sample(c LossCurve, iters []int, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, len(iters))
	for k, i := range iters {
		l := c.Loss(i)
		if noise > 0 {
			l *= 1 + (rng.Float64()*2-1)*noise
		}
		out[k] = l
	}
	return out
}

func TestSampleDeterministic(t *testing.T) {
	c := LossCurve{Init: 2, Floor: 0.2, Scale: 50, Alpha: 1}
	a := sample(c, []int{0, 10, 20}, 0.05, 7)
	b := sample(c, []int{0, 10, 20}, 0.05, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sample not deterministic under same seed")
		}
	}
	if c.Observe(10, 0.05, 7) != c.Observe(10, 0.05, 7) {
		t.Fatal("Observe not deterministic under same seed")
	}
}
