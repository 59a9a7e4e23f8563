package experiments

import (
	"fmt"
	"math"
)

// The bounds the scorecard holds the paper's claims to.
const (
	// §8.3, Fig. 5a: Themis's max ρ is ≈7 % from the ideal scheduler's. We
	// accept a gap of up to idealGapPct either way.
	idealGapPct = 10.0
	// §2, Fig. 2: spreading 4 GPUs over two servers slows VGG16 badly and
	// ResNet50 barely at all.
	vgg16SlowdownMax    = 0.75
	resnet50SlowdownMin = 0.9
	// §8, Fig. 11: even 20 % error in bid valuations leaves max ρ close to
	// the error-free run's; we accept a relative drift up to bidErrorDrift.
	bidErrorDrift = 0.25
)

// paperJCTImprovement is Themis's mean-JCT improvement over each scheme, in
// percent, as §8.3 quotes it for Fig. 6.
var paperJCTImprovement = map[string]float64{"gandiva": 4.6, "slaq": 55.5, "tiresias": 24.4}

// scorecard checks the paper's claims against the figure tables of s: one
// row per claim, with what the paper says, what this run gets, and PASS or
// FAIL. A claim that fails is a recorded row, not a skipped one.
func scorecard(s *tableSet) (Table, error) {
	fig := make(map[string]Table)
	for _, name := range []string{"2", "4a", "4b", "4c", "5a", "5b", "6", "9a", "10", "11"} {
		t, err := s.get(name)
		if err != nil {
			return Table{}, err
		}
		fig[name] = t
	}
	card := Table{
		Name:    scorecardName,
		Title:   "Scorecard: the paper's claims against these runs",
		Columns: []Column{{"claim", "%s"}, {"paper_says", "%s"}, {"we_get", "%s"}, {"pass", "%s"}},
		Footer: []Note{
			{Format: "ideal max rho is the testbed workload's peak demand over capacity (the paper's 4.76x contention)"},
			{Format: "T_ID is each job's maximum parallelism on a dedicated cluster, not a 1/N share, and counts ended jobs"},
		},
	}
	add := func(claim, paper string, pass bool, format string, args ...any) {
		verdict := "FAIL"
		if pass {
			verdict = "PASS"
		}
		card.Rows = append(card.Rows, []any{claim, paper, fmt.Sprintf(format, args...), verdict})
	}

	vgg := fig["2"].Lookup("model", "VGG16", "slowdown")
	resnet := fig["2"].Lookup("model", "ResNet50", "slowdown")
	add("2: spreading slows VGG16, not ResNet50", fmt.Sprintf("VGG16 < %.2f, ResNet50 > %.2f", vgg16SlowdownMax, resnet50SlowdownMin),
		vgg < vgg16SlowdownMax && resnet > resnet50SlowdownMin, "VGG16 %.2f, ResNet50 %.2f", vgg, resnet)

	rho := fig["4a"].Floats("max_rho")
	add("4a: max rho falls as f rises", "falls from f=0 to f=1", rho[len(rho)-1] < rho[0],
		"%.3f at f=0, %.3f at f=1", rho[0], rho[len(rho)-1])
	gpu := fig["4b"].Floats("gpu_time_min")
	add("4b: GPU time rises as f rises", "rises from f=0 to f=1", gpu[len(gpu)-1] > gpu[0],
		"%.0f at f=0, %.0f at f=1", gpu[0], gpu[len(gpu)-1])
	rho = fig["4c"].Floats("max_rho")
	add("4c: max rho rises with lease length", "rises from 5 to 40 min", rho[len(rho)-1] > rho[0],
		"%.3f at 5 min, %.3f at 40 min", rho[0], rho[len(rho)-1])

	themisRho := fig["5a"].Lookup("scheme", "themis", "max_rho")
	rival, rivalRho := bestRival(fig["5a"], "max_rho", func(a, b float64) bool { return a < b })
	add("5a: Themis has the lowest max rho", "lowest of 4 schemes", themisRho < rivalRho,
		"themis %.3f, best other %s %.3f", themisRho, rival, rivalRho)

	ideal := fig["5a"].Notes[0].Args[0].(float64)
	gap := fig["5a"].Lookup("scheme", "themis", "pct_from_ideal")
	add("5a: Themis's max rho is near the ideal", "~7% from ideal", math.Abs(gap) <= idealGapPct,
		"%.1f%% from ideal %.2f", gap, ideal)

	themisJain := fig["5b"].Lookup("scheme", "themis", "jains_index")
	rival, rivalJain := bestRival(fig["5b"], "jains_index", func(a, b float64) bool { return a > b })
	add("5b: Themis has the highest Jain's index", "highest of 4 schemes", themisJain > rivalJain,
		"themis %.3f, best other %s %.3f", themisJain, rival, rivalJain)

	for _, n := range fig["6"].Footer[1:] { // after the heading, one "vs <scheme>" note each
		scheme, pct := n.Args[0].(string), n.Args[1].(float64)
		add("6: Themis's mean JCT beats "+scheme, fmt.Sprintf("%.1f%% better", paperJCTImprovement[scheme]), pct > 0,
			"%.1f%% better", pct)
	}

	factor := fig["9a"].Floats("factor")
	add("9a: gain over Tiresias grows with network share", "grows from 0% to 100%", factor[len(factor)-1] > factor[0],
		"%.2fx at 0%%, %.2fx at 100%%", factor[0], factor[len(factor)-1])

	levels, themis, tiresias := fig["10"].Floats("contention"), fig["10"].Floats("themis"), fig["10"].Floats("tiresias")
	worst := 0
	for i := range levels {
		if themis[i]-tiresias[i] < themis[worst]-tiresias[worst] {
			worst = i
		}
	}
	add("10: Themis's Jain's index >= Tiresias's", "at every contention", themis[worst] >= tiresias[worst],
		"worst at %.0fX: %.3f vs %.3f", levels[worst], themis[worst], tiresias[worst])

	rho = fig["11"].Floats("max_rho")
	drift := rho[len(rho)-1]/rho[0] - 1
	add("11: max rho at 20% bid error stays near 0%", fmt.Sprintf("within %.0f%%", 100*bidErrorDrift), math.Abs(drift) <= bidErrorDrift,
		"%.3f at 0%%, %.3f at 20%% (%+.1f%%)", rho[0], rho[len(rho)-1], 100*drift)
	return card, nil
}

// bestRival returns the scheme other than Themis whose value in col of a
// per-scheme table is best, where better reports whether a beats b.
func bestRival(t Table, col string, better func(a, b float64) bool) (string, float64) {
	scheme, best := "", math.NaN()
	vals := t.Floats(col)
	for i, s := range t.Cells("scheme") {
		if s != "themis" && (scheme == "" || better(vals[i], best)) {
			scheme, best = s.(string), vals[i]
		}
	}
	return scheme, best
}
