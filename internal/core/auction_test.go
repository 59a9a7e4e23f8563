package core

import (
	"math"
	"testing"

	"themis/internal/cluster"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/workload"
)

func agentFor(topo *cluster.Topology, app *workload.App) *Agent {
	return NewAgent(topo, app, hyperparam.ForApp(app), nil)
}

func TestBidTableValidateAndAccessors(t *testing.T) {
	offer := cluster.Alloc{0: 4}
	good := BidTable{App: "a", Entries: []BidEntry{
		{Alloc: cluster.NewAlloc(), Rho: 8},
		{Alloc: cluster.Alloc{0: 4}, Rho: 2},
	}}
	if err := good.Validate(offer); err != nil {
		t.Errorf("valid bid rejected: %v", err)
	}
	if got := good.CurrentRho(); got != 8 {
		t.Errorf("CurrentRho = %v, want 8", got)
	}
	if got := good.Best(); got.Rho != 2 {
		t.Errorf("Best rho = %v, want 2", got.Rho)
	}
	noEmpty := BidTable{App: "a", Entries: []BidEntry{{Alloc: cluster.Alloc{0: 1}, Rho: 2}}}
	if err := noEmpty.Validate(offer); err == nil {
		t.Error("bid without empty row should fail validation")
	}
	tooBig := BidTable{App: "a", Entries: []BidEntry{
		{Alloc: cluster.NewAlloc(), Rho: 8},
		{Alloc: cluster.Alloc{0: 9}, Rho: 2},
	}}
	if err := tooBig.Validate(offer); err == nil {
		t.Error("bid exceeding offer should fail validation")
	}
	badRho := BidTable{App: "a", Entries: []BidEntry{{Alloc: cluster.NewAlloc(), Rho: 0}}}
	if err := badRho.Validate(offer); err == nil {
		t.Error("non-positive rho should fail validation")
	}
	if got := (BidTable{App: "x"}).CurrentRho(); got != Unbounded {
		t.Errorf("CurrentRho of empty table = %v, want Unbounded", got)
	}
}

func TestBidEntryValueHomogeneity(t *testing.T) {
	// V = 1/ρ: halving ρ doubles the value.
	a := BidEntry{Rho: 4}
	b := BidEntry{Rho: 2}
	if math.Abs(b.Value()/a.Value()-2) > 1e-9 {
		t.Errorf("value not inversely proportional to rho")
	}
	if (BidEntry{Rho: 0}).Value() <= 0 {
		t.Error("zero rho must still map to a positive value")
	}
}

func TestAgentPrepareBid(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	app := testApp("a", 0, placement.VGG16, 2, 200, 4)
	ag := agentFor(topo, app)
	offer := cluster.Alloc{0: 4, 1: 4, 2: 2}
	bid := ag.PrepareBid(0, offer, cluster.NewAlloc())
	if err := bid.Validate(offer); err != nil {
		t.Fatalf("prepared bid invalid: %v", err)
	}
	if len(bid.Entries) < 2 {
		t.Fatalf("bid should contain candidate allocations, got %d entries", len(bid.Entries))
	}
	if len(bid.Entries) > DefaultMaxBidRows {
		t.Errorf("bid has %d rows, cap is %d", len(bid.Entries), DefaultMaxBidRows)
	}
	// The empty row carries the (unbounded) current rho; all non-empty rows
	// must improve on it.
	cur := bid.CurrentRho()
	for _, e := range bid.Entries {
		if e.Alloc.Total() > 0 && e.Rho > cur {
			t.Errorf("allocation row %v has worse rho %v than current %v", e.Alloc, e.Rho, cur)
		}
	}
	// More GPUs should never hurt: the best row should use several GPUs.
	if bid.Best().Alloc.Total() < 4 {
		t.Errorf("best bid row uses only %d GPUs", bid.Best().Alloc.Total())
	}
}

func TestAgentUnmetParallelism(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	app := testApp("a", 0, placement.ResNet50, 2, 100, 4)
	ag := agentFor(topo, app)
	if got := ag.UnmetParallelism(cluster.NewAlloc()); got != 8 {
		t.Errorf("UnmetParallelism = %d, want 8", got)
	}
	if got := ag.UnmetParallelism(cluster.Alloc{0: 3}); got != 5 {
		t.Errorf("UnmetParallelism = %d, want 5", got)
	}
	if got := ag.UnmetParallelism(cluster.Alloc{0: 4, 1: 4}); got != 0 {
		t.Errorf("UnmetParallelism = %d, want 0", got)
	}
}

// TestAgentSplitForJobs covers the job split an Agent values its bids with
// (the estimator's view of placement.Picker.Split): every GPU is handed out
// and no job exceeds its parallelism limit.
func TestAgentSplitForJobs(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	app := testApp("a", 0, placement.VGG16, 3, 100, 4)
	est := agentFor(topo, app).Estimator
	est.beginCall()
	shares := est.splitAcrossJobs(cluster.Alloc{0: 4, 1: 4})
	if len(shares) != len(app.Jobs) {
		t.Fatalf("%d shares for %d jobs", len(shares), len(app.Jobs))
	}
	total := 0
	for i, share := range shares {
		total += share.Total()
		if share.Total() > 4 {
			t.Errorf("job %s got %d GPUs, above its parallelism limit", app.Jobs[i].ID, share.Total())
		}
	}
	if total != 8 {
		t.Errorf("split total = %d, want 8", total)
	}
}

func TestCandidateSizes(t *testing.T) {
	sizes := candidateSizes(16, 12, 4)
	if len(sizes) == 0 {
		t.Fatal("no candidate sizes")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("sizes not strictly increasing: %v", sizes)
		}
	}
	if sizes[len(sizes)-1] != 12 {
		t.Errorf("largest candidate %d, want the unmet parallelism 12", sizes[len(sizes)-1])
	}
	if candidateSizes(0, 5, 4) != nil || candidateSizes(5, 0, 4) != nil {
		t.Error("no sizes should be produced when offer or need is zero")
	}
	one := candidateSizes(100, 3, 0)
	if one[len(one)-1] != 3 {
		t.Errorf("gang 0 should default to 1, got %v", one)
	}
}

func TestPartialAllocationBasics(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	offer := cluster.Alloc{0: 4, 1: 4}
	// App a is far from fair (huge current rho), app b is close to fair.
	bids := []BidTable{
		{App: "a", Entries: []BidEntry{
			{Alloc: cluster.NewAlloc(), Rho: 20},
			{Alloc: cluster.Alloc{0: 4}, Rho: 4},
			{Alloc: cluster.Alloc{0: 4, 1: 4}, Rho: 2.5},
		}},
		{App: "b", Entries: []BidEntry{
			{Alloc: cluster.NewAlloc(), Rho: 2},
			{Alloc: cluster.Alloc{1: 4}, Rho: 1.6},
		}},
	}
	res, err := RunPartialAllocation(topo, offer, bids, AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// All winners' allocations plus the leftover must exactly cover the offer.
	covered := res.Leftover.Clone()
	for _, w := range res.Winners {
		covered = covered.Add(w)
	}
	if !covered.Equal(offer) {
		t.Errorf("winners+leftover %v != offer %v", covered, offer)
	}
	// The far-from-fair app must win GPUs.
	if res.Winners["a"].Total() == 0 {
		t.Error("far-from-fair app won nothing")
	}
	// Hidden payments are fractions in [0,1].
	for id, ci := range res.HiddenPayment {
		if ci < 0 || ci > 1 {
			t.Errorf("hidden payment for %s = %v outside [0,1]", id, ci)
		}
	}
	// Winners never exceed their proportional-fair share.
	for id, w := range res.Winners {
		if w.Total() > res.ProportionalFair[id].Total() {
			t.Errorf("app %s final %d exceeds pf %d", id, w.Total(), res.ProportionalFair[id].Total())
		}
	}
}

func TestPartialAllocationEmptyInputs(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	res, err := RunPartialAllocation(topo, cluster.NewAlloc(), nil, AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Winners) != 0 || res.Leftover.Total() != 0 {
		t.Errorf("empty auction should produce nothing: %+v", res)
	}
	res, err = RunPartialAllocation(topo, cluster.Alloc{0: 2}, nil, AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leftover.Total() != 2 {
		t.Errorf("auction with no bids should leave everything over")
	}
}

func TestPartialAllocationRejectsInvalidBid(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	bids := []BidTable{{App: "a", Entries: []BidEntry{{Alloc: cluster.Alloc{0: 9}, Rho: 1}}}}
	if _, err := RunPartialAllocation(topo, cluster.Alloc{0: 4}, bids, AuctionOptions{}); err == nil {
		t.Error("invalid bid should be rejected")
	}
}

// TestTruthTellingIncentive verifies the mechanism's central property: an
// app that exaggerates how much it would improve (over-reports its valuation
// for GPU subsets) does not end up better off in true-valuation terms,
// because the hidden payment grows with the distortion it imposes on others.
func TestTruthTellingIncentive(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	offer := cluster.Alloc{0: 4, 1: 4}
	truthB := BidTable{App: "b", Entries: []BidEntry{
		{Alloc: cluster.NewAlloc(), Rho: 6},
		{Alloc: cluster.Alloc{0: 4}, Rho: 3},
		{Alloc: cluster.Alloc{1: 4}, Rho: 3.2},
		{Alloc: cluster.Alloc{0: 4, 1: 4}, Rho: 2.4},
	}}
	other := BidTable{App: "a", Entries: []BidEntry{
		{Alloc: cluster.NewAlloc(), Rho: 7},
		{Alloc: cluster.Alloc{0: 4}, Rho: 2.8},
		{Alloc: cluster.Alloc{0: 4, 1: 4}, Rho: 1.9},
	}}
	trueRho := func(alloc cluster.Alloc) float64 {
		best := truthB.CurrentRho()
		for _, e := range truthB.Entries {
			if e.Alloc.Total() <= alloc.Total() && e.Rho < best {
				best = e.Rho
			}
		}
		return best
	}

	honest, err := RunPartialAllocation(topo, offer, []BidTable{other, truthB}, AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Lying: b claims implausibly good improvements (rho 100× lower).
	liarB := BidTable{App: "b"}
	for _, e := range truthB.Entries {
		r := e.Rho
		if e.Alloc.Total() > 0 {
			r = e.Rho / 100
		}
		liarB.Entries = append(liarB.Entries, BidEntry{Alloc: e.Alloc, Rho: r})
	}
	lying, err := RunPartialAllocation(topo, offer, []BidTable{other, liarB}, AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	honestUtility := trueRho(honest.Winners["b"])
	lyingUtility := trueRho(lying.Winners["b"])
	// Allow a tiny tolerance for the discretisation of c_i into whole GPUs.
	if lyingUtility < honestUtility*0.95 {
		t.Errorf("lying improved b's true outcome: honest ρ=%v lying ρ=%v (hidden payments honest=%v lying=%v)",
			honestUtility, lyingUtility, honest.HiddenPayment["b"], lying.HiddenPayment["b"])
	}
	// The liar must pay a larger hidden payment (keep a smaller fraction).
	if lying.HiddenPayment["b"] > honest.HiddenPayment["b"]+1e-9 {
		t.Errorf("lying reduced b's hidden payment: %v vs %v", lying.HiddenPayment["b"], honest.HiddenPayment["b"])
	}
}

// TestParetoEfficiencyOfProportionalFair: no app's valuation can be improved
// without hurting another's in the proportional-fair assignment. We verify a
// necessary condition: no GPU bundle that an app values strictly more is
// left entirely unused by the pf assignment.
func TestParetoEfficiencyOfProportionalFair(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	offer := cluster.Alloc{0: 4, 1: 4, 2: 2}
	bids := []BidTable{
		{App: "a", Entries: []BidEntry{
			{Alloc: cluster.NewAlloc(), Rho: 9},
			{Alloc: cluster.Alloc{0: 4}, Rho: 3},
			{Alloc: cluster.Alloc{0: 4, 1: 4}, Rho: 2},
		}},
		{App: "b", Entries: []BidEntry{
			{Alloc: cluster.NewAlloc(), Rho: 5},
			{Alloc: cluster.Alloc{1: 4}, Rho: 2.5},
			{Alloc: cluster.Alloc{2: 2}, Rho: 4},
		}},
	}
	res, err := RunPartialAllocation(topo, offer, bids, AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pfUsed := cluster.NewAlloc()
	for _, pf := range res.ProportionalFair {
		pfUsed = pfUsed.Add(pf)
	}
	free, _ := offer.Sub(pfUsed)
	for _, b := range bids {
		cur := res.ProportionalFair[b.App]
		curRho := Unbounded
		for _, e := range b.Entries {
			if e.Alloc.Equal(cur) {
				curRho = e.Rho
			}
		}
		for _, e := range b.Entries {
			if e.Rho >= curRho {
				continue
			}
			// A strictly better bundle must not fit entirely in the unused pool.
			extra, err := e.Alloc.Sub(cur)
			if err != nil {
				continue // not a superset of the current allocation
			}
			if fitsWithin(extra, free) {
				t.Errorf("app %s could take %v from unused GPUs and improve from ρ=%v to ρ=%v", b.App, extra, curRho, e.Rho)
			}
		}
	}
}

func fitsWithin(a, pool cluster.Alloc) bool {
	for m, n := range a {
		if n > pool[m] {
			return false
		}
	}
	return true
}

func TestAllocateLeftovers(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	leftover := cluster.Alloc{0: 2, 3: 1}
	currents := map[workload.AppID]cluster.Alloc{
		"a": {0: 2}, // machine-local extension possible
		"b": {1: 4}, // no leftover on its machines
	}
	wants := map[workload.AppID]int{"a": 4, "b": 1}
	chunks := map[workload.AppID]int{"a": 2, "b": 1}
	grants := AllocateLeftovers(topo, leftover, currents, wants, chunks)
	total := cluster.NewAlloc()
	for _, g := range grants {
		total = total.Add(g)
	}
	if total.Total() != 3 {
		t.Errorf("leftovers not fully allocated: %v", grants)
	}
	// App a should receive the GPUs on machine 0 (extends its allocation).
	if grants["a"][0] == 0 {
		t.Errorf("app a should extend its machine-0 allocation, got %v", grants["a"])
	}
	// Nobody exceeds its want.
	for id, g := range grants {
		if g.Total() > wants[id] {
			t.Errorf("app %s granted %d above its want %d", id, g.Total(), wants[id])
		}
	}
	// The grants were drawn out of the caller's pool.
	if len(leftover) != 0 {
		t.Errorf("pool after granting everything = %v, want empty", leftover)
	}
	// With no candidates, nothing is granted.
	leftover = cluster.Alloc{0: 2, 3: 1}
	if got := AllocateLeftovers(topo, leftover, nil, nil, nil); len(got) != 0 {
		t.Errorf("grants with no candidates: %v", got)
	}
	// Wants of zero leave GPUs unallocated.
	none := AllocateLeftovers(topo, leftover, currents, map[workload.AppID]int{"a": 0, "b": 0}, chunks)
	if len(none) != 0 || leftover.Total() != 3 {
		t.Errorf("grants despite zero wants: %v (pool %v)", none, leftover)
	}
}

func TestLeaseTable(t *testing.T) {
	lt := NewLeaseTable()
	lt.Grant("a", cluster.Alloc{0: 2}, 0, 20)
	lt.Grant("a", cluster.Alloc{1: 2}, 5, 20)
	lt.Grant("b", cluster.Alloc{2: 4}, 10, 20)
	lt.Grant("c", cluster.NewAlloc(), 0, 20) // ignored
	if lt.Len() != 3 {
		t.Fatalf("Len = %d, want 3", lt.Len())
	}
	if got := lt.HeldBy("a").Total(); got != 4 {
		t.Errorf("HeldBy(a) = %d, want 4", got)
	}
	next, ok := lt.NextExpiry()
	if !ok || next != 20 {
		t.Errorf("NextExpiry = %v,%v want 20,true", next, ok)
	}
	exp := lt.Expired(21)
	if len(exp) != 1 || exp[0].App != "a" {
		t.Errorf("Expired(21) = %v", exp)
	}
	if lt.Len() != 2 {
		t.Errorf("Len after expiry = %d, want 2", lt.Len())
	}
	rel := lt.ReleaseApp("b")
	if len(rel) != 1 || rel[0].Alloc.Total() != 4 {
		t.Errorf("ReleaseApp(b) = %v", rel)
	}
	out := lt.Outstanding()
	if len(out) != 1 || out[0].App != "a" {
		t.Errorf("Outstanding = %v", out)
	}
	if _, ok := NewLeaseTable().NextExpiry(); ok {
		t.Error("empty table should have no next expiry")
	}
}
