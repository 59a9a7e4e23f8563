package core

import (
	"math"
	"slices"
	"strings"
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
	if got := emptyRowRho(good); got != 8 {
		t.Errorf("empty row's ρ = %v, want 8", got)
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
	for _, rho := range []float64{0, -1, math.NaN(), math.SmallestNonzeroFloat64} {
		badRho := BidTable{App: "a", Entries: []BidEntry{{Alloc: cluster.NewAlloc(), Rho: rho}}}
		if err := badRho.Validate(offer); err == nil {
			t.Errorf("ρ %v (1/ρ = %v) should fail validation", rho, 1/rho)
		}
	}
}

// emptyRowRho returns the ρ of t's empty-allocation row (the app's current
// finish-time fairness), or Unbounded if t has no such row.
func emptyRowRho(t BidTable) float64 {
	for _, e := range t.Entries {
		if e.Alloc.Total() == 0 {
			return e.Rho
		}
	}
	return Unbounded
}

func TestBidEntryValueHomogeneity(t *testing.T) {
	// V = 1/ρ: a lone bidder's objective is the log value of its best row,
	// so halving that row's ρ doubles the value — adds log 2.
	topo := testTopo(t, 2, 4, 2)
	objective := func(rho float64) float64 {
		bids := []BidTable{{App: "a", Entries: []BidEntry{
			{Alloc: cluster.NewAlloc(), Rho: 50},
			{Alloc: cluster.Alloc{0: 4}, Rho: rho},
		}}}
		res, err := RunPartialAllocation(topo, cluster.Alloc{0: 4}, bids, AuctionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Objective
	}
	if got := objective(4); math.Abs(got-math.Log(1.0/4)) > 1e-12 {
		t.Errorf("objective at ρ=4 is %v, want log(1/4)", got)
	}
	if diff := objective(2) - objective(4); math.Abs(diff-math.Log(2)) > 1e-12 {
		t.Errorf("halving ρ moved the log value by %v, want log 2", diff)
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
	cur := emptyRowRho(bid)
	for _, e := range bid.Entries {
		if e.Alloc.Total() > 0 && e.Rho > cur {
			t.Errorf("allocation row %v has worse rho %v than current %v", e.Alloc, e.Rho, cur)
		}
	}
	// More GPUs should never hurt: the best row should use several GPUs.
	best := BidEntry{Rho: Unbounded, Alloc: cluster.NewAlloc()}
	for _, e := range bid.Entries {
		if e.Rho < best.Rho {
			best = e
		}
	}
	if best.Alloc.Total() < 4 {
		t.Errorf("best bid row uses only %d GPUs", best.Alloc.Total())
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

// splitOf begins a valuation call of total, splits it across the active
// jobs without the estimator's early stop, so that every job the pool can
// feed is served, and returns every job's run summed per machine (indexed
// like the active jobs) and the jobs served.
func splitOf(e *RhoEstimator, total cluster.Alloc) (shares []cluster.Alloc, served []int) {
	e.beginCall(total)
	served = e.splitAcrossJobs(nil)
	for i := range e.split.Jobs {
		share := cluster.NewAlloc()
		for _, tk := range e.split.Run(i) {
			share[tk.Machine] += tk.GPUs
		}
		shares = append(shares, share)
	}
	return shares, served
}

// TestAgentSplitForJobs covers the job split an Agent values its bids with
// (the estimator's view of placement.Picker.Split): every GPU is handed out
// and no job exceeds its parallelism limit.
func TestAgentSplitForJobs(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	app := testApp("a", 0, placement.VGG16, 3, 100, 4)
	est := agentFor(topo, app).Estimator
	shares, _ := splitOf(est, cluster.Alloc{0: 4, 1: 4})
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

// TestSplitAcrossJobsEmptiesUnservedShares pins the split's served-prefix
// contract across valuation calls: after a wide split, a job finishing (which
// shifts the active jobs' indices) and a narrow split in the next call, the
// served jobs' runs hold what the reference split gives them and every other
// job's run is empty.
func TestSplitAcrossJobsEmptiesUnservedShares(t *testing.T) {
	ps, free := wideFixture(t)
	for i, p := range ps {
		ag := p.state.Agent.(*Agent)
		e := ag.Estimator
		if _, served := splitOf(e, free); len(served) < 3 {
			t.Fatalf("agent %d: the wide split served %d jobs; the fixture must feed several", i, len(served))
		}
		j := ag.App.Jobs[0]
		if _, done := ag.App.AdvanceJob(j, 1, math.MaxFloat64, j.Width(), 1); !done {
			t.Fatalf("agent %d: job %s did not finish", i, j.ID)
		}
		narrow := cluster.Alloc{}
		for m, n := range free {
			narrow[m] = n
			break
		}
		shares, served := splitOf(e, narrow)
		ref := refSplitAcrossJobs(e, narrow, ag.App.AppendActiveJobs(nil))
		if len(shares) != len(ref) {
			t.Fatalf("agent %d: %d runs for %d active jobs", i, len(shares), len(ref))
		}
		for k, share := range shares {
			switch {
			case slices.Contains(served, k):
				if !share.Equal(ref[k]) {
					t.Errorf("agent %d job %d: served share %v, reference %v", i, k, share, ref[k])
				}
			case share.Total() != 0:
				t.Errorf("agent %d: share %d holds %v but the split served only %v", i, k, share, served)
			}
		}
	}
}

func TestCandidateSizes(t *testing.T) {
	var v BidValuator
	candidateSizes := func(offered, unmet, gang int) []int {
		return slices.Clone(v.candidateSizes(offered, unmet, gang)) // the valuator reuses its slice
	}
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
	// The enumeration, spelled out: gang multiples 1–4×, doublings from 8×
	// below the cap, the cap, a half-gang row; distinct and ascending.
	for _, c := range []struct {
		offered, unmet, gang int
		want                 []int
	}{
		{64, 64, 1, []int{1, 2, 3, 4, 8, 16, 32, 64}},
		{64, 17, 4, []int{2, 4, 8, 12, 16, 17}},
		{5, 100, 8, []int{4, 5}},
		{3, 3, 2, []int{1, 2, 3}},
		{128, 96, 2, []int{1, 2, 4, 6, 8, 16, 32, 64, 96}},
	} {
		if got := candidateSizes(c.offered, c.unmet, c.gang); !slices.Equal(got, c.want) {
			t.Errorf("candidateSizes(%d,%d,%d) = %v, want %v", c.offered, c.unmet, c.gang, got, c.want)
		}
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
	if len(res.Awards) != len(bids) {
		t.Fatalf("%d awards for %d bids", len(res.Awards), len(bids))
	}
	// All winners' allocations plus the leftover must exactly cover the offer.
	covered := res.Leftover.Clone()
	for _, aw := range res.Awards {
		covered = covered.Add(aw.Won)
	}
	if !covered.Equal(offer) {
		t.Errorf("winners+leftover %v != offer %v", covered, offer)
	}
	// The far-from-fair app (bids[0]) must win GPUs.
	if res.Awards[0].Won.Total() == 0 {
		t.Error("far-from-fair app won nothing")
	}
	for i, aw := range res.Awards {
		// Hidden payments are fractions in [0,1].
		if aw.C < 0 || aw.C > 1 {
			t.Errorf("hidden payment for %s = %v outside [0,1]", bids[i].App, aw.C)
		}
		// Winners never exceed their proportional-fair share.
		if aw.Won.Total() > aw.PF.Total() {
			t.Errorf("app %s final %d exceeds pf %d", bids[i].App, aw.Won.Total(), aw.PF.Total())
		}
	}
}

func TestPartialAllocationEmptyInputs(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	res, err := RunPartialAllocation(topo, cluster.NewAlloc(), nil, AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Awards) != 0 || res.Leftover.Total() != 0 {
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

// TestPartialAllocationRejectsInvalidBid: the auction's one input check runs
// while the solver compiles the rows, and every way a table can be malformed
// still surfaces from RunPartialAllocation as an error naming the app.
func TestPartialAllocationRejectsInvalidBid(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	empty := BidEntry{Alloc: cluster.NewAlloc(), Rho: 9}
	good := BidTable{App: "good", Entries: []BidEntry{empty, {Alloc: cluster.Alloc{0: 2}, Rho: 3}}}
	for name, entries := range map[string][]BidEntry{
		"over-offer":          {empty, {Alloc: cluster.Alloc{0: 9}, Rho: 1}},
		"machine not offered": {empty, {Alloc: cluster.Alloc{1: 1}, Rho: 1}},
		"negative GPUs":       {empty, {Alloc: cluster.Alloc{0: -1}, Rho: 1}},
		"zero rho":            {empty, {Alloc: cluster.Alloc{0: 1}, Rho: 0}},
		"negative rho":        {{Alloc: cluster.NewAlloc(), Rho: -1}},
		"no empty row":        {{Alloc: cluster.Alloc{0: 1}, Rho: 1}},
		"no rows":             nil,
	} {
		bids := []BidTable{good, {App: "bad-app", Entries: entries}}
		_, err := RunPartialAllocation(topo, cluster.Alloc{0: 4}, bids, AuctionOptions{})
		if err == nil {
			t.Errorf("%s: invalid bid should be rejected", name)
		} else if !strings.Contains(err.Error(), "bad-app") {
			t.Errorf("%s: error %q does not name the app", name, err)
		}
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
		best := emptyRowRho(truthB)
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
	// b bids second in both auctions.
	honestB, lyingB := honest.Awards[1], lying.Awards[1]
	honestUtility := trueRho(honestB.Won)
	lyingUtility := trueRho(lyingB.Won)
	// Allow a tiny tolerance for the discretisation of c_i into whole GPUs.
	if lyingUtility < honestUtility*0.95 {
		t.Errorf("lying improved b's true outcome: honest ρ=%v lying ρ=%v (hidden payments honest=%v lying=%v)",
			honestUtility, lyingUtility, honestB.C, lyingB.C)
	}
	// The liar must pay a larger hidden payment (keep a smaller fraction).
	if lyingB.C > honestB.C+1e-9 {
		t.Errorf("lying reduced b's hidden payment: %v vs %v", lyingB.C, honestB.C)
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
	for _, aw := range res.Awards {
		pfUsed = pfUsed.Add(aw.PF)
	}
	free := offer.Clone()
	if err := free.Debit(pfUsed); err != nil {
		t.Fatal(err)
	}
	for i, b := range bids {
		cur := res.Awards[i].PF
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
			extra := e.Alloc.Clone()
			if extra.Debit(cur) != nil {
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
	curA, curB := cluster.Alloc{0: 2}, cluster.Alloc{1: 4}
	candidates := func(wantA, wantB int) []LeftoverCandidate {
		return []LeftoverCandidate{
			{ID: "a", Current: curA, Want: wantA, Chunk: 2}, // machine-local extension possible
			{ID: "b", Current: curB, Want: wantB, Chunk: 1}, // no leftover on its machines
		}
	}
	cands := candidates(4, 1)
	var picker placement.Picker
	picker.Load(topo, leftover)
	byID := []int32{0, 1}
	AllocateLeftovers(&picker, cands, byID)
	total := 0
	for _, c := range cands {
		total += c.Grant.Total()
	}
	if total != 3 {
		t.Errorf("leftovers not fully allocated: %+v", cands)
	}
	// App a should receive the GPUs on machine 0 (extends its allocation).
	if cands[0].Grant[0] == 0 {
		t.Errorf("app a should extend its machine-0 allocation, got %v", cands[0].Grant)
	}
	// Nobody exceeds its want, and the wants were counted down.
	if a, b := cands[0], cands[1]; a.Grant.Total() > 4 || b.Grant.Total() > 1 || a.Want != 4-a.Grant.Total() || b.Want != 1-b.Grant.Total() {
		t.Errorf("grants %v / %v against wants 4 / 1, remaining %d / %d", a.Grant, b.Grant, a.Want, b.Want)
	}
	// The grants were drawn out of the loaded pool, and the caller's maps,
	// Current included, are only read: each candidate's anchor carries its
	// holding extended by its grant.
	if picker.Total() != 0 {
		t.Errorf("pool after granting everything = %v, want empty", picker.Remaining(nil))
	}
	if !leftover.Equal(cluster.Alloc{0: 2, 3: 1}) || !curA.Equal(cluster.Alloc{0: 2}) || !curB.Equal(cluster.Alloc{1: 4}) {
		t.Errorf("caller's maps were written: leftover %v, currents %v %v", leftover, curA, curB)
	}
	for i, cur := range []cluster.Alloc{curA, curB} {
		c := &cands[i]
		if !c.Current.Equal(cur) {
			t.Errorf("%s's Current after its grants = %v, want the caller's %v", c.ID, c.Current, cur)
		}
		held := cluster.NewAlloc()
		for _, e := range c.anchor.Entries() {
			held[e.Machine] += e.GPUs
		}
		if want := cur.Add(c.Grant); c.Grant != nil && !held.Equal(want) {
			t.Errorf("%s's anchor after its grants = %v, want %v", c.ID, held, want)
		}
	}
	// With no candidates, nothing is granted.
	picker.Load(topo, leftover)
	AllocateLeftovers(&picker, nil, nil)
	if picker.Total() != 3 {
		t.Errorf("pool drawn from with no candidates: %v", picker.Remaining(nil))
	}
	// Wants of zero leave GPUs unallocated.
	none := candidates(0, 0)
	AllocateLeftovers(&picker, none, byID)
	if none[0].Grant != nil || none[1].Grant != nil || picker.Total() != 3 {
		t.Errorf("grants despite zero wants: %+v (pool %v)", none, picker.Remaining(nil))
	}
}
