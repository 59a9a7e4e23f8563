package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"themis/internal/cluster"
	"themis/internal/workload"
)

// refRankProbes is the parent's step 2, verbatim: a full sort of every probe
// by decreasing ρ, then app ID. Its comparator ties two NaNs without looking
// at the ID, so it is the oracle only for inputs with at most one NaN.
func refRankProbes(ps []probedAgent) {
	slices.SortFunc(ps, func(a, b probedAgent) int {
		if a.rho != b.rho {
			return cmp.Compare(b.rho, a.rho)
		}
		return cmp.Compare(a.id, b.id)
	})
}

// offerRhos is the ρ palette the selection fuzz draws from: heavy ties at 1
// (the idle majority), starved apps' Unbounded·(1+elapsed), the infinities,
// NaN and both zeros.
var offerRhos = []float64{
	1, 1, 1, 1, 1, 1, 2, 0.5, 3,
	Unbounded, Unbounded * (1 + 0.25), Unbounded * (1 + 1e-9), Unbounded * 2,
	math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 1e-12,
}

// probesFrom decodes data into at most 160 probed agents, two bytes each: the
// ρ's palette index and the high part of the app ID (the agent's index keeps
// IDs unique).
func probesFrom(data []byte) []probedAgent {
	ps := make([]probedAgent, min(len(data)/2, 160))
	for i := range ps {
		id := workload.AppID(fmt.Sprintf("%02x-%03d", data[2*i+1]%16, i))
		ps[i] = probedAgent{
			state: AgentState{Agent: nanBidder{id: id}},
			id:    id,
			rho:   offerRhos[int(data[2*i])%len(offerRhos)],
		}
	}
	return ps
}

// FuzzOfferSelectMatchesSort: for every k, selectWorst puts in ps[:k] exactly
// the first k probes of a full WorseOff sort, in that order, reading the IDs
// from the agents the probes index, and leaves a permutation of the input
// behind. Without two NaNs the parent's full sort gives the same prefix too.
func FuzzOfferSelectMatchesSort(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 9, 1, 10, 2})
	f.Add([]byte{15, 3, 15, 1, 16, 2, 17, 0, 13, 4, 14, 5, 9, 9, 11, 0, 10, 0, 12, 0, 15, 2})
	big := make([]byte, 320)
	for i := range big {
		big[i] = byte(i * 7 % 251)
	}
	f.Add(big)
	ties := make([]byte, 320)
	for i := 1; i < len(ties); i += 2 {
		ties[i] = byte(i)
	}
	f.Add(ties)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := probesFrom(data)
		agents, probes := bidAll(in)
		want := slices.Clone(in)
		slices.SortFunc(want, func(a, b probedAgent) int { return WorseOff(a.rho, a.id, b.rho, b.id) })
		nans := 0
		for _, p := range in {
			if math.IsNaN(p.rho) {
				nans++
			}
		}
		if nans < 2 {
			parent := slices.Clone(in)
			refRankProbes(parent)
			if !sameProbes(parent, want) {
				t.Fatalf("WorseOff sort differs from the parent's sort:\n%v\n%v", parent, want)
			}
		}
		for k := 0; k <= len(in); k++ {
			sel := slices.Clone(probes)
			selectWorst(sel, agents, k)
			got := make([]probedAgent, len(sel))
			for i, p := range sel {
				got[i] = in[p.at]
				got[i].rho = p.rho
			}
			if !sameProbes(got[:k], want[:k]) {
				t.Fatalf("k=%d: selected %v, full sort's prefix %v", k, got[:k], want[:k])
			}
			at := make([]int32, len(sel))
			for i, p := range sel {
				at[i] = p.at
			}
			slices.Sort(at)
			for i, a := range at {
				if a != int32(i) {
					t.Fatalf("k=%d: selection is not a permutation of its input", k)
				}
			}
		}
	})
}

// sameProbes compares IDs and ρ bits position by position.
func sameProbes(a, b []probedAgent) bool {
	return slices.EqualFunc(a, b, func(x, y probedAgent) bool {
		return x.id == y.id && math.Float64bits(x.rho) == math.Float64bits(y.rho)
	})
}

// nanBidder reports a NaN ρ and records whether it was offered GPUs; it bids
// only the empty row.
type nanBidder struct {
	id      workload.AppID
	offered *bool
}

func (b nanBidder) ID() workload.AppID                       { return b.id }
func (b nanBidder) ReportRho(float64, cluster.Alloc) float64 { return math.NaN() }
func (b nanBidder) UnmetParallelism(cluster.Alloc) int       { return 0 }
func (b nanBidder) GangSize() int                            { return 1 }
func (b nanBidder) PrepareBid(_ float64, _, _ cluster.Alloc) BidTable {
	*b.offered = true
	return BidTable{App: b.id, Entries: []BidEntry{{Alloc: cluster.NewAlloc(), Rho: 1}}}
}

// TestNaNProbesTieOnID: two bidders probed at NaN tie on ρ, so the app ID
// decides which of them the single-participant offer goes to, whichever
// order the caller lists them in.
func TestNaNProbesTieOnID(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	for _, order := range [][2]workload.AppID{{"nan-a", "nan-b"}, {"nan-b", "nan-a"}} {
		arb, err := NewArbiter(topo, Config{FairnessKnob: 0.5, LeaseDuration: 20})
		if err != nil {
			t.Fatal(err)
		}
		offered := map[workload.AppID]*bool{"nan-a": new(bool), "nan-b": new(bool)}
		var agents []AgentState
		for _, id := range order {
			agents = append(agents, AgentState{Agent: nanBidder{id: id, offered: offered[id]}, Current: cluster.NewAlloc()})
		}
		if _, err := arb.OfferResources(0, cluster.Alloc{0: 4}, agents); err != nil {
			t.Fatal(err)
		}
		if !*offered["nan-a"] || *offered["nan-b"] {
			t.Errorf("agents listed %v: nan-a offered %v, nan-b offered %v; want only nan-a", order, *offered["nan-a"], *offered["nan-b"])
		}
	}
}
