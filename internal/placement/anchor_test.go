package placement

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"themis/internal/cluster"
)

// sumTakes returns base plus every take, as a fresh map.
func sumTakes(base cluster.Alloc, takes []Take) cluster.Alloc {
	sum := base.Clone()
	for _, t := range takes {
		sum[t.Machine] += t.GPUs
	}
	return sum
}

// randomAdd returns the takes of one Add to an anchor summing to sum: a
// locality-best draw against sum from a pool of its own (what Gandiva and the
// leftover rotation add), or takes of 1–8 GPUs from a few distinct machines
// anywhere (what any draw may log).
func randomAdd(rng *rand.Rand, topo *cluster.Topology, sum cluster.Alloc) []Take {
	var takes []Take
	if rng.Intn(2) == 0 {
		extra, _ := randomPool(rng, topo)
		var q Picker
		var a Anchor
		q.Load(topo, extra)
		a.Load(topo, sum)
		q.DrawTakesAt(&takes, &a, 1+rng.Intn(12), false)
		return takes
	}
	for _, i := range rng.Perm(topo.NumMachines())[:1+rng.Intn(min(3, topo.NumMachines()))] {
		takes = append(takes, Take{Machine: cluster.MachineID(i), GPUs: 1 + rng.Intn(8)})
	}
	return takes
}

// checkStands requires anchor a to stand for the map sum: its entries must be
// sum's machines in the oracle's ByCount order, it must hold exactly sum's
// domains, and
// LocalityWith of takes on any one machine — the anchor's first, or the
// cluster's first or last — must be cluster.LocalityOf sum plus the takes.
func checkStands(t *testing.T, o *oracle, a *Anchor, topo *cluster.Topology, sum cluster.Alloc, what string) {
	t.Helper()
	var want []Take
	for _, m := range o.ByCount(sum) {
		want = append(want, Take{Machine: m, GPUs: sum[m]})
	}
	if got := a.Entries(); !slices.Equal(got, want) {
		t.Fatalf("%s: entries %v, the sum's machines by count are %v", what, got, want)
	}
	for d := range topo.NumDomains() {
		in := false
		for m, n := range sum {
			in = in || n > 0 && topo.DomainIndex(m) == d
		}
		if a.HasDomain(d) != in {
			t.Fatalf("%s: HasDomain(%d) = %v, the sum holds GPUs there: %v", what, d, !in, in)
		}
	}
	probes := []cluster.MachineID{0, cluster.MachineID(topo.NumMachines() - 1)}
	if len(want) > 0 {
		probes = append(probes, want[0].Machine)
	}
	for _, m := range probes {
		for g := range topo.Machine(m).NumGPUs {
			takes := []Take{{Machine: m, GPUs: g + 1}}
			if got, want := a.LocalityWith(takes), cluster.LocalityOf(topo, sumTakes(sum, takes)); got != want {
				t.Fatalf("%s: LocalityWith(%v) = %v, the sum with the takes spans %v", what, takes, got, want)
			}
		}
	}
}

// checkPreparedAnchor prepares an anchor the way the policies do — Load, then
// one Add per entry of adds — and requires it to stand for the summed map
// after every step (checkStands), and LocalityWith of every draw's takes to
// be cluster.LocalityOf the sum plus the takes. Every draw from it — a logged
// locality-best draw (DrawTakesAt), the same into a map and the
// constraint-aware ladder under c — must take what the map-pool oracle takes
// anchored at sum, report that share's Total and locality (Drawn), and leave
// the oracle's pool.
func checkPreparedAnchor(t *testing.T, p *Picker, o *oracle, a *Anchor, topo *cluster.Topology, base cluster.Alloc, adds [][]Take, free cluster.Alloc, count int, c Constraint, what string) {
	t.Helper()
	what = fmt.Sprintf("%s: anchor %v + %v, free %v, count %d, constraint %+v", what, base, adds, free, count, c)
	a.Load(topo, base)
	sum := base.Clone()
	checkStands(t, o, a, topo, sum, what+": loaded")
	for k, takes := range adds {
		a.Add(takes)
		sum = sumTakes(sum, takes)
		checkStands(t, o, a, topo, sum, fmt.Sprintf("%s: add %d", what, k))
	}

	// drew checks a draw's share against the oracle's, what the draw reports
	// of itself and what it left, and the anchor's locality with the draw.
	drew := func(form string, takes []Take, share cluster.Alloc, oShare, oPool cluster.Alloc) {
		t.Helper()
		if !maps.Equal(share, oShare) {
			t.Fatalf("%s: %s drew %v, the oracle %v", what, form, share, oShare)
		}
		checkDrawn(t, topo, what+": "+form, share, p.Drawn)
		if left := p.Remaining(nil); !maps.Equal(left, oPool) {
			t.Fatalf("%s: %s left %v, the oracle %v", what, form, left, oPool)
		}
		if got, want := a.LocalityWith(takes), cluster.LocalityOf(topo, sumTakes(sum, takes)); got != want {
			t.Fatalf("%s: %s: LocalityWith(%v) = %v, the sum with the takes spans %v", what, form, takes, got, want)
		}
	}
	var log []Take
	p.Load(topo, free)
	p.DrawTakesAt(&log, a, count, false)
	oPool := free.Clone()
	oShare := o.Draw(nil, topo, oPool, sum, count)
	drew("DrawTakesAt", log, sumTakes(nil, log), oShare, oPool)

	p.Load(topo, free)
	share := cluster.NewAlloc()
	p.begin(share, a, count, Constraint{})
	p.drawBest()
	drew("into a map", log, share, oShare, oPool)

	p.Load(topo, free)
	share = cluster.NewAlloc()
	p.begin(share, a, count, c)
	p.drawFitting()
	oPool = free.Clone()
	drew("constrained", nil, share, o.drawConstrained(nil, topo, oPool, sum, count, c), oPool)
}

// FuzzPreparedAnchorMatchesMap is the prepared anchor's contract: on sim,
// sim-fabric and testbed, an anchor loaded from one map and extended by k
// Adds is the summed map to every draw (checkPreparedAnchor). data gives each
// machine's free count and base anchor share, seed the rest of the case.
func FuzzPreparedAnchorMatchesMap(f *testing.F) {
	topos := []*cluster.Topology{cluster.SimulationCluster(), simFabricTopo(f), cluster.TestbedCluster()}
	for seed := range int64(64) {
		f.Add(uint8(seed%3), seed, []byte{})
	}
	f.Add(uint8(1), int64(7), []byte{3, 2, 0, 0, 4, 0, 1, 1, 2, 0, 0, 3})
	f.Add(uint8(2), int64(9), []byte{2, 1, 2, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, data []byte) {
		topo := topos[int(kind)%len(topos)]
		rng := rand.New(rand.NewSource(seed))
		free, base := randomPool(rng, topo)
		switch {
		case len(data) > 0:
			clear(free)
			clear(base)
			for i, b := range data {
				m := cluster.MachineID(i / 2 % topo.NumMachines())
				if n := int(b) % (topo.Machine(m).NumGPUs + 1); i%2 == 0 {
					free[m] = n
				} else if n > 0 {
					base[m] = n
				}
			}
		case rng.Intn(3) == 0:
			// A few machines only, so single-machine anchors and draws
			// that end inside the anchor's machines are common.
			clear(base)
			for range rng.Intn(3) {
				m := cluster.MachineID(rng.Intn(topo.NumMachines()))
				base[m] = 1 + rng.Intn(topo.Machine(m).NumGPUs)
			}
		}
		var adds [][]Take
		sum := base.Clone()
		for range rng.Intn(5) {
			takes := randomAdd(rng, topo, sum)
			adds = append(adds, takes)
			sum = sumTakes(sum, takes)
		}
		count := 1 + rng.Intn(8)
		if rng.Intn(3) == 0 {
			count = rng.Intn(free.Total() + 3)
		}
		// The anchor held another allocation first, so a Load that keeps
		// anything of it fails.
		var a Anchor
		a.Load(topo, free)
		a.Add(randomAdd(rng, topo, free))
		checkPreparedAnchor(t, new(Picker), new(oracle), &a, topo, base, adds, free, count, randomConstraint(rng, topo), "fuzz")
	})
}
