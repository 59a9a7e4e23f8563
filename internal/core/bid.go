package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"themis/internal/cluster"
	"themis/internal/solver"
	"themis/internal/workload"
)

// BidEntry is one row of an Agent's valuation table (Figure 3b): a candidate
// subset of the offered GPUs and the new finish-time fairness metric the app
// estimates it would achieve with that subset added to its current
// allocation. It is the solver's row type, so the table an Agent writes is
// the table the winner determination reads: no second row currency sits
// between valuation and lease (the solver values a row at V = 1/ρ).
type BidEntry = solver.Row

// BidTable is an Agent's reply to an offer: its valuation for selected
// subsets of the offered GPUs, always including the empty subset (the app's
// current ρ).
type BidTable struct {
	App     workload.AppID
	Entries []BidEntry
}

// String renders the table in the paper's Figure 3b style, one row per line.
func (t BidTable) String() string {
	rows := make([]string, 0, len(t.Entries))
	for _, e := range t.Entries {
		rows = append(rows, fmt.Sprintf("%s -> ρ=%.3f", e.Alloc, e.Rho))
	}
	sort.Strings(rows)
	return fmt.Sprintf("bid[%s]{%s}", t.App, strings.Join(rows, "; "))
}

// Validate checks that the table only requests GPUs present in the offer,
// carries positive ρ whose valuation 1/ρ is finite (so NaN, and a ρ small
// enough for 1/ρ to overflow, are refused) and contains an empty row. It is
// the check for a table from outside the process (the rpc package's remote
// bidders); the auction itself checks the same conditions while it compiles
// the rows.
func (t BidTable) Validate(offer cluster.Alloc) error {
	hasEmpty := false
	for _, e := range t.Entries {
		if e.Alloc.Total() == 0 {
			hasEmpty = true
		}
		for m, n := range e.Alloc {
			if n < 0 {
				return fmt.Errorf("bid for app %s has negative GPUs on machine %d", t.App, m)
			}
			if n > offer[m] {
				return fmt.Errorf("bid for app %s wants %d GPUs on machine %d but only %d offered", t.App, n, m, offer[m])
			}
		}
		if !(e.Rho > 0) || math.IsInf(1/e.Rho, 1) {
			return fmt.Errorf("bid for app %s has ρ %v, want a positive number whose reciprocal is finite", t.App, e.Rho)
		}
	}
	if !hasEmpty {
		return fmt.Errorf("bid for app %s lacks the empty-allocation row", t.App)
	}
	return nil
}
