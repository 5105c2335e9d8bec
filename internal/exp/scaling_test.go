package exp

import (
	"testing"

	"github.com/absmac/absmac/internal/harness"
)

// TestWPaxosScalingGuard is the large-n guard on the paper's O(D·Fack)
// bound for wPAXOS: on the two degree-bounded families from n=128 to
// n=1024, every run decides within 8·D·Fack, and the decide/(D·Fack)
// ratio at n=1024 stays within 1.5x of the ratio at n=128 in each family.
// A regression that makes decide time grow with n faster than the
// diameter — the shape floodpaxos took on after its liveness change —
// fails here even while the small-n experiments still pass.
func TestWPaxosScalingGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n sweep; runs in the full suite")
	}
	const fack = 4
	families := []struct {
		name  string
		topos []string // ordered by n, first n=128, last n=1024
	}{
		{"expander", []string{"expander:128:8", "expander:256:8", "expander:512:8", "expander:1024:8"}},
		{"pods", []string{"pods:4:32:4", "pods:8:32:4", "pods:16:32:4", "pods:16:64:4"}},
	}
	var work []harness.CellWork
	for _, f := range families {
		for _, spec := range f.topos {
			topo, err := harness.ParseTopo(spec)
			if err != nil {
				t.Fatal(err)
			}
			work = append(work, harness.CellWork{
				Base:  harness.Scenario{Algo: "wpaxos", Topo: topo, Sched: "random", Fack: fack},
				Seeds: []int64{1, 2, 3},
			})
		}
	}
	cells, err := harness.SweepCells(work, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := map[string]float64{}
	for _, c := range cells {
		bound := float64(8 * int64(c.Diameter) * fack)
		if c.Correct != c.Runs || c.Decide.Max > bound {
			t.Errorf("%s (n=%d, D=%d): %d/%d runs correct, slowest decide %.0f; want all correct within 8·D·Fack = %.0f",
				c.Topo, c.N, c.Diameter, c.Correct, c.Runs, c.Decide.Max, bound)
		}
		ratio[c.Topo] = c.Decide.Median / float64(int64(c.Diameter)*fack)
		t.Logf("%s n=%d D=%d decide/(D·Fack) = %.2f", c.Topo, c.N, c.Diameter, ratio[c.Topo])
	}
	for _, f := range families {
		small, large := ratio[f.topos[0]], ratio[f.topos[len(f.topos)-1]]
		if large > 1.5*small {
			t.Errorf("%s: decide/(D·Fack) grows from %.2f at n=128 to %.2f at n=1024, more than 1.5x", f.name, small, large)
		}
	}
}
