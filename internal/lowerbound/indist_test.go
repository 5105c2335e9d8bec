package lowerbound

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

func TestAnonImpossibility(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{6, 6}, {8, 40}, {10, 64}} {
		res, err := RunAnonImpossibility(tc.d, tc.n)
		if err != nil {
			t.Fatalf("D=%d n=%d: %v", tc.d, tc.n, err)
		}
		if !res.ControlOK {
			t.Errorf("D=%d n=%d: anonymous algorithm failed on network B (control)", tc.d, tc.n)
		}
		if !res.ViolationInA {
			t.Errorf("D=%d n=%d: no agreement violation on network A", tc.d, tc.n)
		}
		if res.IDReads != 0 {
			t.Errorf("D=%d n=%d: algorithm read ids %d times; construction requires anonymity", tc.d, tc.n, res.IDReads)
		}
		if res.Gadget0Decision != 0 || res.Gadget1Decision != 1 {
			t.Errorf("D=%d n=%d: gadget decisions %d/%d, want 0/1", tc.d, tc.n, res.Gadget0Decision, res.Gadget1Decision)
		}
	}
}

func TestSizeImpossibility(t *testing.T) {
	for _, d := range []int{2, 4, 6, 8} {
		res, err := RunSizeImpossibility(d)
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		if !res.ControlLineOK {
			t.Errorf("D=%d: n-oblivious algorithm failed on the standalone line (control)", d)
		}
		if !res.ViolationInKD {
			t.Errorf("D=%d: no split-brain on K_D", d)
		}
		if res.L1Decision != 0 || res.L2Decision != 1 {
			t.Errorf("D=%d: line decisions %d/%d, want 0/1", d, res.L1Decision, res.L2Decision)
		}
		if !res.ControlWithNOK {
			t.Errorf("D=%d: gatherall (knows n) failed on K_D (control)", d)
		}
	}
}

func TestPartitionHarness(t *testing.T) {
	for _, tc := range []struct {
		d    int
		fack int64
	}{{4, 1}, {8, 3}, {16, 5}, {32, 4}} {
		res, err := RunPartition(tc.d, tc.fack)
		if err != nil {
			t.Fatalf("D=%d: %v", tc.d, err)
		}
		if !res.HastyViolated {
			t.Errorf("D=%d Fack=%d: hasty algorithm got away with deciding at %d (bound %d)", tc.d, tc.fack, res.HastyDecideTime, res.Bound)
		}
		if res.HastyDecideTime >= res.Bound {
			t.Errorf("D=%d Fack=%d: hasty decided at %d, not before the bound %d", tc.d, tc.fack, res.HastyDecideTime, res.Bound)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	if _, err := RunPartition(1, 1); err == nil {
		t.Error("D=1 accepted")
	}
	if _, err := RunPartition(4, 0); err == nil {
		t.Error("Fack=0 accepted")
	}
}

// TestCorrectAlgorithmsRespectTheBound is the other half of the partition
// harness: wPAXOS never decides before floor(D/2)*Fack under the
// maximum-delay scheduler (it cannot, by Theorem 3.10 — this verifies the
// implementation is not accidentally "hasty").
func TestCorrectAlgorithmsRespectTheBound(t *testing.T) {
	const fack = 3
	for _, d := range []int{4, 8, 12, 32} {
		g := graph.Line(d + 1)
		inputs := make([]amac.Value, d+1)
		for i := range inputs {
			inputs[i] = amac.Value(i % 2)
		}
		res := sim.Run(sim.Config{
			Graph:           g,
			Inputs:          inputs,
			Factory:         wpaxos.NewFactory(wpaxos.Config{N: g.N()}),
			Scheduler:       sim.MaxDelay{F: fack},
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("D=%d: %v", d, rep.Errors)
		}
		bound := int64(d/2) * fack
		// The earliest decision across nodes must respect the bound.
		earliest := res.MaxDecideTime
		for i, dec := range res.Decided {
			if dec && res.DecideTime[i] < earliest {
				earliest = res.DecideTime[i]
			}
		}
		if earliest < bound {
			t.Fatalf("D=%d: earliest decision %d beats the floor(D/2)*Fack=%d bound", d, earliest, bound)
		}
	}
}
