// Package exp holds one end-to-end test per reproduced paper result,
// E1..E13. Each test drives the owning packages through their exported
// API and asserts the result's shape; the per-package tests cover the
// same claims piece by piece.
package exp

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/floodpaxos"
	"github.com/absmac/absmac/internal/baseline/gatherall"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/twophase"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/ext/benor"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/lowerbound"
	"github.com/absmac/absmac/internal/sim"
	"github.com/absmac/absmac/internal/stats"
)

// inputs returns the alternating 0/1 assignment, rotated by shift.
func inputs(n, shift int) []amac.Value {
	in := make([]amac.Value, n)
	for i := range in {
		in[i] = amac.Value((i + shift) % 2)
	}
	return in
}

// decide runs cfg to decision and fails t unless consensus holds.
func decide(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	cfg.StopWhenDecided = true
	res := sim.Run(cfg)
	if rep := consensus.Check(cfg.Inputs, res); !rep.OK() {
		t.Fatalf("n=%d: %v", cfg.Graph.N(), rep.Errors)
	}
	return res
}

// Thm 3.2 / Lemma 3.1: a bivalent initial configuration exists, every
// crash-free schedule decides, and one crash can stall two-phase.
func TestE1(t *testing.T) {
	const n = 2
	bivalent, stall := false, false
	for mask := 0; mask < 1<<n; mask++ {
		in := []amac.Value{amac.Value(mask & 1), amac.Value(mask >> 1)}
		v0 := (&lowerbound.Explorer{N: n, Factory: twophase.Factory, Inputs: in}).Valency(nil)
		if v0.Dead || v0.Truncated {
			t.Fatalf("inputs %v: crash-free exploration dead=%v truncated=%v", in, v0.Dead, v0.Truncated)
		}
		bivalent = bivalent || v0.Bivalent()
		stall = stall || (&lowerbound.Explorer{N: n, Factory: twophase.Factory, Inputs: in, MaxCrashes: 1}).Valency(nil).Dead
	}
	if !bivalent || !stall {
		t.Fatalf("bivalent initial config %v, one-crash stall %v; want both", bivalent, stall)
	}
	if _, ok := lowerbound.FindStallingSchedule(n, twophase.Factory, []amac.Value{0, 1}, 1, 30); !ok {
		t.Fatal("no one-crash stalling schedule found")
	}
}

// Thm 3.3 / Figure 1: anonymous min-flood is correct on the cover B and
// splits on network A, without reading ids.
func TestE2(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{6, 6}, {8, 40}, {10, 64}} {
		res, err := lowerbound.RunAnonImpossibility(tc.d, tc.n)
		if err != nil {
			t.Fatalf("D=%d: %v", tc.d, err)
		}
		if !res.ControlOK || !res.ViolationInA || res.IDReads != 0 {
			t.Fatalf("D=%d: control %v, violation %v, id reads %d", tc.d, res.ControlOK, res.ViolationInA, res.IDReads)
		}
	}
}

// Thm 3.9 / Figure 2: without n the gatherer splits K_D; with n it does not.
func TestE3(t *testing.T) {
	for _, d := range []int{2, 4, 6, 8} {
		res, err := lowerbound.RunSizeImpossibility(d)
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		if !res.ControlLineOK || !res.ViolationInKD || !res.ControlWithNOK {
			t.Fatalf("D=%d: line %v, split %v, with-n %v", d, res.ControlLineOK, res.ViolationInKD, res.ControlWithNOK)
		}
	}
}

// Thm 3.10: deciding before floor(D/2)*Fack splits the line, and wPAXOS's
// earliest decision respects the bound.
func TestE4(t *testing.T) {
	for _, tc := range []struct {
		d    int
		fack int64
	}{{4, 2}, {8, 2}, {16, 4}, {32, 4}} {
		part, err := lowerbound.RunPartition(tc.d, tc.fack)
		if err != nil {
			t.Fatalf("D=%d: %v", tc.d, err)
		}
		if !part.HastyViolated || part.HastyDecideTime >= part.Bound {
			t.Fatalf("D=%d: hasty decided at %d (bound %d), violated %v", tc.d, part.HastyDecideTime, part.Bound, part.HastyViolated)
		}
		n := tc.d + 1
		res := decide(t, sim.Config{Graph: graph.Line(n), Inputs: inputs(n, 0), Factory: wpaxos.NewFactory(wpaxos.Config{N: n}), Scheduler: sim.MaxDelay{F: tc.fack}})
		for i, dec := range res.Decided {
			if dec && res.DecideTime[i] < part.Bound {
				t.Fatalf("D=%d: wPAXOS node %d decided at %d < bound %d", tc.d, i, res.DecideTime[i], part.Bound)
			}
		}
	}
}

// Thm 4.1: two-phase decides within 4*Fack, flat in n.
func TestE5(t *testing.T) {
	var ns, times []float64
	for _, n := range []int{2, 8, 32, 128} {
		for _, f := range []int64{1, 8, 32} {
			var sample []float64
			for seed := int64(0); seed < 5; seed++ {
				res := decide(t, sim.Config{Graph: graph.Clique(n), Inputs: inputs(n, 0), Factory: twophase.Factory, Scheduler: sim.NewRandom(f, seed), Audit: true})
				if res.MaxDecideTime > 4*f {
					t.Fatalf("n=%d Fack=%d seed %d: decided at %d > 4*Fack", n, f, seed, res.MaxDecideTime)
				}
				sample = append(sample, float64(res.MaxDecideTime))
			}
			if f == 8 {
				ns = append(ns, float64(n))
				times = append(times, stats.Median(sample))
			}
		}
	}
	if slope, _ := stats.LinFit(ns, times); slope > 0.05 {
		t.Fatalf("decide time grows %.4f per node at Fack=8, want flat", slope)
	}
}

// Thm 4.6: wPAXOS decides within 25*D*Fack (median over seeds).
func TestE6(t *testing.T) {
	gs := []*graph.Graph{graph.Grid(6, 6), graph.BalancedTree(2, 5), graph.RandomConnected(48, 0.08, 7)}
	for _, d := range []int{4, 8, 16, 32} {
		gs = append(gs, graph.Line(d+1))
	}
	for _, g := range gs {
		d := int64(g.Diameter())
		for _, f := range []int64{2, 8} {
			var sample []float64
			for seed := int64(0); seed < 4; seed++ {
				res := decide(t, sim.Config{Graph: g, Inputs: inputs(g.N(), 0), Factory: wpaxos.NewFactory(wpaxos.Config{N: g.N()}), Scheduler: sim.NewRandom(f, seed), Audit: true})
				sample = append(sample, float64(res.MaxDecideTime))
			}
			if ratio := stats.Median(sample) / float64(d*f); ratio > 25 {
				t.Fatalf("n=%d D=%d Fack=%d: decide/(D*Fack) = %.2f > 25", g.N(), d, f, ratio)
			}
		}
	}
}

// Sec 4.2: flooding grows linearly in n at a bottleneck; wPAXOS stays flat.
func TestE7(t *testing.T) {
	var ns, floods, trees []float64
	for _, arms := range []int{4, 16, 48} {
		g := graph.StarOfLines(arms, 2)
		n := g.N()
		at := func(f amac.Factory) float64 {
			cfg := sim.Config{Graph: g, Inputs: inputs(n, 0), Factory: f, Scheduler: sim.Synchronous{}}
			return float64(decide(t, cfg).MaxDecideTime)
		}
		ns = append(ns, float64(n))
		trees = append(trees, at(wpaxos.NewFactory(wpaxos.Config{N: n})))
		floods = append(floods, at(floodpaxos.NewFactory(n)))
		at(gatherall.NewFactory(n))
	}
	fslope, _ := stats.LinFit(ns, floods)
	tslope, _ := stats.LinFit(ns, trees)
	if fslope < 0.5 || tslope > fslope/3 {
		t.Fatalf("flooding slope %.3f, wPAXOS slope %.3f per node; want >= 0.5 and <= a third of it", fslope, tslope)
	}
}

// Lemma 4.4: proposal tags stay within n^2.
func TestE8(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		for seed := int64(0); seed < 4; seed++ {
			var nodes []*wpaxos.Node
			factory := func(nc amac.NodeConfig) amac.Algorithm {
				nodes = append(nodes, wpaxos.New(nc.Input, wpaxos.Config{N: n}))
				return nodes[len(nodes)-1]
			}
			g := graph.RandomConnected(n, 0.1, int64(n)*31+seed)
			decide(t, sim.Config{Graph: g, Inputs: inputs(n, 0), Factory: factory, Scheduler: sim.NewRandom(3, seed*17+1)})
			for _, nd := range nodes {
				if nd.MaxTagUsed() > int64(n*n) {
					t.Fatalf("n=%d seed %d: tag %d > n^2", n, seed, nd.MaxTagUsed())
				}
			}
		}
	}
}

// Lemma 4.2: tree-aggregated counting never over-counts.
func TestE9(t *testing.T) {
	for _, mk := range []func(int64) *graph.Graph{
		func(seed int64) *graph.Graph { return graph.RandomConnected(20, 0.12, seed) },
		func(int64) *graph.Graph { return graph.Line(16) },
		func(int64) *graph.Graph { return graph.Grid(5, 5) },
		func(int64) *graph.Graph { return graph.StarOfLines(6, 3) },
	} {
		for seed := int64(0); seed < 6; seed++ {
			g := mk(seed)
			audit := wpaxos.NewCountAudit()
			decide(t, sim.Config{Graph: g, Inputs: inputs(g.N(), 0), Factory: wpaxos.NewFactory(wpaxos.Config{N: g.N(), Audit: audit}), Scheduler: sim.NewRandom(1+seed%5, seed*7+3)})
			if audit.Propositions() == 0 || len(audit.Violations()) != 0 {
				t.Fatalf("n=%d seed %d: %d propositions, violations %v", g.N(), seed, audit.Propositions(), audit.Violations())
			}
		}
	}
}

// Sec 4.1: two-phase needs neither n nor the participant set.
func TestE10(t *testing.T) {
	for _, n := range []int{3, 9, 33, 64} {
		for seed := int64(0); seed < 4; seed++ {
			for _, sc := range []sim.Scheduler{sim.NewRandom(6, seed), sim.MaxDelay{F: 6}, &sim.EdgeOrder{MaxDegree: 64}} {
				decide(t, sim.Config{Graph: graph.Clique(n), Inputs: inputs(n, int(seed)), Factory: twophase.Factory, Scheduler: sc, Audit: true})
			}
		}
	}
}

// Dual-graph extension: unreliable links never break wPAXOS's safety or
// Lemma 4.2 counting (liveness may stall).
func TestE11(t *testing.T) {
	for _, tc := range []struct {
		g       *graph.Graph
		overlay int
	}{{graph.Line(12), 8}, {graph.Grid(4, 4), 10}, {graph.RandomConnected(16, 0.1, 21), 12}} {
		for _, p := range []float64{0.2, 0.8} {
			for seed := int64(0); seed < 4; seed++ {
				in := inputs(tc.g.N(), 0)
				audit := wpaxos.NewCountAudit()
				overlay := graph.RandomOverlay(tc.g, tc.overlay, seed+50)
				lossy := sim.NewLossy(sim.NewRandom(4, seed*3+1), p, seed*7+2)
				factory := wpaxos.NewFactory(wpaxos.Config{N: tc.g.N(), Audit: audit})
				res := sim.Run(sim.Config{Graph: tc.g, Unreliable: overlay, Inputs: in, Factory: factory, Scheduler: lossy, StopWhenDecided: true, Audit: true})
				if rep := consensus.Check(in, res); !rep.Agreement || !rep.Validity || len(audit.Violations()) != 0 {
					t.Fatalf("n=%d p=%.1f seed %d: safety or counting violated", tc.g.N(), p, seed)
				}
			}
		}
	}
}

// Sec 5: under crashes two-phase stays safe, and Ben-Or also terminates.
func TestE12(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{3, 1}, {5, 2}, {7, 3}} {
		for seed := int64(0); seed < 8; seed++ {
			in := inputs(tc.n, int(seed))
			crashes := []sim.Crash{{Node: int(seed) % tc.n, At: 1 + seed%4}}
			if tc.f >= 2 {
				crashes = append(crashes, sim.Crash{Node: (int(seed) + 1) % tc.n, At: 2 + seed%5})
			}
			cfg := sim.Config{Graph: graph.Clique(tc.n), Inputs: in, Factory: twophase.Factory, Scheduler: &sim.EdgeOrder{MaxDegree: tc.n}, Crashes: crashes}
			if rep := consensus.Check(in, sim.Run(cfg)); !rep.Agreement || !rep.Validity {
				t.Fatalf("n=%d seed %d: two-phase unsafe under crashes", tc.n, seed)
			}
			cfg.Factory = benor.NewFactory(benor.Config{N: tc.n, F: tc.f, Seed: seed})
			cfg.StopWhenDecided, cfg.MaxEvents = true, 2_000_000
			res := sim.Run(cfg)
			if rep := consensus.Check(in, res); !rep.OK() || res.Cutoff {
				t.Fatalf("n=%d seed %d: Ben-Or %v, cutoff %v", tc.n, seed, rep.Errors, res.Cutoff)
			}
		}
	}
}

// Sec 4.2: with the leader far from the centre (reversed ids) the leader
// tree must cross the diameter, and wPAXOS stays correct.
func TestE13(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Line(25), graph.Grid(6, 6)} {
		ids := make([]amac.NodeID, g.N())
		for i := range ids {
			ids[i] = amac.NodeID(g.N() - i)
		}
		for seed := int64(0); seed < 5; seed++ {
			decide(t, sim.Config{Graph: g, Inputs: inputs(g.N(), 0), Factory: wpaxos.NewFactory(wpaxos.Config{N: g.N()}), Scheduler: sim.NewRandom(4, seed), IDs: ids})
		}
	}
}
