package floodpaxos

import (
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

func mixed(n int) []amac.Value {
	inputs := make([]amac.Value, n)
	for i := range inputs {
		inputs[i] = amac.Value(i % 2)
	}
	return inputs
}

func TestCorrectAcrossTopologies(t *testing.T) {
	cases := []*graph.Graph{
		graph.Clique(6),
		graph.Line(7),
		graph.Ring(8),
		graph.Grid(3, 3),
		graph.RandomConnected(14, 0.15, 5),
	}
	for i, g := range cases {
		inputs := mixed(g.N())
		for seed := int64(0); seed < 3; seed++ {
			res := sim.Run(sim.Config{
				Graph:           g,
				Inputs:          inputs,
				Factory:         NewFactory(g.N()),
				Scheduler:       sim.NewRandom(3, seed),
				StopWhenDecided: true,
				Audit:           true,
			})
			rep := consensus.Check(inputs, res)
			if !rep.OK() {
				t.Fatalf("case %d seed %d: %v", i, seed, rep.Errors)
			}
		}
	}
}

func TestSingleNode(t *testing.T) {
	inputs := []amac.Value{1}
	res := sim.Run(sim.Config{
		Graph:           graph.Clique(1),
		Inputs:          inputs,
		Factory:         NewFactory(1),
		Scheduler:       sim.Synchronous{},
		StopWhenDecided: true,
	})
	rep := consensus.Check(inputs, res)
	if !rep.OK() || rep.Value != 1 {
		t.Fatalf("single node: %v", rep.Errors)
	}
}

// TestSlowerThanWPaxosOnBottleneck is the package's reason to exist: on a
// hub topology the per-acceptor response flood must cost visibly more time
// than wPAXOS's aggregated responses at the same n and D, and the gap must
// have the Section 4.2 shape — at fixed D the flood grows linearly in n
// while wPAXOS stays flat.
func TestSlowerThanWPaxosOnBottleneck(t *testing.T) {
	runWith := func(g *graph.Graph, f amac.Factory) int64 {
		inputs := mixed(g.N())
		res := sim.Run(sim.Config{
			Graph:           g,
			Inputs:          inputs,
			Factory:         f,
			Scheduler:       sim.Synchronous{},
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() {
			t.Fatalf("n=%d: %v", g.N(), rep.Errors)
		}
		return res.MaxDecideTime
	}
	var ns, floods, trees []int64
	for _, arms := range []int{4, 16, 24, 48} {
		g := graph.StarOfLines(arms, 2) // diameter 4 at every n
		tFlood := runWith(g, NewFactory(g.N()))
		tTree := runWith(g, wpaxos.NewFactory(wpaxos.Config{N: g.N()}))
		if arms >= 16 && float64(tFlood) < 1.5*float64(tTree) {
			t.Fatalf("n=%d flood=%d tree=%d: expected the flooding baseline to be clearly slower", g.N(), tFlood, tTree)
		}
		ns, floods, trees = append(ns, int64(g.N())), append(floods, tFlood), append(trees, tTree)
	}
	// Growth per added node between the smallest and largest star: the
	// flood pays at least half a time unit per node, wPAXOS at most a
	// third of the flood's rate.
	last := len(ns) - 1
	dn := float64(ns[last] - ns[0])
	floodSlope := float64(floods[last]-floods[0]) / dn
	treeSlope := float64(trees[last]-trees[0]) / dn
	if floodSlope < 0.5 || treeSlope > floodSlope/3 {
		t.Fatalf("decide time per node: flood %.3f, wPAXOS %.3f (n=%v flood=%v tree=%v): want flood >= 0.5 and wPAXOS <= flood/3",
			floodSlope, treeSlope, ns, floods, trees)
	}
}

func TestUnanimousValidity(t *testing.T) {
	for _, v := range []amac.Value{0, 1} {
		g := graph.Line(6)
		inputs := make([]amac.Value, 6)
		for i := range inputs {
			inputs[i] = v
		}
		res := sim.Run(sim.Config{
			Graph:           g,
			Inputs:          inputs,
			Factory:         NewFactory(6),
			Scheduler:       sim.NewRandom(2, 9),
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, res)
		if !rep.OK() || rep.Value != v {
			t.Fatalf("unanimous %d: %v (value %d)", v, rep.Errors, rep.Value)
		}
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 0) },
		func() { New(2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
