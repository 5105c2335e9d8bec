package sim

import (
	"reflect"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
)

// engineResetConfigs is a reuse-hostile sequence: a crashy run, a
// non-quiescent run cut off with events still queued, an unreliable-graph
// run, and a smaller-topology run, so a leak of crash flags, decisions,
// queued events or result-slice lengths across Reset would surface.
func engineResetConfigs() []Config {
	ring := graph.Ring(6)
	line := graph.Line(4)
	chords := graph.RandomOverlay(ring, 3, 11)
	return []Config{
		{
			Graph:     ring,
			Inputs:    inputs(0, 1, 0, 1, 0, 1),
			Factory:   onceFactory,
			Scheduler: NewRandom(5, 3),
			Crashes:   []Crash{{Node: 2, At: 2}, {Node: 5, At: 0}},
		},
		{
			Graph:     ring,
			Inputs:    inputs(1, 1, 1, 1, 1, 1),
			Factory:   func(amac.NodeConfig) amac.Algorithm { return &chatterAlg{} },
			Scheduler: NewRandom(4, 7),
			MaxEvents: 500, // cutoff leaves events queued for Reset to drain
		},
		{
			Graph:      ring,
			Inputs:     inputs(0, 0, 1, 1, 0, 0),
			Factory:    onceFactory,
			Scheduler:  NewLossy(NewRandom(6, 9), 0.5, 21),
			Unreliable: chords,
		},
		{
			Graph:           line,
			Inputs:          inputs(0, 1, 1, 0),
			Factory:         onceFactory,
			Scheduler:       Synchronous{Round: 3},
			StopWhenDecided: true,
		},
	}
}

// fresh rebuilds a config with fresh scheduler state (seeded schedulers
// advance their rng as they plan, so reference runs need their own copies).
func freshResetConfig(t *testing.T, i int) Config {
	t.Helper()
	return engineResetConfigs()[i]
}

// TestEngineResetMatchesFreshRun is the reuse-soundness test: every run on
// a single reused engine must produce a result identical to the same
// configuration run on a fresh engine.
func TestEngineResetMatchesFreshRun(t *testing.T) {
	var e *Engine
	for i := range engineResetConfigs() {
		cfg := freshResetConfig(t, i)
		if e == nil {
			e = NewEngine(cfg)
		} else {
			e.Reset(cfg)
		}
		got := e.Run()
		want := Run(freshResetConfig(t, i))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config %d: reused engine result differs from fresh engine:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
	// And back to the first config: a full cycle must still match.
	e.Reset(freshResetConfig(t, 0))
	got := e.Run()
	want := Run(freshResetConfig(t, 0))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-running config 0 on the cycled engine differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestEngineResetLeavesNoState inspects the engine internals after Reset:
// no crash flags, decisions or in-flight broadcasts survive from the prior
// run, the queue is empty, and every slab event has dropped its
// message reference (pooled events must not retain algorithm payloads).
func TestEngineResetLeavesNoState(t *testing.T) {
	crashy := freshResetConfig(t, 0)
	e := NewEngine(crashy)
	res := e.Run()
	if res.Crashed[2] != true || res.Crashed[5] != true {
		t.Fatalf("crashy run did not crash nodes 2 and 5: %+v", res.Crashed)
	}

	// Cut off a chatter run so events are still queued at Reset time.
	e.Reset(freshResetConfig(t, 1))
	res = e.Run()
	if !res.Cutoff {
		t.Fatal("chatter run was not cut off")
	}
	if e.q.len() == 0 {
		t.Fatal("cutoff run should leave events queued (the test wants the drain path)")
	}

	e.Reset(freshResetConfig(t, 3))
	if e.q.len() != 0 {
		t.Errorf("%d events still queued after Reset", e.q.len())
	}
	for i := range e.q.slab {
		if e.q.slab[i].msg != nil {
			t.Errorf("slab event %d retains message %v after Reset", i, e.q.slab[i].msg)
		}
	}
	for i := range e.algs {
		if e.res.Crashed[i] || e.crashAt[i] >= 0 {
			t.Errorf("node %d keeps crash state (crashed=%v crashAt=%d) from the prior run", i, e.res.Crashed[i], e.crashAt[i])
		}
		if e.res.Decided[i] || e.inflight[i] || e.inMsg[i] != nil || e.bseq[i] != 0 {
			t.Errorf("node %d keeps run state (decided=%v inflight=%v bseq=%d)", i, e.res.Decided[i], e.inflight[i], e.bseq[i])
		}
	}
	if e.now != 0 || e.q.cur != 0 {
		t.Errorf("clock/queue cursor not reset: now=%d cur=%d", e.now, e.q.cur)
	}
	res = e.Run()
	for i, crashed := range res.Crashed {
		if crashed {
			t.Errorf("node %d reported crashed in a fault-free run", i)
		}
	}
	if !res.AllDecided() {
		t.Errorf("fault-free run after reuse did not decide everywhere: %+v", res)
	}
}

// TestEngineResetShrinksAndGrows exercises node-count changes in both
// directions: result slices must track the new topology size exactly.
func TestEngineResetShrinksAndGrows(t *testing.T) {
	big := freshResetConfig(t, 0)   // 6 nodes
	small := freshResetConfig(t, 3) // 4 nodes
	e := NewEngine(big)
	e.Run()
	e.Reset(small)
	res := e.Run()
	if len(res.Decided) != 4 || len(res.Crashed) != 4 {
		t.Fatalf("result slices not resized down: %d/%d", len(res.Decided), len(res.Crashed))
	}
	e.Reset(freshResetConfig(t, 0))
	res = e.Run()
	if len(res.Decided) != 6 {
		t.Fatalf("result slices not resized up: %d", len(res.Decided))
	}
	if !reflect.DeepEqual(res, Run(freshResetConfig(t, 0))) {
		t.Fatal("grow-after-shrink run differs from fresh engine")
	}
}

// TestStopCounterMatchesScan pins the O(1) undecided counter that drives
// StopWhenDecided against the O(n) reference scan: with checkStops set the
// engine asserts agreement at every stop evaluation, so any interleaving
// of decisions and crash cutoffs that would stop at a different event
// panics. The crash schedules cover cutoffs before, at, and after the
// decision, a node crashed at time 0, and a run where every node crashes
// (the counter reaches zero through the cursor alone).
func TestStopCounterMatchesScan(t *testing.T) {
	ring := graph.Ring(6)
	ins := inputs(0, 1, 0, 1, 0, 1)
	schedules := [][]Crash{
		nil,
		{{Node: 5, At: 0}},
		{{Node: 0, At: 1}, {Node: 3, At: 2}},
		{{Node: 2, At: 4}, {Node: 2, At: 9}},
		{{Node: 1, At: 40}}, // typically after node 1 decides
		{{Node: 0, At: 1}, {Node: 1, At: 1}, {Node: 2, At: 1}, {Node: 3, At: 1}, {Node: 4, At: 1}, {Node: 5, At: 1}},
	}
	for ci, crashes := range schedules {
		for seed := int64(1); seed <= 8; seed++ {
			mk := func() Config {
				return Config{
					Graph:           ring,
					Inputs:          ins,
					Factory:         onceFactory,
					Scheduler:       NewRandom(5, seed),
					Crashes:         crashes,
					StopWhenDecided: true,
				}
			}
			e := NewEngine(mk())
			e.checkStops = true // panic if counter and scan ever disagree
			got := e.Run()
			want := Run(mk())
			if got.Events != want.Events || got.Time != want.Time {
				t.Errorf("crashes[%d] seed %d: checked run stopped at event %d (t=%d), plain run at %d (t=%d)",
					ci, seed, got.Events, got.Time, want.Events, want.Time)
			}
			if !reflect.DeepEqual(got.Decided, want.Decided) || !reflect.DeepEqual(got.Crashed, want.Crashed) {
				t.Errorf("crashes[%d] seed %d: checked and plain runs disagree on outcomes", ci, seed)
			}
		}
	}
}
