package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// The differential queue test is the pop-order oracle for all queue work:
// the engine's calendar queue (window 0), the pure reference heap
// (window -1) and a deliberately tiny two-bucket ring that forces
// constant overflow migration (window 2) must produce byte-identical
// executions — same observable event sequence, same result, same schedule
// fingerprint — on every registered scheduler crossed with every
// registered crash pattern and overlay family, plus a seeded fuzz loop
// over random scenarios.

// queueWindows are the queue configurations under test. 0 is the
// production default, -1 the reference heap, small positives stress the
// ring/heap boundary.
var queueWindows = []int64{0, -1, 2, 4}

// queueTrace is one run's observable execution.
type queueTrace struct {
	events []sim.Event
	res    *sim.Result
	fp     uint64
}

// runWindowed builds the scenario fresh (seeded schedulers carry RNG
// state) and runs it with the given queue window, recording every
// observer event. Message payloads are cleared before comparison: they
// are per-run algorithm values; the delivery positions are the contract.
func runWindowed(t *testing.T, s harness.Scenario, window int64) queueTrace {
	t.Helper()
	cfg, err := s.Config()
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	fp := sim.NewFingerprinter(cfg.Scheduler, cfg.Crashes)
	cfg.Scheduler = fp
	var events []sim.Event
	cfg.Observer = func(ev sim.Event) {
		ev.Message = nil
		events = append(events, ev)
	}
	res := sim.RunWithQueueWindow(cfg, window)
	return queueTrace{events: events, res: res, fp: fp.Sum()}
}

// assertSameExecution compares each window's trace against the reference
// heap's.
func assertSameExecution(t *testing.T, s harness.Scenario) {
	t.Helper()
	ref := runWindowed(t, s, -1)
	for _, w := range queueWindows {
		if w == -1 {
			continue
		}
		got := runWindowed(t, s, w)
		if got.fp != ref.fp {
			t.Errorf("%+v window=%d: fingerprint %#x differs from reference heap %#x", s, w, got.fp, ref.fp)
		}
		if !reflect.DeepEqual(got.res, ref.res) {
			t.Errorf("%+v window=%d: result differs from reference heap\ngot  %+v\nwant %+v", s, w, got.res, ref.res)
		}
		if !reflect.DeepEqual(got.events, ref.events) {
			for i := range got.events {
				if i >= len(ref.events) || got.events[i] != ref.events[i] {
					t.Errorf("%+v window=%d: event %d is %+v, reference heap has %+v",
						s, w, i, got.events[i], ref.events[i])
					break
				}
			}
			if len(got.events) != len(ref.events) {
				t.Errorf("%+v window=%d: %d events, reference heap has %d", s, w, len(got.events), len(ref.events))
			}
		}
	}
}

// queueDiffCrashSpecs gives each registered crash pattern a concrete spec.
var queueDiffCrashSpecs = map[string]string{
	"none":         "none",
	"one":          "one@2",
	"maxid":        "maxid@3",
	"coordinator":  "coordinator",
	"midbroadcast": "midbroadcast",
	"minorityrand": "minorityrand",
}

// queueDiffOverlaySpecs gives each registered overlay family a concrete
// spec.
var queueDiffOverlaySpecs = map[string]string{
	"none":        "none",
	"chords":      "chords",
	"extra":       "extra:3",
	"randomextra": "randomextra:0.3",
}

// TestQueueDifferentialRegistry drives every registered scheduler through
// every registered crash pattern and overlay family.
func TestQueueDifferentialRegistry(t *testing.T) {
	topo, err := harness.ParseTopo("grid:3x3")
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range harness.Schedulers() {
		for _, crash := range harness.CrashPatterns() {
			spec, ok := queueDiffCrashSpecs[crash]
			if !ok {
				t.Fatalf("no differential spec for crash pattern %q — add one to queueDiffCrashSpecs", crash)
			}
			for _, overlay := range harness.Overlays() {
				ospec, ok := queueDiffOverlaySpecs[overlay]
				if !ok {
					t.Fatalf("no differential spec for overlay family %q — add one to queueDiffOverlaySpecs", overlay)
				}
				assertSameExecution(t, harness.Scenario{
					Algo:      "twophase",
					Topo:      topo,
					Sched:     sched,
					Fack:      4,
					Seed:      11,
					Crashes:   spec,
					Overlay:   ospec,
					MaxEvents: 50_000,
				})
			}
		}
	}
}

// TestQueueDifferentialFuzz runs a seeded loop of random scenarios —
// random family, algorithm, scheduler, bound, adversity — through every
// queue window.
func TestQueueDifferentialFuzz(t *testing.T) {
	topos := []string{
		"ring:8", "grid:3x4", "clique:6", "tree:2x3", "expander:16:4",
		"pods:3:6:2", "star:7", "line:9", "random:12:0.3", "starlines:2x3",
	}
	algos := harness.Algorithms()
	scheds := harness.Schedulers()
	crashes := []string{"none", "one@1", "maxid@5", "coordinator", "midbroadcast", "minorityrand"}
	overlays := []string{"none", "chords", "extra:2", "randomextra:0.2"}
	rng := rand.New(rand.NewSource(0xD1FF))
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		topo, err := harness.ParseTopo(topos[rng.Intn(len(topos))])
		if err != nil {
			t.Fatal(err)
		}
		s := harness.Scenario{
			Algo:      algos[rng.Intn(len(algos))],
			Topo:      topo,
			Sched:     scheds[rng.Intn(len(scheds))],
			Fack:      1 + rng.Int63n(8),
			Seed:      rng.Int63n(1 << 30),
			Crashes:   crashes[rng.Intn(len(crashes))],
			Overlay:   overlays[rng.Intn(len(overlays))],
			MaxEvents: 50_000,
		}
		assertSameExecution(t, s)
	}
}
