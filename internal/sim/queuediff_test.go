package sim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// The execution-digest goldens pin the engine's event order end to end.
// Every digest in testdata/queue_digests.golden was recorded by the
// pre-calendar reference heap (the quaternary heap that now lives on as
// the queue-level oracle in queue_test.go), so each case asserts that the
// calendar ring produces the heap's execution byte for byte: the same
// observable event sequence, the same result and the same schedule
// fingerprint. The cases are every registered scheduler crossed with
// every registered crash pattern and overlay family, a seeded fuzz loop
// over random scenarios, and wide-horizon runs at Fack 5000 and 100000,
// where the ring spans tens of thousands of buckets.
//
// The goldens are never regenerated from the engine they check: a
// mismatch means the queue changed the event order.

const digestGolden = "testdata/queue_digests.golden"

// goldenDigest is one recorded execution: its observer event count and
// its digest.
type goldenDigest struct {
	events int
	sum    string
}

// loadDigests reads the golden file into a case-name index.
func loadDigests(t *testing.T) map[string]goldenDigest {
	t.Helper()
	f, err := os.Open(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]goldenDigest{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", digestGolden, line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatalf("%s: malformed event count in %q", digestGolden, line)
		}
		out[fields[0]] = goldenDigest{events: n, sum: fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// digestCase is one named scenario of the golden file.
type digestCase struct {
	name string
	s    harness.Scenario
}

// digestExecution runs the scenario (built fresh: seeded schedulers carry
// RNG state) and digests its observable execution. Message payloads are
// cleared: they are per-run algorithm values; the delivery positions are
// the contract.
func digestExecution(t *testing.T, s harness.Scenario) goldenDigest {
	t.Helper()
	cfg, err := s.Config()
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	fp := sim.NewFingerprinter(cfg.Scheduler, cfg.Crashes)
	cfg.Scheduler = fp
	h := sha256.New()
	events := 0
	cfg.Observer = func(ev sim.Event) {
		events++
		fmt.Fprintf(h, "%d %d %d %d %d\n", ev.Kind, ev.Time, ev.Node, ev.Peer, ev.Value)
	}
	res := sim.Run(cfg)
	fmt.Fprintf(h, "%v\n%v\n%v\n%v\n", res.Decided, res.Decision, res.DecideTime, res.Crashed)
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %t %t\n", res.Time, res.MaxDecideTime,
		res.Broadcasts, res.Deliveries, res.Acks, res.Discards, res.Events, res.Quiescent, res.Cutoff)
	for _, v := range res.Violations {
		fmt.Fprintf(h, "%d %d %s\n", v.Time, v.Node, v.Desc)
	}
	fmt.Fprintf(h, "%x\n", fp.Sum())
	return goldenDigest{events: events, sum: hex.EncodeToString(h.Sum(nil))}
}

// checkDigests runs each case and compares it against the golden.
func checkDigests(t *testing.T, cases []digestCase) {
	t.Helper()
	golden := loadDigests(t)
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: no golden digest", c.name)
			continue
		}
		if got := digestExecution(t, c.s); got != want {
			t.Errorf("%s: execution (%d events, digest %s) differs from the reference heap's (%d events, digest %s)",
				c.name, got.events, got.sum, want.events, want.sum)
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

func mustTopo(t *testing.T, spec string) harness.Topo {
	t.Helper()
	topo, err := harness.ParseTopo(spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// registryCases crosses every registered scheduler with every registered
// crash pattern and overlay family.
func registryCases(t *testing.T) []digestCase {
	topo := mustTopo(t, "grid:3x3")
	var cases []digestCase
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
				cases = append(cases, digestCase{
					name: fmt.Sprintf("registry/%s/%s/%s", sched, spec, ospec),
					s: harness.Scenario{
						Algo:      "twophase",
						Topo:      topo,
						Sched:     sched,
						Fack:      4,
						Seed:      11,
						Crashes:   spec,
						Overlay:   ospec,
						MaxEvents: 50_000,
					},
				})
			}
		}
	}
	return cases
}

// fuzzCases draws iters random scenarios — random family, algorithm,
// scheduler, bound, adversity — from a fixed seed.
func fuzzCases(t *testing.T, iters int) []digestCase {
	topos := []string{
		"ring:8", "grid:3x4", "clique:6", "tree:2x3", "expander:16:4",
		"pods:3:6:2", "star:7", "line:9", "random:12:0.3", "starlines:2x3",
	}
	algos := harness.Algorithms()
	scheds := harness.Schedulers()
	crashes := []string{"none", "one@1", "maxid@5", "coordinator", "midbroadcast", "minorityrand"}
	overlays := []string{"none", "chords", "extra:2", "randomextra:0.2"}
	rng := rand.New(rand.NewSource(0xD1FF))
	cases := make([]digestCase, 0, iters)
	for i := 0; i < iters; i++ {
		spec := topos[rng.Intn(len(topos))]
		s := harness.Scenario{
			Algo:      algos[rng.Intn(len(algos))],
			Topo:      mustTopo(t, spec),
			Sched:     scheds[rng.Intn(len(scheds))],
			Fack:      1 + rng.Int63n(8),
			Seed:      rng.Int63n(1 << 30),
			Crashes:   crashes[rng.Intn(len(crashes))],
			Overlay:   overlays[rng.Intn(len(overlays))],
			MaxEvents: 50_000,
		}
		cases = append(cases, digestCase{
			name: fmt.Sprintf("fuzz/%02d/%s/%s/%s/f%d/s%d/%s/%s",
				i, s.Algo, spec, s.Sched, s.Fack, s.Seed, s.Crashes, s.Overlay),
			s: s,
		})
	}
	return cases
}

// horizonCases are wide-horizon runs: every registered algorithm under
// the two schedulers that spread events across the whole Fack window, at
// bounds far above the canonical grids'.
func horizonCases(t *testing.T) []digestCase {
	var cases []digestCase
	for _, fack := range []int64{5000, 100000} {
		for _, spec := range []string{"ring:9", "grid:3x3"} {
			for _, sched := range []string{"maxdelay", "random"} {
				for _, algo := range harness.Algorithms() {
					cases = append(cases, digestCase{
						name: fmt.Sprintf("horizon/%s/%s/%s/f%d", algo, spec, sched, fack),
						s: harness.Scenario{
							Algo:      algo,
							Topo:      mustTopo(t, spec),
							Sched:     sched,
							Fack:      fack,
							Seed:      11,
							MaxEvents: 50_000,
						},
					})
				}
			}
		}
	}
	return cases
}

// fuzzIters is the fuzz loop's length: the golden holds 40 scenarios,
// -short checks the first 8.
func fuzzIters() int {
	if testing.Short() {
		return 8
	}
	return 40
}

// TestQueueDifferentialRegistry drives every registered scheduler through
// every registered crash pattern and overlay family.
func TestQueueDifferentialRegistry(t *testing.T) {
	checkDigests(t, registryCases(t))
}

// TestQueueDifferentialFuzz runs the seeded loop of random scenarios.
func TestQueueDifferentialFuzz(t *testing.T) {
	checkDigests(t, fuzzCases(t, fuzzIters()))
}

// TestQueueDifferentialHorizon runs the wide-horizon cases.
func TestQueueDifferentialHorizon(t *testing.T) {
	checkDigests(t, horizonCases(t))
}
