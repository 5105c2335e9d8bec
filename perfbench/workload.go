package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
	"github.com/absmac/absmac/internal/stats"
)

// workload is one set of inputs the benchmark runs. A decide workload runs
// one execution per op, cycling through a pool of scenario seeds; the
// sweep workload runs the canonical grid through harness.SweepCellsOpts,
// one full sweep per op.
type workload struct {
	name string
	// algo and topo are every scenario's of a decide workload.
	algo, topo string
	sweep      bool
}

var workloads = []workload{
	{name: "wpaxos-expander", algo: "wpaxos", topo: "expander:1024:8"},
	{name: "floodpaxos-expander", algo: "floodpaxos", topo: "expander:128:8"},
	{name: "twophase-clique", algo: "twophase", topo: "clique:512"},
	{name: "sweep-canonical", sweep: true},
}

// poolSize is how many scenario seeds a decide workload's ops cycle
// through: enough for ten beyond the p75 of decide_dfack, few enough that
// one pass fits in a run at every workload's op time.
const poolSize = 40

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deriveSeed maps the workload seed and an index to a positive scenario
// seed (splitmix64), so every input of a run follows from --seed.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

// job is a workload's generated input for one workload seed.
type job struct {
	wl    workload
	scs   []harness.Scenario // decide: the pool; sweep: every execution of one op, in cell order
	cells []harness.CellWork // sweep only
	width int                // sweep worker count
}

func newJob(wl workload, seed int64, width int) (*job, error) {
	j := &job{wl: wl, width: width}
	if wl.sweep {
		for _, g := range canonicalGrids(seed) {
			cw, err := g.Cells()
			if err != nil {
				return nil, err
			}
			j.cells = append(j.cells, cw...)
		}
		for _, cw := range j.cells {
			for _, sd := range cw.Seeds {
				s := cw.Base
				s.Seed = sd
				j.scs = append(j.scs, s)
			}
		}
		return j, nil
	}
	topo, err := harness.ParseTopo(wl.topo)
	if err != nil {
		return nil, err
	}
	for i := 0; i < poolSize; i++ {
		j.scs = append(j.scs, harness.Scenario{Algo: wl.algo, Topo: topo, Inputs: "alternating",
			Sched: "random", Fack: 4, Seed: deriveSeed(seed, i)})
	}
	return j, nil
}

// passOps is the number of ops that cover every scenario of the job once.
func (j *job) passOps() int {
	if j.wl.sweep {
		return 1
	}
	return len(j.scs)
}

// perOp is the number of executions one op performs.
func (j *job) perOp() int {
	if j.wl.sweep {
		return len(j.scs)
	}
	return 1
}

// canonicalGrids are the four grids of `benchsuite -grid` (cmd/benchsuite),
// with their eight seeds per cell derived from the workload seed.
func canonicalGrids(seed int64) []harness.Grid {
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = deriveSeed(seed, i)
	}
	return []harness.Grid{
		{
			Algos:  []string{"twophase", "wpaxos", "floodpaxos", "gatherall", "benor", "anonflood", "waitall"},
			Topos:  []harness.Topo{{Kind: "clique", N: 4}, {Kind: "clique", N: 8}},
			Scheds: []string{"sync", "random", "maxdelay"},
			Facks:  []int64{2, 8},
			Seeds:  seeds,
		},
		{
			Algos: []string{"wpaxos", "floodpaxos", "gatherall"},
			Topos: []harness.Topo{
				{Kind: "line", N: 8},
				{Kind: "ring", N: 9},
				{Kind: "grid", Rows: 4, Cols: 4},
				{Kind: "tree", Branch: 2, Depth: 3},
				{Kind: "starlines", Arms: 4, ArmLen: 2},
				{Kind: "random", N: 16, P: 0.15},
				{Kind: "expander", N: 16, Deg: 4},
				{Kind: "pods", Pods: 4, PodSize: 4, Cross: 2},
			},
			Scheds: []string{"sync", "random", "maxdelay"},
			Facks:  []int64{2, 8},
			Seeds:  seeds,
		},
		{
			Algos:   []string{"wpaxos", "floodpaxos", "benor"},
			Topos:   []harness.Topo{{Kind: "clique", N: 8}},
			Scheds:  []string{"sync", "random"},
			Facks:   []int64{4},
			Crashes: []string{"one@0", "coordinator", "midbroadcast", "maxid@6"},
			Seeds:   seeds,
		},
		{
			Algos:    []string{"wpaxos", "floodpaxos"},
			Topos:    []harness.Topo{{Kind: "ring", N: 9}, {Kind: "grid", Rows: 3, Cols: 3}},
			Scheds:   []string{"random"},
			Facks:    []int64{4},
			Crashes:  []string{"one@0", "midbroadcast", "maxid@6"},
			Overlays: []string{"none", "randomextra:0.25", "chords"},
			Seeds:    seeds,
		},
	}
}

// simFacts are the fields of a sim.Result the non-perturbation check
// compares; Decisions hashes every node's decided flag, decision, decide
// time and crash flag.
type simFacts struct {
	Events, Broadcasts, Deliveries, Acks, Discards int
	MaxDecideTime                                  int64
	Decisions                                      uint64
	Cutoff                                         bool
}

// execResult is what the benchmark keeps of one execution.
type execResult struct {
	name  string
	facts simFacts
	n, d  int
	fack  int64
	// survivor is consensus.Report.SurvivorDecideTime (-1: nobody decided).
	survivor int64
	ok       bool
	// fault names why the execution failed ("" when ok); violation marks
	// a broken safety property, which makes the whole run incorrect.
	fault     string
	violation bool
}

func newExec(s harness.Scenario, res *sim.Result, rep *consensus.Report, n, d int, fack int64) execResult {
	h := fnv.New64a()
	var b [18]byte
	for i := range res.Decided {
		b[0], b[1] = boolByte(res.Decided[i]), boolByte(res.Crashed[i])
		binary.LittleEndian.PutUint64(b[2:], uint64(res.Decision[i]))
		binary.LittleEndian.PutUint64(b[10:], uint64(res.DecideTime[i]))
		h.Write(b[:])
	}
	r := execResult{
		name: scenarioName(s),
		facts: simFacts{Events: res.Events, Broadcasts: res.Broadcasts, Deliveries: res.Deliveries,
			Acks: res.Acks, Discards: res.Discards, MaxDecideTime: res.MaxDecideTime,
			Decisions: h.Sum64(), Cutoff: res.Cutoff},
		n: n, d: d, fack: fack, survivor: rep.SurvivorDecideTime,
		ok: rep.OK() && !res.Cutoff,
	}
	switch {
	case !rep.Agreement || !rep.Validity || len(res.Violations) > 0:
		r.fault, r.violation = "violation: "+strings.Join(rep.Errors, "; "), true
	case res.Cutoff:
		r.fault = fmt.Sprintf("cut off at the event cap after %d events", res.Events)
	case !rep.OK():
		r.fault = "undecided: " + strings.Join(rep.Errors, "; ")
	}
	return r
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func scenarioName(s harness.Scenario) string {
	name := fmt.Sprintf("%s/%s/%s/fack=%d/seed=%d", s.Algo, s.Topo, s.Sched, s.Fack, s.Seed)
	if s.Crashes != "" && s.Crashes != "none" {
		name += "/crashes=" + s.Crashes
	}
	if s.Overlay != "" && s.Overlay != "none" {
		name += "/overlay=" + s.Overlay
	}
	return name
}

// dfack is the survivor decide time over ((D+1)·Fack), the normalisation
// amacsim prints.
func dfack(survivor int64, d int, fack int64) float64 {
	return float64(survivor) / float64(int64(d+1)*fack)
}

// runScenario is one untraced decide op: a single execution exactly as
// Scenario.Run performs it. A panic (a scheduler-contract breach, say) is
// returned as an error marked fatal.
func runScenario(s harness.Scenario) (r execResult, err error, fatal bool) {
	defer func() {
		if p := recover(); p != nil {
			err, fatal = fmt.Errorf("%s: panic: %v", scenarioName(s), p), true
		}
	}()
	out, err := s.Run()
	if err != nil {
		return execResult{}, fmt.Errorf("%s: %w", scenarioName(s), err), false
	}
	return newExec(s, out.Result, out.Report, out.N, out.Diameter, out.Fack), nil, false
}

// replay runs the scenarios as one op through the public per-execution
// calls Scenario.Run and the sweep workers are made of: Scenario.Config,
// sim.NewEngine or Engine.Reset, Engine.Run, consensus.Check and
// Graph.Diameter. With reuse set, one engine serves every execution, as a
// sweep worker's does. A non-nil tracer brackets each call in a span and
// wraps the scheduler, the factory and the algorithms' API; a nil one runs
// the same calls bare.
func replay(scs []harness.Scenario, reuse bool, t *tracer) (rs []execResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	rs = make([]execResult, 0, len(scs))
	var eng *sim.Engine
	t.begin(lOp)
	for _, s := range scs {
		t.begin(lConfig)
		cfg, err := s.Config()
		t.end()
		if err == nil {
			err = t.shadowBuild(s)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scenarioName(s), err)
		}
		t.instrument(&cfg, algoIndex(s.Algo))
		t.begin(lReset)
		if eng == nil || !reuse {
			eng = sim.NewEngine(cfg)
		} else {
			eng.Reset(cfg)
		}
		t.end()
		t.begin(lRun)
		res := eng.Run()
		t.end()
		t.begin(lCheck)
		rep := consensus.Check(cfg.Inputs, res)
		t.end()
		t.begin(lDiameter)
		d := cfg.Graph.Diameter()
		t.end()
		t.count(s.Algo, res)
		rs = append(rs, newExec(s, res, rep, cfg.Graph.N(), d, cfg.Scheduler.Fack()))
	}
	t.end()
	t.finishOp()
	return rs, nil
}

// sweepOp is one untraced sweep op.
func (j *job) sweepOp() ([]harness.Cell, error) {
	return harness.SweepCellsOpts(j.cells, harness.SweepOptions{Workers: j.width})
}

// cellFaults lists the failed executions of a sweep's cells and reports
// whether any cell broke a safety property (consensus.Check's agreement
// and validity errors, or a substrate violation).
func cellFaults(cells []harness.Cell) (failed int, faults []string, violation bool) {
	for _, c := range cells {
		if c.OK() {
			continue
		}
		failed += c.Runs - c.Correct
		name := fmt.Sprintf("%s/%s/%s/fack=%d/crashes=%s/overlay=%s", c.Algo, c.Topo, c.Sched, c.Fack, c.Crashes, c.Overlay)
		faults = append(faults, fmt.Sprintf("%s: %d of %d runs failed (%d undecided): %s",
			name, c.Runs-c.Correct, c.Runs, c.Undecided, strings.Join(c.Errors, "; ")))
		for _, e := range c.Errors {
			if strings.HasPrefix(e, "agreement") || strings.HasPrefix(e, "validity") || strings.HasPrefix(e, "substrate") {
				violation = true
			}
		}
	}
	return failed, faults, violation
}

// matchCells checks that the serial replay ran the same executions as the
// sweep: per cell, the same correct and undecided counts and the same
// medians of decide time, broadcasts and deliveries.
func (j *job) matchCells(cells []harness.Cell, rs []execResult) error {
	if len(cells) != len(j.cells) {
		return fmt.Errorf("sweep returned %d cells for %d work units", len(cells), len(j.cells))
	}
	at := 0
	for i, cw := range j.cells {
		part := rs[at : at+len(cw.Seeds)]
		at += len(cw.Seeds)
		var decide, bc, dl []float64
		correct, undecided := 0, 0
		for _, r := range part {
			if r.ok {
				correct++
			}
			if r.facts.MaxDecideTime >= 0 {
				decide = append(decide, float64(r.facts.MaxDecideTime))
			} else {
				undecided++
			}
			bc = append(bc, float64(r.facts.Broadcasts))
			dl = append(dl, float64(r.facts.Deliveries))
		}
		c := cells[i]
		got := [5]float64{float64(correct), float64(undecided), stats.Median(decide), stats.Median(bc), stats.Median(dl)}
		want := [5]float64{float64(c.Correct), float64(c.Undecided), c.Decide.Median, c.Broadcasts.Median, c.Deliveries.Median}
		if got != want {
			return fmt.Errorf("replay of cell %s on %s (crashes %s, overlay %s) differs from the sweep: %v vs %v",
				c.Algo, c.Topo, c.Crashes, c.Overlay, got, want)
		}
	}
	return nil
}
