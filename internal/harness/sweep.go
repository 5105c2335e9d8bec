package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/stats"
)

// Grid is the cross product of scenario axes. Seeds vary fastest and are
// the replication axis: all seeds of one (algo, topo, sched, fack, inputs,
// crashes, overlay) combination aggregate into a single Cell.
type Grid struct {
	Algos  []string
	Topos  []Topo
	Scheds []string
	Facks  []int64
	Inputs []string
	// Crashes and Overlays are the fault axes: registered crash-pattern
	// and overlay-family specs (see NewCrashes and NewOverlay). Either
	// may be empty, defaulting to {"none"} — a fault-free sweep.
	Crashes  []string
	Overlays []string
	Seeds    []int64
	// MaxEvents caps each execution; 0 means DefaultSweepMaxEvents, so
	// one non-quiescent cell cannot stall the whole grid.
	MaxEvents int
}

// DefaultSweepMaxEvents bounds each sweep execution when Grid.MaxEvents is
// zero — tighter than the simulator's own default so a non-quiescent cell
// fails fast (as a termination violation) instead of stalling the grid.
const DefaultSweepMaxEvents = 5_000_000

// CellWork is one sweep work-unit: the scenario family of one cell — every
// axis fixed except the seed — and the seeds that replicate it. Sweeps
// schedule whole cells onto workers, so one worker runs all of a cell's
// seeds back to back on one reusable engine and aggregates them in place.
type CellWork struct {
	// Base is the cell's scenario family; its Seed field is ignored.
	Base Scenario
	// Seeds is the replication axis.
	Seeds []int64
}

// Cells expands the grid into cell work-units, one per
// (algo, topo, inputs, sched, fack, crashes, overlay) combination, in
// axis-nesting order. Empty Inputs defaults to {"alternating"} and the
// empty fault axes to {"none"}; every other axis must be non-empty.
func (g Grid) Cells() ([]CellWork, error) {
	inputs := g.Inputs
	if len(inputs) == 0 {
		inputs = []string{"alternating"}
	}
	crashes := g.Crashes
	if len(crashes) == 0 {
		crashes = []string{"none"}
	}
	overlays := g.Overlays
	if len(overlays) == 0 {
		overlays = []string{"none"}
	}
	// Validate in a fixed order so the reported axis is deterministic
	// when several are empty.
	for _, axis := range []struct {
		name string
		n    int
	}{
		{"algos", len(g.Algos)},
		{"topos", len(g.Topos)},
		{"scheds", len(g.Scheds)},
		{"facks", len(g.Facks)},
		{"seeds", len(g.Seeds)},
	} {
		if axis.n == 0 {
			return nil, fmt.Errorf("harness: sweep grid has an empty %s axis", axis.name)
		}
	}
	maxEvents := g.MaxEvents
	if maxEvents == 0 {
		maxEvents = DefaultSweepMaxEvents
	}
	cells := make([]CellWork, 0, len(g.Algos)*len(g.Topos)*len(inputs)*len(g.Scheds)*len(g.Facks)*len(crashes)*len(overlays))
	for _, algo := range g.Algos {
		for _, topo := range g.Topos {
			for _, in := range inputs {
				for _, sched := range g.Scheds {
					for _, fack := range g.Facks {
						for _, crash := range crashes {
							for _, overlay := range overlays {
								cells = append(cells, CellWork{
									Base: Scenario{
										Algo: algo, Topo: topo, Inputs: in,
										Sched: sched, Fack: fack,
										Crashes: crash, Overlay: overlay,
										MaxEvents: maxEvents,
									},
									Seeds: g.Seeds,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// Scenarios expands the grid into flat scenarios — the cell work-units of
// Cells flattened with seeds innermost. Sweep re-groups flat scenarios
// into cells, so Cells plus SweepCells is the direct route.
func (g Grid) Scenarios() ([]Scenario, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	scs := make([]Scenario, 0, len(cells)*len(g.Seeds))
	for _, cw := range cells {
		for _, seed := range cw.Seeds {
			s := cw.Base
			s.Seed = seed
			scs = append(scs, s)
		}
	}
	return scs, nil
}

// Summary is a five-number summary of one per-cell sample.
type Summary struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) Summary {
	return Summary{
		Min:    stats.Min(xs),
		Median: stats.Median(xs),
		Mean:   stats.Mean(xs),
		P95:    stats.Percentile(xs, 95),
		Max:    stats.Max(xs),
	}
}

// Cell aggregates every seed of one scenario combination.
type Cell struct {
	Algo   string `json:"algo"`
	Topo   string `json:"topo"`
	Inputs string `json:"inputs"`
	Sched  string `json:"sched"`
	// Crashes and Overlay are the cell's fault-axis specs ("none" when
	// the grid had no fault axes).
	Crashes string `json:"crashes"`
	Overlay string `json:"overlay"`
	// Fack is the requested grid-axis value; EffectiveFack is the median
	// bound the scheduler actually declared. They differ for schedulers
	// with a structural bound (edgeorder declares MaxDegree+1), which is
	// why DecidePerFack normalizes by EffectiveFack.
	Fack          int64 `json:"fack"`
	EffectiveFack int64 `json:"effective_fack"`

	// N is the node count; Diameter is the median topology diameter
	// across the cell's seeds (both are seed-independent for every
	// family except random, where per-seed graphs differ in shape).
	N        int `json:"n"`
	Diameter int `json:"diameter"`

	// Runs counts executions; Correct counts those satisfying agreement,
	// validity and termination; Undecided counts runs where no node
	// decided (those are excluded from the Decide summary).
	Runs      int `json:"runs"`
	Correct   int `json:"correct"`
	Undecided int `json:"undecided"`

	// Decide summarizes the decision latency (max decide time per run)
	// over the runs that decided; DecidePerFack normalizes its median by
	// EffectiveFack. Both are zero when every run was undecided.
	Decide        Summary `json:"decide_time"`
	DecidePerFack float64 `json:"decide_per_fack"`

	// SurvivorDecide summarizes the survivor-only decision latency (the
	// latest decision among non-crashed nodes, per run) over the runs in
	// which some survivor decided. It coincides with Decide in
	// fault-free cells and is the meaningful latency under crash
	// patterns, where Decide may count nodes that decided and then died.
	SurvivorDecide Summary `json:"survivor_decide_time"`

	// Faults summarizes the number of crashed nodes per run, and
	// FaultTerminations counts the runs that had at least one crash yet
	// every survivor still decided — the cell's
	// "termination despite faults" score.
	Faults            Summary `json:"faults"`
	FaultTerminations int     `json:"terminated_despite_faults"`

	// Broadcasts and Deliveries summarize MAC-layer message counts.
	Broadcasts Summary `json:"broadcasts"`
	Deliveries Summary `json:"deliveries"`

	// DistinctSchedules counts the distinct schedule-coverage fingerprints
	// (see sim.Fingerprinter) observed across the cell's runs — how many
	// different delivery orderings the seeds actually exercised. Zero when
	// the sweep did not ask for fingerprints (SweepOptions.Fingerprint),
	// and omitted from the JSON then, so fingerprint-free sweep output is
	// byte-identical to earlier releases.
	DistinctSchedules int `json:"distinct_schedules,omitempty"`

	// Metrics lists the cell's aggregated flight-recorder metrics (engine,
	// detector and algorithm counters summed across the cell's runs; gauge
	// high-waters maxed), sorted by name with all-zero rows dropped. Nil
	// unless the sweep asked for metrics (SweepOptions.Metrics), and
	// omitted from the JSON then, so metric-free sweep output is
	// byte-identical to earlier releases.
	Metrics []CellMetric `json:"metrics,omitempty"`

	// Errors lists distinct consensus violations observed in the cell.
	Errors []string `json:"errors,omitempty"`
}

// CellMetric is one aggregated flight-recorder metric of a cell. Counter
// rows carry Value (summed across the cell's runs); gauge rows carry the
// last run's Value plus the maximal High high-water; histogram rows carry
// the merged Count/Sum and the merged distribution's p50/p99 bucket upper
// bounds. Zero-valued fields are omitted, so each kind serializes only
// its own columns.
type CellMetric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value int64  `json:"value,omitempty"`
	High  int64  `json:"high,omitempty"`
	Count int64  `json:"count,omitempty"`
	Sum   int64  `json:"sum,omitempty"`
	P50   int64  `json:"p50,omitempty"`
	P99   int64  `json:"p99,omitempty"`
}

// cellMetrics converts an aggregation registry into the cell's metric
// rows: registration-sorted (by name), all-zero rows dropped — a worker's
// registry accumulates registrations across every cell it runs, so slots
// belonging to other algorithms show up zeroed here and must not render.
func cellMetrics(agg *metrics.Registry) []CellMetric {
	samples := agg.Snapshot()
	rows := make([]CellMetric, 0, len(samples))
	for _, s := range samples {
		switch s.Kind {
		case "counter":
			if s.Value == 0 {
				continue
			}
			rows = append(rows, CellMetric{Name: s.Name, Kind: s.Kind, Value: s.Value})
		case "gauge":
			if s.Value == 0 && s.High == 0 {
				continue
			}
			rows = append(rows, CellMetric{Name: s.Name, Kind: s.Kind, Value: s.Value, High: s.High})
		case "histogram":
			if s.Count == 0 {
				continue
			}
			rows = append(rows, CellMetric{Name: s.Name, Kind: s.Kind, Count: s.Count, Sum: s.Sum,
				P50: s.Quantile(50), P99: s.Quantile(99)})
		}
	}
	if len(rows) == 0 {
		return nil
	}
	return rows
}

// cellIdent is a scenario's cell identity: every axis except the seed,
// with the optional axes normalized to their defaults exactly as the cell
// reports them. It is a comparable value used directly as a map key, so
// grouping scenarios into cells renders no strings.
type cellIdent struct {
	algo             string
	topo             Topo
	inputs, sched    string
	fack             int64
	crashes, overlay string
}

func (s Scenario) cellKey() cellIdent {
	return cellIdent{algo: s.Algo, topo: s.Topo, inputs: defaulted(s.Inputs, "alternating"),
		sched: s.Sched, fack: s.Fack, crashes: defaulted(s.Crashes, "none"), overlay: defaulted(s.Overlay, "none")}
}

func defaulted(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// OK reports whether every run in the cell was correct.
func (c *Cell) OK() bool { return c.Correct == c.Runs }

// cellAccum streams one cell's outcomes into preallocated sample slices;
// finish turns them into the aggregated Cell. Outcomes must be added in
// seed order — summaries are order-insensitive, but reproducible cells
// demand a deterministic sample order.
type cellAccum struct {
	cell                           Cell
	started                        bool
	decide, broadcasts, deliveries []float64
	survivorDecide, faults         []float64
	diameters, facks               []float64
	errSeen                        map[string]bool
	fpSeen                         map[uint64]bool
}

func newCellAccum(runs int) *cellAccum {
	// One backing array for all seven sample slices: a cell's samples
	// live and die together.
	buf := make([]float64, 7*runs)
	return &cellAccum{
		decide:         buf[0*runs : 0*runs : 1*runs],
		broadcasts:     buf[1*runs : 1*runs : 2*runs],
		deliveries:     buf[2*runs : 2*runs : 3*runs],
		survivorDecide: buf[3*runs : 3*runs : 4*runs],
		faults:         buf[4*runs : 4*runs : 5*runs],
		diameters:      buf[5*runs : 5*runs : 6*runs],
		facks:          buf[6*runs : 6*runs : 7*runs],
	}
}

// add folds one outcome in; fp is the run's schedule-coverage fingerprint
// and fpOn whether fingerprints were computed at all. It reports whether
// the fingerprint was fresh for this cell (always false with fpOn unset),
// which is what the saturation early-stop counts.
func (a *cellAccum) add(o *Outcome, fp uint64, fpOn bool) bool {
	s := o.Scenario
	if !a.started {
		a.started = true
		a.cell = Cell{Algo: s.Algo, Topo: s.Topo.String(), Inputs: defaulted(s.Inputs, "alternating"),
			Sched: s.Sched, Crashes: defaulted(s.Crashes, "none"), Overlay: defaulted(s.Overlay, "none"),
			Fack: s.Fack, N: o.N}
	}
	a.cell.Runs++
	if o.OK() {
		a.cell.Correct++
	}
	for _, e := range o.Report.Errors {
		if a.errSeen == nil {
			a.errSeen = map[string]bool{}
		}
		if !a.errSeen[e] {
			a.errSeen[e] = true
			a.cell.Errors = append(a.cell.Errors, e)
		}
	}
	a.diameters = append(a.diameters, float64(o.Diameter))
	a.facks = append(a.facks, float64(o.Fack))
	if o.Result.MaxDecideTime >= 0 {
		a.decide = append(a.decide, float64(o.Result.MaxDecideTime))
	} else {
		a.cell.Undecided++
	}
	if o.Report.SurvivorDecideTime >= 0 {
		a.survivorDecide = append(a.survivorDecide, float64(o.Report.SurvivorDecideTime))
	}
	a.faults = append(a.faults, float64(o.Report.Crashed))
	if o.Report.Crashed > 0 && o.Report.Termination {
		a.cell.FaultTerminations++
	}
	a.broadcasts = append(a.broadcasts, float64(o.Result.Broadcasts))
	a.deliveries = append(a.deliveries, float64(o.Result.Deliveries))
	if !fpOn {
		return false
	}
	if a.fpSeen == nil {
		a.fpSeen = map[uint64]bool{}
	}
	if a.fpSeen[fp] {
		return false
	}
	a.fpSeen[fp] = true
	a.cell.DistinctSchedules++
	return true
}

func (a *cellAccum) finish() Cell {
	a.cell.Diameter = int(stats.Median(a.diameters))
	a.cell.EffectiveFack = int64(stats.Median(a.facks))
	a.cell.Decide = summarize(a.decide)
	if len(a.decide) > 0 && a.cell.EffectiveFack > 0 {
		a.cell.DecidePerFack = a.cell.Decide.Median / float64(a.cell.EffectiveFack)
	}
	a.cell.SurvivorDecide = summarize(a.survivorDecide)
	a.cell.Faults = summarize(a.faults)
	a.cell.Broadcasts = summarize(a.broadcasts)
	a.cell.Deliveries = summarize(a.deliveries)
	return a.cell
}

// cellGroup is the sweep-internal unit of work: one cell's scenarios (in
// seed order) plus their positions in the caller's flat scenario list, for
// error attribution.
type cellGroup struct {
	scs  []Scenario
	idxs []int
}

// groupScenarios buckets flat scenarios into cells by cell identity, in
// first-appearance order, preserving the scenario order within each cell.
func groupScenarios(scs []Scenario) []*cellGroup {
	byKey := make(map[cellIdent]*cellGroup)
	var groups []*cellGroup
	for i, s := range scs {
		k := s.cellKey()
		g, ok := byKey[k]
		if !ok {
			g = &cellGroup{}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.scs = append(g.scs, s)
		g.idxs = append(g.idxs, i)
	}
	return groups
}

// FlaggedRun is one violating execution streamed out of a sweep: the
// scenario (seed included), its classification, where it sits in the
// sweep's cell list, and — when fingerprinting is on — its
// schedule-coverage fingerprint. This is the sweep→explore work item: the
// campaign layer (internal/explore.Campaign) collects flagged runs and
// turns each flagged cell into a recorded, perturbed and minimized
// counterexample instead of a buried Errors entry.
type FlaggedRun struct {
	// Cell indexes the sweep's returned cell slice.
	Cell int
	// Run is the scenario's position within its cell (seed order).
	Run int
	// Scenario is the complete violating scenario, replayable as is.
	Scenario Scenario
	// Violation classifies what broke (see consensus.Classify).
	Violation *consensus.Violation
	// Fingerprint is the run's schedule-coverage digest, 0 when the sweep
	// did not compute fingerprints.
	Fingerprint uint64
}

// SweepOptions tunes a sweep beyond the worker-pool width. The zero value
// reproduces the plain Sweep/SweepCells behaviour exactly.
type SweepOptions struct {
	// Workers is the worker-pool width (<= 0 means GOMAXPROCS).
	Workers int
	// OnFlag, when non-nil, receives every run that violates a consensus
	// property, as soon as its cell's worker classifies it. It is called
	// concurrently from worker goroutines and must be safe for that;
	// cross-cell ordering follows worker scheduling, so deterministic
	// consumers sort by (Cell, Run) — both are deterministic identities.
	OnFlag func(FlaggedRun)
	// Fingerprint computes a schedule-coverage fingerprint per run (one
	// sim.Fingerprinter wrapper per execution) and reports the number of
	// distinct fingerprints per cell in Cell.DistinctSchedules. Off by
	// default: the sweep hot path is allocation-identical to a build
	// without the feature when unset.
	Fingerprint bool
	// SaturateAfter stops a cell's seed loop early once that many
	// consecutive seeds produced no new fingerprint — the cell's schedule
	// coverage has saturated, so further seeds would re-measure the same
	// executions. Cell.Runs then reports how many seeds actually ran.
	// 0 means never stop early; setting it implies Fingerprint.
	SaturateAfter int
	// Metrics installs a per-worker metrics.Registry on every run and
	// aggregates each cell's values into Cell.Metrics (counters sum across
	// seeds, gauge high-waters max, histograms merge bucket-wise). Off by
	// default: an unset flag hands the engine a nil registry — disabled
	// handles all the way down — and the sweep hot path stays
	// allocation-identical to a build without the feature.
	Metrics bool
}

func (o SweepOptions) normalized() SweepOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.SaturateAfter > 0 {
		o.Fingerprint = true
	}
	return o
}

// Sweep runs every scenario on a worker pool of the given width (<= 0
// means GOMAXPROCS) and aggregates outcomes into cells, one per distinct
// (algo, topo, inputs, sched, fack, crashes, overlay) combination, in
// first-appearance order. Scenarios are grouped into cells first and
// whole cells are scheduled onto workers: each worker reuses one engine
// across the seeds of a cell, and all workers share memoized topology,
// diameter, overlay and input caches. Scenario construction errors abort
// the sweep; consensus violations do not — they are reported per cell
// (and streamed to SweepOptions.OnFlag, via SweepCellsOpts).
func Sweep(scs []Scenario, workers int) ([]Cell, error) {
	return sweepGroups(groupScenarios(scs), SweepOptions{Workers: workers})
}

// SweepCells runs cell work-units (see Grid.Cells) directly, one unit per
// worker-pool task. It is Sweep without the flat-scenario detour: cells
// come in already grouped, so nothing is re-keyed — which is why two
// work-units sharing a cell identity are rejected rather than silently
// emitted as duplicate rows (flatten to Sweep when merging is wanted).
func SweepCells(cells []CellWork, workers int) ([]Cell, error) {
	return SweepCellsOpts(cells, SweepOptions{Workers: workers})
}

// SweepCellsOpts is SweepCells with the full option set: flagged-run
// streaming, schedule-coverage fingerprints and coverage saturation.
func SweepCellsOpts(cells []CellWork, opts SweepOptions) ([]Cell, error) {
	seen := make(map[cellIdent]bool, len(cells))
	for _, cw := range cells {
		if len(cw.Seeds) == 0 {
			return nil, fmt.Errorf("harness: cell %s on %s under %s has no seeds", cw.Base.Algo, cw.Base.Topo, cw.Base.Sched)
		}
		k := cw.Base.cellKey()
		if seen[k] {
			return nil, fmt.Errorf("harness: duplicate cell %s on %s under %s (crashes %s, overlay %s, Fack %d): merge the work-units or sweep flat scenarios",
				k.algo, k.topo, k.sched, k.crashes, k.overlay, k.fack)
		}
		seen[k] = true
	}
	groups := make([]*cellGroup, len(cells))
	idx := 0
	for i, cw := range cells {
		g := &cellGroup{scs: make([]Scenario, len(cw.Seeds)), idxs: make([]int, len(cw.Seeds))}
		for j, seed := range cw.Seeds {
			s := cw.Base
			s.Seed = seed
			g.scs[j] = s
			g.idxs[j] = idx
			idx++
		}
		groups[i] = g
	}
	return sweepGroups(groups, opts)
}

func sweepGroups(groups []*cellGroup, opts SweepOptions) ([]Cell, error) {
	opts = opts.normalized()
	type cellErr struct {
		idx int // scenario index, for deterministic error attribution
		sc  Scenario
		err error
	}
	cells := make([]Cell, len(groups))
	errs := make([]cellErr, len(groups))
	shared := newCaches()
	// Buffered so the producer never blocks and workers never serialize
	// on an unbuffered handoff.
	work := make(chan int, len(groups))
	for i := range groups {
		work <- i
	}
	close(work)
	// Captured as individual locals, not via opts, so the options struct
	// does not escape into the worker closures (the plain sweep path's
	// allocation count is pinned by BENCH_engine.json).
	fingerprint, onFlag, saturateAfter, metricsOn := opts.Fingerprint, opts.OnFlag, opts.SaturateAfter, opts.Metrics
	// A worker beyond one per cell would find the queue empty; not
	// spawning it keeps a small sweep's allocations independent of the
	// machine's width.
	var wg sync.WaitGroup
	for w := 0; w < min(opts.Workers, len(groups)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &runner{caches: shared}
			// One registry per worker, reset by the engine each run; its
			// registrations persist across the worker's cells (they can
			// include other algorithms' slots from earlier cells), which is
			// why cellMetrics drops all-zero rows.
			var reg *metrics.Registry
			if metricsOn {
				reg = metrics.New()
			}
			for gi := range work {
				g := groups[gi]
				acc := newCellAccum(len(g.scs))
				var cellAgg *metrics.Registry
				if metricsOn {
					cellAgg = metrics.New()
				}
				ok := true
				stale := 0
				for k, s := range g.scs {
					o, fp, err := r.run(s, fingerprint, reg)
					if err != nil {
						errs[gi] = cellErr{idx: g.idxs[k], sc: s, err: err}
						ok = false
						break
					}
					cellAgg.Merge(reg)
					fresh := acc.add(o, fp, fingerprint)
					if onFlag != nil {
						if v := o.Violation(); v != nil {
							onFlag(FlaggedRun{Cell: gi, Run: k, Scenario: s, Violation: v, Fingerprint: fp})
						}
					}
					if saturateAfter > 0 {
						if fresh {
							stale = 0
						} else if stale++; stale >= saturateAfter {
							// Coverage saturated: the remaining seeds would
							// almost surely re-exercise known orderings.
							break
						}
					}
				}
				if ok {
					cells[gi] = acc.finish()
					if metricsOn {
						cells[gi].Metrics = cellMetrics(cellAgg)
					}
				}
			}
		}()
	}
	wg.Wait()
	// Report the error of the lowest-index scenario, so failures are
	// attributed deterministically regardless of worker scheduling.
	first := -1
	for gi := range errs {
		if errs[gi].err != nil && (first < 0 || errs[gi].idx < errs[first].idx) {
			first = gi
		}
	}
	if first >= 0 {
		e := errs[first]
		return nil, fmt.Errorf("scenario %d (%s on %s under %s): %w", e.idx, e.sc.Algo, e.sc.Topo, e.sc.Sched, e.err)
	}
	return cells, nil
}

// Report writes the cells to w — an indented JSON array when jsonOut,
// an aligned text table otherwise — and returns how many cells contain
// consensus violations. It is the shared output path of `amacsim -sweep`
// and `benchsuite`.
func Report(w io.Writer, cells []Cell, jsonOut bool) (bad int, err error) {
	if jsonOut {
		err = WriteJSON(w, cells)
	} else {
		_, err = io.WriteString(w, Table(cells).Render())
	}
	for i := range cells {
		if !cells[i].OK() {
			bad++
		}
	}
	return bad, err
}

// WriteJSON emits the cells as an indented JSON array (the `amacsim -sweep
// -json` output format).
func WriteJSON(w io.Writer, cells []Cell) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cells)
}

// Table renders the cells as a plain-text table. The fault columns report
// the median crashed-node count, the survivor-only decision latency and
// how many faulty runs still terminated (see Cell).
func Table(cells []Cell) *stats.Table {
	t := &stats.Table{Columns: []string{
		"algo", "topo", "inputs", "sched", "crashes", "overlay", "Fack", "n", "D",
		"runs", "ok", "decide med", "decide p95", "decide/Fack",
		"faults med", "sdecide med", "term+faults", "bcast med", "deliv med",
	}}
	for _, c := range cells {
		ok := fmt.Sprintf("%d/%d", c.Correct, c.Runs)
		fack := fmt.Sprint(c.Fack)
		if c.EffectiveFack != c.Fack {
			// Structural schedulers override the requested bound.
			fack = fmt.Sprintf("%d>%d", c.Fack, c.EffectiveFack)
		}
		t.AddRow(c.Algo, c.Topo, c.Inputs, c.Sched, c.Crashes, c.Overlay, fack, c.N, c.Diameter,
			c.Runs, ok, c.Decide.Median, c.Decide.P95, c.DecidePerFack,
			c.Faults.Median, c.SurvivorDecide.Median, c.FaultTerminations,
			c.Broadcasts.Median, c.Deliveries.Median)
	}
	return t
}
