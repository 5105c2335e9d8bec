// Command perfbench is the repository benchmark: real consensus executions
// run to decision, checked for correctness, timed end to end, and split by
// layer from outside the program.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// The load is a closed loop on simulated time: each op starts when the
// previous one ends, and the injected message delay is the random
// scheduler's (Fack 4), so wall-clock time is processor time only. The
// decide workloads run on one goroutine; sweep-canonical runs
// harness.SweepCellsOpts with one worker per CPU.
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// replays the same scenarios through wrapped layer entry points and prints
// the per-layer split, after checking that tracing changed no execution.
// The last line of standard output is the JSON result; the lines before
// it are a readable report. Spans and per-op layer aggregates of a traced
// run are written to .bench_build/perfbench-trace/. RECORD.md holds the
// workloads' rationale, the layer-to-end-to-end predictions and a
// recorded run.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/stats"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: every scenario seed derives from it")
	seconds := flag.Int("seconds", 10, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	b := &bench{wl: wl, seed: *seed, budget: time.Duration(*seconds) * time.Second, width: runtime.NumCPU(), correct: true}
	var err error
	if *trace == 1 {
		err = b.traced()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.report(os.Stdout, *trace == 1)
	if !b.correct {
		fmt.Fprintf(os.Stderr, "perfbench: the run is incorrect (%d problems):\n", len(b.problems))
		for _, p := range b.problems[:min(len(b.problems), 20)] {
			fmt.Fprintln(os.Stderr, "  "+p)
		}
		return 1
	}
	return 0
}

// metric is one printed figure. samples and stat say what it summarizes:
// for a percentile, how many values and which percentile.
type metric struct {
	name, unit string
	value      float64
	samples    int
	stat       string
}

type bench struct {
	wl     workload
	seed   int64
	budget time.Duration
	width  int

	job                *job
	attempted, failed  int
	faults             []string // failed executions, by scenario
	correct            bool
	problems           []string // why the run is incorrect
	metrics            []metric
	notes              []string // report lines printed before the metrics
	opCount, execCount int
}

func (b *bench) fail(format string, args ...any) {
	b.correct = false
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// setup generates the workload's inputs and runs the untimed warm-up op.
func (b *bench) setup() (time.Duration, error) {
	t0 := time.Now()
	j, err := newJob(b.wl, b.seed, b.width)
	if err != nil {
		return 0, err
	}
	if j.wl.sweep {
		_, err = j.sweepOp()
	} else {
		_, err, _ = runScenario(j.scs[0])
	}
	if err != nil {
		return 0, fmt.Errorf("warm-up op: %w", err)
	}
	b.job = j
	return time.Since(t0), nil
}

// pass is the outcome of a closed loop of untraced ops.
type pass struct {
	times []float64      // per op, ms
	rss   []float64      // per op peak resident set, MB
	first []execResult   // decide: the first execution of each pool scenario
	cells []harness.Cell // sweep: the first op's cells
}

// loop runs untraced ops back to back for the budget, and at least min
// ops. Repeated executions of one scenario, and repeated sweeps, must
// reproduce the first exactly, so failures are listed from the first only.
func (b *bench) loop(budget time.Duration, min int) (*pass, error) {
	j := b.job
	p := &pass{}
	start := time.Now()
	for k := 0; k < min || time.Since(start) < budget; k++ {
		settle()
		t0 := time.Now()
		if j.wl.sweep {
			cells, err := j.sweepOp()
			p.times = append(p.times, ms(time.Since(t0)))
			p.rss = append(p.rss, peakRSSMB())
			b.attempted += len(j.scs)
			if err != nil {
				b.failed += len(j.scs)
				b.faults = append(b.faults, err.Error())
				continue
			}
			failed, faults, violation := cellFaults(cells)
			if p.cells == nil {
				p.cells = cells
				b.faults = append(b.faults, faults...)
			} else if !reflect.DeepEqual(p.cells, cells) {
				b.fail("sweep op %d returned cells that differ from the first sweep's", k)
			}
			b.failed += failed
			if violation {
				b.fail("sweep op %d: a cell violates agreement or validity", k)
			}
			continue
		}
		s := j.scs[k%len(j.scs)]
		r, err, fatal := runScenario(s)
		p.times = append(p.times, ms(time.Since(t0)))
		p.rss = append(p.rss, peakRSSMB())
		b.attempted++
		if fatal {
			b.fail("%v", err)
			return nil, err
		}
		if err != nil || !r.ok {
			b.failed++
		}
		if r.violation {
			b.fail("%s: %s", r.name, r.fault)
		}
		if k < len(j.scs) {
			if err != nil {
				r = execResult{name: scenarioName(s), fault: "construction error: " + err.Error()}
			}
			if r.fault != "" {
				b.faults = append(b.faults, r.name+": "+r.fault)
			}
			p.first = append(p.first, r)
		} else if err == nil && r.facts != p.first[k%len(j.scs)].facts {
			b.fail("%s: a repeated execution differs from the first", r.name)
		}
	}
	b.opCount += len(p.times)
	b.execCount += len(p.times) * j.perOp()
	return p, nil
}

// samples returns the per-scenario figures of the first pass — the decide
// time ratio and broadcasts per node, per execution on a decide workload
// and per cell (medians over its seeds) on the sweep — and the pass's
// failed and attempted executions. They depend only on the workload seed.
func (b *bench) samples(p *pass) (df, bpn []float64, failed, attempted int) {
	if b.wl.sweep {
		failed, _, _ = cellFaults(p.cells)
		for _, c := range p.cells {
			attempted += c.Runs
			bpn = append(bpn, c.Broadcasts.Median/float64(c.N))
			if c.Undecided < c.Runs {
				df = append(df, dfack(int64(c.SurvivorDecide.Median), c.Diameter, c.EffectiveFack))
			}
		}
		return df, bpn, failed, attempted
	}
	for _, r := range p.first {
		attempted++
		if !r.ok {
			failed++
		}
		if r.survivor >= 0 {
			df = append(df, dfack(r.survivor, r.d, r.fack))
		}
		if r.n > 0 {
			bpn = append(bpn, float64(r.facts.Broadcasts)/float64(r.n))
		}
	}
	return df, bpn, failed, attempted
}

// endToEnd is the untraced pass: set-up five times (the median is
// setup_s), then the measured closed loop.
func (b *bench) endToEnd() error {
	var setups []float64
	for i := 0; i < 5; i++ {
		d, err := b.setup()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	p, err := b.loop(b.budget, max(tailMinOps, b.job.passOps()))
	if err != nil {
		return err
	}
	if p.cells == nil && b.wl.sweep {
		return errors.New("no sweep op succeeded")
	}
	df, bpn, failed, attempted := b.samples(p)
	n := len(p.times)
	dfTail := tailPct(len(df))
	b.add("setup_s", "s", median(setups), len(setups), "p50")
	b.add("op_ms.p50", "ms", stats.Percentile(p.times, 50), n, "p50")
	b.add("op_ms.tail", "ms", stats.Percentile(p.times, tailOps), n, pctName(tailOps))
	b.add("scenarios_per_s", "1/s", float64(n*b.job.perOp())/(sum(p.times)/1e3), n*b.job.perOp(), "mean")
	b.add("decide_dfack.p50", "ratio", stats.Percentile(df, 50), len(df), "p50")
	b.add("decide_dfack.tail", "ratio", stats.Percentile(df, dfTail), len(df), pctName(dfTail))
	b.add("bcast_per_node.p50", "count", stats.Percentile(bpn, 50), len(bpn), "p50")
	b.add("ok_share", "share", 1-float64(failed)/float64(attempted), attempted, "1-fail_share")
	b.note(fmt.Sprintf("fail_share %g: %d of %d executions of the first pass failed", float64(failed)/float64(attempted), failed, attempted))
	b.add("peak_rss_mb", "MB", sum(p.rss)/float64(len(p.rss)), len(p.rss), "mean")
	return nil
}

// traced is the per-layer pass. It first runs untraced ops (the runtime
// figures and the untraced baseline), then replays the same scenarios
// through the traced entry points and checks every traced execution
// against its untraced twin.
func (b *bench) traced() error {
	if _, err := b.setup(); err != nil {
		return err
	}
	j := b.job
	span := calibrate()
	share := b.budget / 2
	if j.wl.sweep {
		share = b.budget / 3
	}
	rt0 := readRuntime()
	p, err := b.loop(share, 1)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	realOps := float64(len(p.times))

	// The untraced baseline. On a decide workload it is the loop just run:
	// Scenario.Run is the same sequence of calls the replay makes. The
	// sweep's ops run cells in parallel, so its baseline is the serial
	// replay without wrappers, which must also match the sweep cell by cell.
	base, want := p.times, p.first
	if j.wl.sweep {
		base = nil
		start := time.Now()
		for k := 0; k < 1 || time.Since(start) < share; k++ {
			settle()
			t0 := time.Now()
			rs, err := replay(j.scs, true, nil)
			base = append(base, ms(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("untraced replay: %w", err)
			}
			if want == nil {
				want = rs
				if p.cells != nil {
					if err := j.matchCells(p.cells, rs); err != nil {
						b.fail("%v", err)
					}
				}
			}
		}
	}

	// Traced ops cycle over the scenarios that have an untraced twin.
	t := newTracer()
	var times []float64
	rest := b.budget - share
	if j.wl.sweep {
		rest = share
	}
	start := time.Now()
	for k := 0; k < 1 || time.Since(start) < rest; k++ {
		scs, twins := j.scs, want
		if !j.wl.sweep {
			i := k % len(want)
			scs, twins = j.scs[i:i+1], want[i:i+1]
		}
		settle()
		rs, err := replay(scs, j.wl.sweep, t)
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		last := t.ops[len(t.ops)-1].Layers
		times = append(times, ms(time.Duration(last[lOp].TotalNS-last[lShadow].TotalNS)))
		b.attempted += len(rs)
		for i, r := range rs {
			if !r.ok {
				b.failed++
			}
			if r.facts != twins[i].facts {
				b.fail("non-perturbation: traced %s differs from its untraced run: %+v vs %+v", r.name, r.facts, twins[i].facts)
			}
		}
	}
	b.opCount += len(times)
	b.execCount += len(times) * j.perOp()
	b.layerMetrics(t, span, times, base, rt0, rt1, realOps)
	if err := writeTrace(t, b.wl.name, b.seed, span); err != nil {
		return err
	}
	return nil
}

// layerMetrics turns the tracer's per-op aggregates into the per-layer
// metrics: means per traced op, so that the layers' self times, the span
// cost and the unattributed rest add up to trace.op_ms.
func (b *bench) layerMetrics(t *tracer, span float64, times, base []float64, rt0, rt1 runtimeSnap, realOps float64) {
	sum := make([]layerAgg, numLayers)
	var cnt opCounts
	for _, o := range t.ops {
		for l, a := range o.Layers {
			sum[l].Count += a.Count
			sum[l].ChildSpans += a.ChildSpans
			sum[l].TotalNS += a.TotalNS
			sum[l].SelfNS += a.SelfNS
		}
		c := o.Counts
		cnt.Events += c.Events
		cnt.Deliveries += c.Deliveries
		cnt.Broadcasts += c.Broadcasts
		cnt.PaxosBroadcasts += c.PaxosBroadcasts
		cnt.Retransmits += c.Retransmits
		cnt.Proposals += c.Proposals
		cnt.Nacks += c.Nacks
		cnt.Suspicions += c.Suspicions
		cnt.QueueDepthMax = max(cnt.QueueDepthMax, c.QueueDepthMax)
	}
	ops := float64(len(t.ops))
	half := span / 2
	// self returns the layer's self time per op in ns, less the span cost
	// charged to it: half of each of its own spans and half of each child.
	self := func(l layer) float64 {
		a := sum[l]
		return (float64(a.SelfNS) - half*float64(a.Count+a.ChildSpans)) / ops
	}
	// The shadow builds' own share lies outside the reported op time.
	clock := -half * float64(sum[lShadow].Count) / ops
	for _, a := range sum {
		clock += half * float64(a.Count+a.ChildSpans) / ops
	}
	var algoSelf, algoCtor float64
	var handlerCalls int64
	type algoRow struct {
		name            string
		self, ctor, per float64
		calls           int64
	}
	var rows []algoRow
	for i := range algoNames {
		h, c := handlerLayer(i), ctorLayer(i)
		algoSelf += self(h)
		algoCtor += self(c)
		handlerCalls += sum[h].Count
		if sum[h].Count > 0 {
			rows = append(rows, algoRow{algoNames[i], self(h), self(c), self(h) * ops / float64(sum[h].Count), sum[h].Count})
		}
	}
	build := self(lShadow)
	opNS := float64(sum[lOp].TotalNS-sum[lShadow].TotalNS) / ops
	attributed := self(lConfig) + self(lReset) + self(lRun) + self(lCheck) + self(lDiameter) +
		self(lBroadcast) + self(lPlan) + algoSelf + algoCtor + clock
	unattributed := opNS - attributed

	b.add("graph.build_ms", "ms", build/1e6, len(t.ops), "mean")
	b.add("graph.diameter_ms", "ms", self(lDiameter)/1e6, len(t.ops), "mean")
	b.add("harness.config_ms", "ms", (self(lConfig)-build)/1e6, len(t.ops), "mean")
	b.add("sim.reset_ms", "ms", self(lReset)/1e6, len(t.ops), "mean")
	b.add("sim.loop_self_ms", "ms", self(lRun)/1e6, len(t.ops), "mean")
	b.add("sim.broadcast_self_ms", "ms", self(lBroadcast)/1e6, len(t.ops), "mean")
	b.add("sim.events", "count", float64(cnt.Events)/ops, len(t.ops), "mean")
	b.add("sim.deliveries", "count", float64(cnt.Deliveries)/ops, len(t.ops), "mean")
	b.add("sim.ns_per_event", "ns", ratio(self(lRun)*ops, float64(cnt.Events)), len(t.ops), "mean")
	b.add("sim.queue_depth_max", "count", float64(cnt.QueueDepthMax), len(t.ops), "max")
	b.add("sched.plan_ms", "ms", self(lPlan)/1e6, len(t.ops), "mean")
	b.add("sched.plans", "count", float64(sum[lPlan].Count)/ops, len(t.ops), "mean")
	b.add("sched.ns_per_plan", "ns", ratio(self(lPlan)*ops, float64(sum[lPlan].Count)), len(t.ops), "mean")
	b.add("algo.self_ms", "ms", algoSelf/1e6, len(t.ops), "mean")
	b.add("algo.handler_calls", "count", float64(handlerCalls)/ops, len(t.ops), "mean")
	b.add("algo.ns_per_handler", "ns", ratio(algoSelf*ops, float64(handlerCalls)), len(t.ops), "mean")
	b.add("algo.ctor_ms", "ms", algoCtor/1e6, len(t.ops), "mean")
	b.add("algo.retransmit_share", "share", ratio(float64(cnt.Retransmits), float64(cnt.PaxosBroadcasts)), len(t.ops), "sum")
	b.add("algo.proposals", "count", float64(cnt.Proposals)/ops, len(t.ops), "mean")
	b.add("algo.nacks", "count", float64(cnt.Nacks)/ops, len(t.ops), "mean")
	b.add("omega.suspicions", "count", float64(cnt.Suspicions)/ops, len(t.ops), "mean")
	b.add("consensus.check_ms", "ms", self(lCheck)/1e6, len(t.ops), "mean")
	b.add("runtime.allocs_per_op", "count", float64(rt1.mallocs-rt0.mallocs)/realOps, int(realOps), "mean")
	b.add("runtime.alloc_mb_per_op", "MB", float64(rt1.alloc-rt0.alloc)/realOps/(1<<20), int(realOps), "mean")
	b.add("runtime.gc_cpu_frac", "share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), int(realOps), "mean")
	b.add("trace.op_ms", "ms", opNS/1e6, len(t.ops), "mean")
	b.add("trace.span_ns", "ns", span, 7, "p50")
	b.add("trace.clock_ms", "ms", clock/1e6, len(t.ops), "mean")
	b.add("trace.unattributed_share", "share", unattributed/opNS, len(t.ops), "mean")
	b.add("trace.overhead", "ratio", median(times)/median(base)-1, len(times), "p50/p50")
	for _, r := range rows {
		b.note(fmt.Sprintf("%s.self_ms %.6g  %s.handler_calls %d  %s.ns_per_handler %.4g  %s.ctor_ms %.6g",
			r.name, r.self/1e6, r.name, r.calls/int64(len(t.ops)), r.name, r.per, r.name, r.ctor/1e6))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (b *bench) add(name, unit string, v float64, samples int, stat string) {
	b.metrics = append(b.metrics, metric{name: name, unit: unit, value: v, samples: samples, stat: stat})
}

func (b *bench) note(s string) { b.notes = append(b.notes, s) }

// report prints the readable report, then the JSON result as the last
// line. Metrics print in sorted order.
func (b *bench) report(w *os.File, traced bool) {
	out := bufio.NewWriter(w)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g traced=%v\n", b.wl.name, b.seed, b.budget.Seconds(), traced)
	fmt.Fprintf(out, "# machine: %s GOMAXPROCS=%d nproc=%d cpu=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Fprintf(out, "# ops=%d executions=%d attempted=%d failed=%d sweep_workers=%d\n", b.opCount, b.execCount, b.attempted, b.failed, b.width)
	for _, f := range b.faults {
		fmt.Fprintf(out, "# failed: %s\n", f)
	}
	for _, n := range b.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	sort.Slice(b.metrics, func(i, k int) bool { return b.metrics[i].name < b.metrics[k].name })
	fmt.Fprintf(out, "# %-26s %16s %-6s %8s %s\n", "metric", "value", "unit", "samples", "stat")
	var js strings.Builder
	for i, m := range b.metrics {
		fmt.Fprintf(out, "# %-26s %16.6g %-6s %8d %s\n", m.name, m.value, m.unit, m.samples, m.stat)
		if i > 0 {
			js.WriteByte(',')
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			b.fail("metric %s is not a number", m.name)
		}
		fmt.Fprintf(&js, "%q:{\"value\":%s,\"unit\":%q}", m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
	}
	fmt.Fprintf(out, "{\"correct\":%t,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n", b.correct, b.attempted, b.failed, js.String())
}

// writeTrace writes the recorded spans and the per-op layer aggregates as
// JSON lines.
func writeTrace(t *tracer, workload string, seed int64, span float64) (err error) {
	dir := filepath.Join(".bench_build", "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	names := make([]string, numLayers)
	for l := range names {
		names[l] = layerName(layer(l))
	}
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "span_ns": span, "layers": names}); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, o := range t.ops {
		if err := enc.Encode(o); err != nil {
			return err
		}
	}
	return w.Flush()
}

type runtimeSnap struct {
	mallocs, alloc  uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return runtimeSnap{mallocs: ms.Mallocs, alloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// settle runs before every timed op, outside its time: it collects the
// previous op's garbage and returns the free heap to the operating system,
// so that each op starts from the same heap state, as a fresh process
// would, and restarts the kernel's peak resident set (VmHWM) count, so
// that the next read is the peak of one op. Where the kernel refuses the
// restart, reads give the peak of the whole process.
func settle() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// peakRSSMB is the process's peak resident set (VmHWM) since the last
// resetPeakRSS, in MB.
func peakRSSMB() float64 {
	return procField("/proc/self/status", "VmHWM:") / 1024
}

func procField(path, key string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// tailPct is the highest of the usual percentiles with at least ten of n
// values beyond its nearest rank (p50 when n is too small for any).
func tailPct(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if float64(n)-math.Ceil(p/100*float64(n)) >= 10 {
			best = p
		}
	}
	return best
}

// op_ms.tail is a fixed percentile, so that a faster program, which fits
// more ops into a run, is not judged on a higher one. An end-to-end run
// measures at least tailMinOps ops: the fewest with ten beyond p75.
const (
	tailOps    = 75
	tailMinOps = 40
)

func pctName(p float64) string { return "p" + strconv.FormatFloat(p, 'g', -1, 64) }
