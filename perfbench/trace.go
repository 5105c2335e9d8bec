package main

import (
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/sim"
)

// A layer names one span kind. The first group is recorded span by span;
// broadcast, plan and the per-algorithm handler and constructor spans run
// into the millions per op, so they are folded into per-op aggregates.
type layer int

const (
	lOp layer = iota
	lConfig
	lReset
	lRun
	lCheck
	lDiameter
	// lShadow is a second build of the execution's graph, right after the
	// config span that built it (see shadowBuild). Its time is excluded
	// from the op's.
	lShadow
	lBroadcast
	lPlan
	// lAlgo+2*i is algorithm i's handler layer (Start, OnReceive, OnAck),
	// lAlgo+2*i+1 its constructor layer (the amac.Factory call).
	lAlgo
)

var (
	algoNames = harness.Algorithms()
	numLayers = int(lAlgo) + 2*len(algoNames)
	// fixedNames holds the names of the layers below lAlgo.
	fixedNames = [...]string{"op", "config", "reset", "run", "check", "diameter", "graph.build", "broadcast", "plan"}
)

func algoIndex(name string) int {
	for i, a := range algoNames {
		if a == name {
			return i
		}
	}
	return -1
}

func handlerLayer(algo int) layer { return lAlgo + layer(2*algo) }
func ctorLayer(algo int) layer    { return lAlgo + layer(2*algo+1) }

func layerName(l layer) string {
	if l < lAlgo {
		return fixedNames[l]
	}
	i := int(l-lAlgo) / 2
	if (l-lAlgo)%2 == 0 {
		return algoNames[i] + ".handler"
	}
	return algoNames[i] + ".ctor"
}

// layerAgg folds the spans of one layer within one op. childSpans counts
// the spans whose direct parent belongs to this layer; the clock
// correction charges half a span's cost to the span and half to its parent.
type layerAgg struct {
	Count      int64 `json:"count"`
	ChildSpans int64 `json:"child_spans"`
	TotalNS    int64 `json:"total_ns"`
	SelfNS     int64 `json:"self_ns"`
}

// opCounts are the execution counts of one traced op, read from the
// sim.Result and the metrics.Registry of each execution.
type opCounts struct {
	Execs           int64 `json:"execs"`
	Events          int64 `json:"events"`
	Deliveries      int64 `json:"deliveries"`
	Broadcasts      int64 `json:"broadcasts"`
	PaxosBroadcasts int64 `json:"paxos_broadcasts"`
	Retransmits     int64 `json:"retransmits"`
	Proposals       int64 `json:"proposals"`
	Nacks           int64 `json:"nacks"`
	Suspicions      int64 `json:"suspicions"`
	QueueDepthMax   int64 `json:"queue_depth_max"`
}

// opAgg is everything the tracer keeps about one op once it has ended.
type opAgg struct {
	Op     int        `json:"op"`
	Layers []layerAgg `json:"layers"`
	Counts opCounts   `json:"counts"`
}

// spanRec is one recorded (low-frequency) span. Times are nanoseconds
// since the tracer was created; Parent is -1 for an op span.
type spanRec struct {
	Op     int    `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type frame struct {
	l      layer
	id     int32
	start  time.Duration
	child  time.Duration
	childN int64
}

// tracer records the span tree of traced ops from outside the program:
// the benchmark brackets its own calls into harness, sim and consensus,
// and the wrappers below bracket the calls the engine makes into the
// scheduler and the algorithms, and the algorithms make into the engine.
// All methods are no-ops on a nil tracer, so the untraced replay runs the
// same code without wrappers.
type tracer struct {
	base  time.Time
	stack []frame
	op    int
	cur   []layerAgg
	cnt   opCounts
	ops   []opAgg
	spans []spanRec

	reg                          *metrics.Registry
	wpRetx, flRetx               metrics.Counter
	wpProp, flProp, wpNack, flNk metrics.Counter
	suspicions                   metrics.Counter
	queueDepth                   metrics.Gauge
}

func newTracer() *tracer {
	reg := metrics.New()
	return &tracer{
		base:       time.Now(),
		cur:        make([]layerAgg, numLayers),
		reg:        reg,
		wpRetx:     reg.Counter("wpaxos_retransmits"),
		flRetx:     reg.Counter("flood_retransmits"),
		wpProp:     reg.Counter("wpaxos_proposals"),
		flProp:     reg.Counter("flood_proposals"),
		wpNack:     reg.Counter("wpaxos_nacks"),
		flNk:       reg.Counter("flood_nacks"),
		suspicions: reg.Counter("det_suspicions"),
		queueDepth: reg.Gauge("sim_queue_depth"),
	}
}

func (t *tracer) begin(l layer) {
	if t == nil {
		return
	}
	id := int32(-1)
	if l < lBroadcast {
		id = int32(len(t.spans))
		t.spans = append(t.spans, spanRec{})
	}
	t.stack = append(t.stack, frame{l: l, id: id, start: time.Since(t.base)})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.base)
	k := len(t.stack) - 1
	f := t.stack[k]
	t.stack = t.stack[:k]
	d := now - f.start
	a := &t.cur[f.l]
	a.Count++
	a.ChildSpans += f.childN
	a.TotalNS += int64(d)
	a.SelfNS += int64(d - f.child)
	parent := int32(-1)
	if k > 0 {
		p := &t.stack[k-1]
		p.child += d
		p.childN++
		parent = p.id
	}
	if f.id >= 0 {
		t.spans[f.id] = spanRec{Op: t.op, ID: f.id, Parent: parent, Name: layerName(f.l),
			Start: int64(f.start), End: int64(now)}
	}
}

// shadowBuild builds the scenario's graph once more, in its own span.
// Scenario.Config builds its graph internally, where no wrapper reaches,
// so the config span's graph-build share is estimated by this identical,
// deterministic build of the same topology and seed, made right after it.
func (t *tracer) shadowBuild(s harness.Scenario) error {
	if t == nil {
		return nil
	}
	t.begin(lShadow)
	_, err := s.Topo.Build(s.Seed)
	t.end()
	return err
}

// count folds one execution's counts into the current op. It must run
// before the engine's next Reset zeroes the registry.
func (t *tracer) count(algo string, res *sim.Result) {
	if t == nil {
		return
	}
	c := &t.cnt
	c.Execs++
	c.Events += int64(res.Events)
	c.Deliveries += int64(res.Deliveries)
	c.Broadcasts += int64(res.Broadcasts)
	if algo == "wpaxos" || algo == "floodpaxos" {
		c.PaxosBroadcasts += int64(res.Broadcasts)
	}
	c.Retransmits += t.wpRetx.Value() + t.flRetx.Value()
	c.Proposals += t.wpProp.Value() + t.flProp.Value()
	c.Nacks += t.wpNack.Value() + t.flNk.Value()
	c.Suspicions += t.suspicions.Value()
	c.QueueDepthMax = max(c.QueueDepthMax, t.queueDepth.High())
}

// finishOp files the current op's aggregates and starts the next op.
func (t *tracer) finishOp() {
	if t == nil {
		return
	}
	t.ops = append(t.ops, opAgg{Op: t.op, Layers: t.cur, Counts: t.cnt})
	t.op++
	t.cur = make([]layerAgg, numLayers)
	t.cnt = opCounts{}
}

// instrument wraps the configuration's scheduler and factory and installs
// the tracer's registry.
func (t *tracer) instrument(cfg *sim.Config, algo int) {
	if t == nil {
		return
	}
	cfg.Metrics = t.reg
	cfg.Scheduler = &tracedSched{inner: cfg.Scheduler, t: t}
	inner := cfg.Factory
	h, c := handlerLayer(algo), ctorLayer(algo)
	cfg.Factory = func(nc amac.NodeConfig) amac.Algorithm {
		t.begin(c)
		a := inner(nc)
		t.end()
		return &tracedAlg{inner: a, t: t, l: h}
	}
}

// calibrate returns the wall-clock cost in ns of one empty span, begin to
// end, as the median of several timed batches on a scratch tracer.
func calibrate() float64 {
	const batch = 200_000
	t := newTracer()
	var per []float64
	for r := 0; r < 7; r++ {
		t.begin(lBroadcast)
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			t.begin(lPlan)
			t.end()
		}
		per = append(per, float64(time.Since(t0))/batch)
		t.end()
	}
	return median(per)
}

type tracedSched struct {
	inner sim.Scheduler
	t     *tracer
}

func (s *tracedSched) Fack() int64 { return s.inner.Fack() }

func (s *tracedSched) Plan(b sim.Broadcast, p *sim.Plan) {
	s.t.begin(lPlan)
	s.inner.Plan(b, p)
	s.t.end()
}

// tracedAlg times the handlers of one node and hands the inner algorithm
// a traced amac.API, the way consensus.AnonymityAudit wraps it.
type tracedAlg struct {
	inner amac.Algorithm
	t     *tracer
	l     layer
	api   tracedAPI
}

func (a *tracedAlg) Start(api amac.API) {
	a.api = tracedAPI{API: api, t: a.t}
	a.t.begin(a.l)
	a.inner.Start(&a.api)
	a.t.end()
}

func (a *tracedAlg) OnReceive(m amac.Message) {
	a.t.begin(a.l)
	a.inner.OnReceive(m)
	a.t.end()
}

func (a *tracedAlg) OnAck(m amac.Message) {
	a.t.begin(a.l)
	a.inner.OnAck(m)
	a.t.end()
}

type tracedAPI struct {
	amac.API
	t *tracer
}

func (a *tracedAPI) Broadcast(m amac.Message) bool {
	a.t.begin(lBroadcast)
	ok := a.API.Broadcast(m)
	a.t.end()
	return ok
}
