package sim

import (
	"fmt"
	"sort"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/metrics"
)

// Engine executes configurations on a reusable arena: Reset re-arms the
// same engine for a new configuration, keeping the node-state arrays, the
// Result slices, the delivery-plan buffer, the event-queue backing array
// and the event slab from the previous run. A sweep worker that runs
// the seeds of one cell back to back on one Engine pays the engine's
// allocation cost once per cell instead of once per seed.
//
// Node runtime state is stored structure-of-arrays: one flat slice per
// field (algorithm, id, in-flight broadcast, crash time) instead of one
// []struct with pointer-y interiors. Reset then re-arms a field with one
// clear()/copy pass, the per-event cache footprint is a few dense arrays
// instead of strided struct loads, and decision state lives directly in
// the Result slices (Decided/Decision/DecideTime/Crashed) rather than
// being mirrored per node. The per-node amac.API values are pre-boxed
// into the apis slice once per Reset, so starting n nodes performs no
// interface-conversion allocation — at n=10^4 that was the last O(n)
// allocation on the run path.
//
// The Result returned by Run is owned by the engine and valid only until
// the next Reset; callers that retain results across runs must copy them.
// The one-shot Run function keeps its allocate-per-call semantics.
type Engine struct {
	cfg Config

	// Structure-of-arrays node state, all indexed by node.
	algs     []amac.Algorithm
	apis     []api
	ids      []amac.NodeID
	inflight []bool // a broadcast is awaiting its ack
	inMsg    []amac.Message
	bseq     []int // next broadcast sequence number
	crashAt  []int64

	q      eventQueue
	now    int64
	res    *Result
	maxEvt int
	// plan is the reusable delivery-plan buffer handed to the scheduler.
	// Invariant between broadcasts: every slot in [0, cap) holds
	// NoDelivery — the push loops restore exactly the slots the scheduler
	// filled as they read them, so a broadcast never pays a pre-zero pass
	// over slots nobody wrote (the queue's slab plays the same role for
	// events; together they keep the hot path allocation-free).
	plan Plan

	// O(1) StopWhenDecided bookkeeping: undecided counts nodes that have
	// neither decided nor passed their crash cutoff. pendCrash holds the
	// scheduled cutoffs sorted by time; pendIdx is the clock cursor into
	// it — as now advances past a cutoff, its node stops owing a decision.
	undecided int
	pendCrash []Crash
	pendIdx   int
	// checkStops, set by tests, asserts the counter against the O(n)
	// reference scan at every stop evaluation.
	checkStops bool

	// Hot-path metric handles, re-registered at every Reset. With
	// Config.Metrics nil these are zero handles and every mutation is one
	// predictable nil-check branch — the zero-cost-when-off contract.
	mEvents    metrics.Counter // processed queue events
	mDeliver   metrics.Counter // deliveries handed to OnReceive
	mDrops     metrics.Counter // deliveries/acks lost to crash cutoffs
	mDiscards  metrics.Counter // broadcasts attempted while one in flight
	mQueueHigh metrics.Gauge   // event-queue depth (high-water tracked)
}

// api implements amac.API for one node. Engine.Reset pre-boxes one per
// node in e.apis; the *api pointer converts to the interface without
// allocating.
type api struct {
	e    *Engine
	node int
}

func (a *api) ID() amac.NodeID { return a.e.ids[a.node] }

func (a *api) Now() int64 { return a.e.now }

func (a *api) Broadcast(m amac.Message) bool {
	return a.e.broadcast(a.node, m)
}

func (a *api) Decide(v amac.Value) {
	a.e.decide(a.node, v)
}

var _ amac.API = (*api)(nil)

// NewEngine returns an engine armed with cfg, ready to Run. Like Run, it
// panics on configuration errors (use Config.Validate to check first).
func NewEngine(cfg Config) *Engine {
	e := &Engine{}
	e.Reset(cfg)
	return e
}

// Reset re-arms the engine for a new configuration, reusing every buffer
// the previous run left behind. No state leaks across runs: node states
// (crash flags, decisions, in-flight broadcasts), the Result, the clock
// and the queue are all reinitialized; events still queued from a run
// stopped early (StopWhenDecided, MaxEvents) are drained to the slab's
// free chain with their message references cleared.
// It panics on configuration errors, exactly as Run does.
func (e *Engine) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	// A run stopped by StopWhenDecided or MaxEvents leaves events queued;
	// recycle them so the slab, not the allocator, feeds the next run —
	// then re-arm the calendar ring for the new scheduler's horizon.
	e.q.drain()
	e.q.init(cfg.Scheduler.Fack())
	e.cfg = cfg
	e.now = 0
	n := cfg.Graph.N()
	e.maxEvt = cfg.MaxEvents
	if e.maxEvt == 0 {
		e.maxEvt = DefaultMaxEvents
	}

	if cap(e.algs) >= n {
		// Zero the tails beyond n so a shrink does not pin the prior
		// run's algorithm state through stale alg/message references.
		clear(e.algs[n:cap(e.algs)])
		clear(e.inMsg[n:cap(e.inMsg)])
		e.algs = e.algs[:n]
		e.apis = e.apis[:n]
		e.ids = e.ids[:n]
		e.inflight = e.inflight[:n]
		e.inMsg = e.inMsg[:n]
		e.bseq = e.bseq[:n]
		e.crashAt = e.crashAt[:n]
		clear(e.inflight)
		clear(e.inMsg)
		clear(e.bseq)
	} else {
		e.algs = make([]amac.Algorithm, n)
		e.apis = make([]api, n)
		e.ids = make([]amac.NodeID, n)
		e.inflight = make([]bool, n)
		e.inMsg = make([]amac.Message, n)
		e.bseq = make([]int, n)
		e.crashAt = make([]int64, n)
	}
	for i := range e.crashAt {
		e.crashAt[i] = -1
	}

	if e.res == nil || cap(e.res.Decided) < n {
		e.res = &Result{
			Decided:    make([]bool, n),
			Decision:   make([]amac.Value, n),
			DecideTime: make([]int64, n),
			Crashed:    make([]bool, n),
		}
	} else {
		e.res.Decided = e.res.Decided[:n]
		e.res.Decision = e.res.Decision[:n]
		e.res.DecideTime = e.res.DecideTime[:n]
		e.res.Crashed = e.res.Crashed[:n]
		clear(e.res.Decided)
		clear(e.res.Decision)
		clear(e.res.DecideTime)
		clear(e.res.Crashed)
	}
	*e.res = Result{
		Decided:       e.res.Decided,
		Decision:      e.res.Decision,
		DecideTime:    e.res.DecideTime,
		Crashed:       e.res.Crashed,
		MaxDecideTime: -1,
	}

	// Metrics: zero the registry's values for the new run and (re-)register
	// the engine's slots. Registration dedups by name, so after the first
	// Reset of a reused engine this is a handful of map hits; with a nil
	// registry every call returns a disabled zero handle.
	m := cfg.Metrics
	m.Reset()
	e.mEvents = m.Counter("sim_events")
	e.mDeliver = m.Counter("sim_deliveries")
	e.mDrops = m.Counter("sim_crash_drops")
	e.mDiscards = m.Counter("sim_discards")
	e.mQueueHigh = m.Gauge("sim_queue_depth")

	for i := 0; i < n; i++ {
		id := amac.NodeID(i + 1)
		if cfg.IDs != nil {
			id = cfg.IDs[i]
		}
		alg := cfg.Factory(amac.NodeConfig{ID: id, Input: cfg.Inputs[i], Metrics: cfg.Metrics})
		if alg == nil {
			panic(fmt.Sprintf("sim: factory returned nil algorithm for node %d", i))
		}
		e.ids[i] = id
		e.algs[i] = alg
		e.apis[i] = api{e: e, node: i}
	}
	for _, c := range cfg.Crashes {
		if at := e.crashAt[c.Node]; at < 0 || c.At < at {
			e.crashAt[c.Node] = c.At
		}
	}

	// Arm the O(1) StopWhenDecided counter: every node owes a decision
	// until it decides or the clock passes its crash cutoff. The cutoffs
	// are replayed in time order by a cursor in the run loop.
	e.undecided = n
	e.pendCrash = e.pendCrash[:0]
	for i, at := range e.crashAt {
		if at >= 0 {
			e.pendCrash = append(e.pendCrash, Crash{Node: i, At: at})
		}
	}
	sort.Slice(e.pendCrash, func(i, j int) bool {
		a, b := e.pendCrash[i], e.pendCrash[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Node < b.Node
	})
	e.pendIdx = 0

	// Re-assert the plan-buffer invariant (all slots NoDelivery): the push
	// loops maintain it run to run, but a run aborted mid-broadcast — a
	// recovered scheduler-contract panic — may have left written slots.
	e.plan.Recv = e.plan.Recv[:cap(e.plan.Recv)]
	for i := range e.plan.Recv {
		e.plan.Recv[i] = NoDelivery
	}
}

func (e *Engine) observe(ev Event) {
	if e.cfg.Observer != nil {
		e.cfg.Observer(ev)
	}
}

// crashedBy reports whether node i has halted before time t. A crash at
// time T takes effect strictly after T: events at exactly T still occur
// (the paper lets the scheduler crash a node "in the middle of a
// broadcast", i.e. between events, so the boundary convention is free; we
// pick the one that maximizes what a crash can be observed to permit).
func (e *Engine) crashedBy(i int, t int64) bool {
	at := e.crashAt[i]
	return at >= 0 && at < t
}

// push enqueues one event.
func (e *Engine) push(ev event) {
	e.q.push(ev)
	e.mQueueHigh.Set(int64(e.q.len()))
}

func (e *Engine) broadcast(u int, m amac.Message) bool {
	if m == nil {
		panic(fmt.Sprintf("sim: node %d broadcast a nil message", u))
	}
	if e.inflight[u] {
		e.res.Discards++
		e.mDiscards.Inc()
		e.observe(Event{Kind: EventDiscard, Time: e.now, Node: u, Message: m})
		return false
	}
	if e.cfg.Audit {
		if err := amac.AuditIDCount(m); err != nil {
			e.res.Violations = append(e.res.Violations, Violation{Time: e.now, Node: u, Desc: err.Error()})
		}
	}
	nbrs := e.cfg.Graph.Neighbors(u)
	b := Broadcast{Sender: u, Seq: e.bseq[u], Neighbors: nbrs, Now: e.now, Message: m}
	if e.cfg.Unreliable != nil {
		b.Unreliable = e.cfg.Unreliable.Neighbors(u)
	}

	// Size the reusable plan buffer: one slot per recipient. Every slot
	// already holds NoDelivery — the buffer invariant — so schedulers only
	// have to fill what they deliver and no per-broadcast zeroing pass
	// runs; the push loops below restore the slots they consume.
	need := len(nbrs) + len(b.Unreliable)
	if cap(e.plan.Recv) < need {
		e.plan.Recv = make([]int64, need)
		for i := range e.plan.Recv {
			e.plan.Recv[i] = NoDelivery
		}
	} else {
		e.plan.Recv = e.plan.Recv[:need]
	}
	e.plan.Ack = 0
	e.cfg.Scheduler.Plan(b, &e.plan)
	e.validatePlan(b, &e.plan)

	e.inflight[u] = true
	e.inMsg[u] = m
	e.bseq[u]++
	e.res.Broadcasts++
	e.observe(Event{Kind: EventBroadcast, Time: e.now, Node: u, Message: m})

	// Push deliveries in deterministic (reliable-then-unreliable,
	// index-ordered) order: queue ties break by insertion order. Each
	// consumed slot is restored to NoDelivery in the same pass — exactly
	// the slots the scheduler wrote, re-establishing the buffer invariant
	// without a separate sweep (reliable slots are always written;
	// unreliable slots only when the scheduler delivered).
	for i, v := range nbrs {
		at := e.plan.Recv[i]
		e.plan.Recv[i] = NoDelivery
		e.push(event{time: at, kind: EventDeliver, node: v, peer: u, bseq: b.Seq, msg: m})
	}
	for i, v := range b.Unreliable {
		if at := e.plan.Recv[len(nbrs)+i]; at != NoDelivery {
			e.plan.Recv[len(nbrs)+i] = NoDelivery
			e.push(event{time: at, kind: EventDeliver, node: v, peer: u, bseq: b.Seq, msg: m})
		}
	}
	e.push(event{time: e.plan.Ack, kind: EventAck, node: u, bseq: b.Seq, msg: m})
	return true
}

func (e *Engine) validatePlan(b Broadcast, p *Plan) {
	f := e.cfg.Scheduler.Fack()
	deadline := b.Now + f
	checkTiming := func(v int, t int64) {
		if t <= b.Now {
			panic(fmt.Sprintf("sim: scheduler delivers to %d at t=%d, not after broadcast at t=%d", v, t, b.Now))
		}
		if t > deadline {
			panic(fmt.Sprintf("sim: scheduler delivers to %d at t=%d, past Fack deadline %d", v, t, deadline))
		}
		if t > p.Ack {
			panic(fmt.Sprintf("sim: scheduler delivers to %d at t=%d, after the ack at t=%d", v, t, p.Ack))
		}
	}
	if want := len(b.Neighbors) + len(b.Unreliable); len(p.Recv) != want {
		panic(fmt.Sprintf("sim: scheduler plan has %d slots for %d recipients of sender %d (plans are positional; do not resize Recv)", len(p.Recv), want, b.Sender))
	}
	for i, v := range b.Neighbors {
		t := p.Recv[i]
		if t == NoDelivery {
			panic(fmt.Sprintf("sim: scheduler plan misses reliable neighbor %d of sender %d", v, b.Sender))
		}
		checkTiming(v, t)
	}
	for i, v := range b.Unreliable {
		if t := p.Recv[len(b.Neighbors)+i]; t != NoDelivery {
			checkTiming(v, t)
		}
	}
	if p.Ack > deadline {
		panic(fmt.Sprintf("sim: scheduler acks at t=%d, past Fack deadline %d", p.Ack, deadline))
	}
}

func (e *Engine) decide(u int, v amac.Value) {
	if e.res.Decided[u] {
		if e.res.Decision[u] != v {
			e.res.Violations = append(e.res.Violations, Violation{
				Time: e.now, Node: u,
				Desc: fmt.Sprintf("second decide(%d) after decide(%d): decisions are irrevocable", v, e.res.Decision[u]),
			})
		}
		return
	}
	e.res.Decided[u] = true
	e.res.Decision[u] = v
	e.res.DecideTime[u] = e.now
	// The node stops owing a decision — unless the crash cursor already
	// wrote it off (its cutoff is at or before now), in which case the
	// counter must not move twice.
	if at := e.crashAt[u]; at < 0 || at > e.now {
		e.undecided--
	}
	if e.now > e.res.MaxDecideTime {
		e.res.MaxDecideTime = e.now
	}
	e.observe(Event{Kind: EventDecide, Time: e.now, Node: u, Value: v})
}

// advanceCrashCursor replays scheduled crash cutoffs up to the current
// clock: a node whose cutoff has passed no longer owes a decision. Run
// calls it immediately after advancing now — before any callback can
// decide at the same instant — so decide's "already written off" check
// (crashAt <= now) agrees exactly with what the cursor has consumed.
func (e *Engine) advanceCrashCursor() {
	for e.pendIdx < len(e.pendCrash) && e.pendCrash[e.pendIdx].At <= e.now {
		if !e.res.Decided[e.pendCrash[e.pendIdx].Node] {
			e.undecided--
		}
		e.pendIdx++
	}
}

// allDecidedScan is the O(n) reference for the undecided counter: every
// node has decided or passed its crash cutoff. The run loop consults the
// counter; tests set checkStops to assert the two agree at every stop
// evaluation.
func (e *Engine) allDecidedScan() bool {
	for i, decided := range e.res.Decided {
		if !decided && !(e.crashAt[i] >= 0 && e.crashAt[i] <= e.now) {
			return false
		}
	}
	return true
}

// Run executes the engine's current configuration to completion and returns
// the result. The result is owned by the engine: it stays valid until the
// next Reset. Run must not be called twice without a Reset in between.
func (e *Engine) Run() *Result {
	// Start every node at time 0 in index order. A node scheduled to
	// crash at time 0 never starts.
	e.advanceCrashCursor()
	for i := range e.algs {
		if e.crashAt[i] == 0 {
			e.markCrashed(i)
			continue
		}
		e.algs[i].Start(&e.apis[i])
	}

	for e.q.len() > 0 {
		if e.res.Events >= e.maxEvt {
			e.res.Cutoff = true
			break
		}
		ev := e.q.pop()
		if ev.time < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %d -> %d", e.now, ev.time))
		}
		e.now = ev.time
		e.advanceCrashCursor()
		e.res.Events++
		e.mEvents.Inc()
		e.res.Time = e.now

		switch ev.kind {
		case EventDeliver:
			// A delivery is lost when the receiver has crashed, or
			// when the sender crashed before this delivery time
			// (mid-broadcast crash: the remaining neighbors never
			// receive the message).
			if e.crashedBy(ev.node, ev.time) {
				e.markCrashed(ev.node)
				e.mDrops.Inc()
				continue
			}
			if e.crashedBy(ev.peer, ev.time) {
				e.markCrashed(ev.peer)
				e.mDrops.Inc()
				continue
			}
			e.res.Deliveries++
			e.mDeliver.Inc()
			e.observe(Event{Kind: EventDeliver, Time: e.now, Node: ev.node, Peer: ev.peer, Message: ev.msg})
			e.algs[ev.node].OnReceive(ev.msg)
		case EventAck:
			if e.crashedBy(ev.node, ev.time) {
				e.markCrashed(ev.node)
				e.mDrops.Inc()
				continue
			}
			u := ev.node
			if !e.inflight[u] || e.bseq[u]-1 != ev.bseq {
				panic(fmt.Sprintf("sim: stray ack for node %d bseq %d", u, ev.bseq))
			}
			e.inflight[u] = false
			msg := e.inMsg[u]
			e.inMsg[u] = nil
			e.res.Acks++
			e.observe(Event{Kind: EventAck, Time: e.now, Node: u, Message: msg})
			e.algs[u].OnAck(msg)
		default:
			panic(fmt.Sprintf("sim: unexpected queue event kind %v", ev.kind))
		}

		if e.cfg.StopWhenDecided {
			done := e.undecided == 0
			if e.checkStops && done != e.allDecidedScan() {
				panic(fmt.Sprintf("sim: undecided counter %d disagrees with reference scan at t=%d", e.undecided, e.now))
			}
			if done {
				break
			}
		}
	}

	if e.q.len() == 0 {
		e.res.Quiescent = true
	}
	// Mark scheduled crashes that were never reached by an event so the
	// result reflects the configured fault pattern.
	for i := range e.crashAt {
		if e.crashAt[i] >= 0 {
			e.markCrashed(i)
		}
	}
	return e.res
}

func (e *Engine) markCrashed(i int) {
	if e.res.Crashed[i] {
		return
	}
	e.res.Crashed[i] = true
	e.observe(Event{Kind: EventCrash, Time: e.crashAt[i], Node: i})
}
