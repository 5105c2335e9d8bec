// Package critpath extracts the causal critical path of a simulated
// consensus execution: the chain of deliveries that carried information
// from the first broadcast at time 0 to the first decision, with every
// tick of the decide latency attributed to a protocol phase. It turns the
// paper's O(D·Fack) decision-time bound into a measured, per-phase
// breakdown — how much of the latency was the leader-election flood, the
// proposal round, the ack/response aggregation, the decide flood, and how
// much was spent stalled at a node waiting for retransmissions.
//
// The extraction consumes nothing but the engine's observer events (so it
// works identically on a fresh run, a recorded run, and a schedule
// replay): a Collector classifies every broadcast's message into a Phase
// at observation time — the message is only valid inside the callback;
// pooling algorithms recycle buffers — and notes every delivery and
// decision. Extract then walks backwards from the first decision: the
// segment from a causal delivery to the next action at that node is a
// stall, the segment from the broadcast to the delivery is transit
// attributed to the broadcast's phase, and the walk continues from the
// sender's broadcast time until it reaches time 0. The segments partition
// (0, decide time] exactly, so the phase totals always sum to the first
// decide time — the invariant the golden tests pin.
//
// Everything here is deterministic: ties among deliveries at the same
// time break by observation order (the engine's event order is part of
// the determinism contract), and the report renders in fixed phase order.
package critpath

import (
	"fmt"
	"io"
	"strings"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/floodpaxos"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/sim"
)

// Phase is a protocol phase the critical path attributes time to.
type Phase int

// Phases, in render order. PhaseStall is not a message class: it is the
// time the chain spends parked at a node between the causal delivery and
// the node's next causal action (waiting on its own ack slot or on a
// retransmission of something lost).
const (
	PhaseElection Phase = iota
	PhaseProposal
	PhaseAggregation
	PhaseDecide
	PhaseOther
	PhaseStall
	numPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseElection:
		return "election"
	case PhaseProposal:
		return "proposal"
	case PhaseAggregation:
		return "aggregation"
	case PhaseDecide:
		return "decide"
	case PhaseOther:
		return "other"
	case PhaseStall:
		return "stall"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Classifier maps a broadcast message to the phase its transit time is
// charged to. It runs inside the observer callback, while the message is
// still valid.
type Classifier func(amac.Message) Phase

// ClassifierFor returns the classifier for a harness algorithm name.
// Unknown algorithms get a classifier that charges everything to
// PhaseOther — the breakdown still sums to the decide time, it just
// carries no per-phase detail.
//
// For the two multihop PAXOS variants the priority order matters: a
// combined broadcast multiplexes one message per service queue, and the
// most information-bearing constituent wins — a decide flood outranks
// everything, acceptor responses / gossiped acceptor state (the counting
// machinery) outrank the proposition flood, which outranks the
// always-present election/membership gossip.
func ClassifierFor(algo string) Classifier {
	switch algo {
	case "wpaxos":
		return classifyWPaxos
	case "floodpaxos":
		return classifyFloodPaxos
	default:
		return func(amac.Message) Phase { return PhaseOther }
	}
}

func classifyWPaxos(m amac.Message) Phase {
	c, ok := m.(*wpaxos.Combined)
	if !ok {
		return PhaseOther
	}
	switch {
	case c.Decide != nil:
		return PhaseDecide
	case c.Response != nil || c.State != nil:
		return PhaseAggregation
	case c.Proposer != nil:
		return PhaseProposal
	case c.Leader != nil || c.Change != nil || c.Search != nil:
		return PhaseElection
	default:
		return PhaseOther
	}
}

func classifyFloodPaxos(m amac.Message) Phase {
	c, ok := m.(*floodpaxos.Combined)
	if !ok {
		return PhaseOther
	}
	switch {
	case c.Decide != nil:
		return PhaseDecide
	case c.Response != nil:
		return PhaseAggregation
	case c.Proposer != nil:
		return PhaseProposal
	case c.Leader != nil || c.Change != nil:
		return PhaseElection
	default:
		return PhaseOther
	}
}

// bcast is one observed broadcast: who sent it, when, and its phase.
type bcast struct {
	node  int
	time  int64
	phase Phase
}

// delivery is one observed delivery, pointing at the broadcast it carried.
type delivery struct {
	time int64
	to   int
	b    int // index into Collector.bcasts
}

// Collector observes a run and retains the compact causal record Extract
// needs. Install Observer() as (or chain it into) sim.Config.Observer.
// A Collector records one run; use a fresh one per run.
type Collector struct {
	classify Classifier
	bcasts   []bcast
	// lastB[node] is the index of node's most recent broadcast; the
	// engine delivers (and acks) broadcast k before the sender's
	// broadcast k+1 exists, so attributing deliveries to the sender's
	// latest broadcast is exact.
	lastB      map[int]int
	deliveries []delivery
	decideAt   int64
	decideNode int
	decided    bool
}

// NewCollector returns a collector classifying broadcasts with classify
// (nil means everything is PhaseOther).
func NewCollector(classify Classifier) *Collector {
	if classify == nil {
		classify = func(amac.Message) Phase { return PhaseOther }
	}
	return &Collector{classify: classify, lastB: make(map[int]int), decideNode: -1}
}

// Observer returns the event callback to install on the run.
func (c *Collector) Observer() func(sim.Event) { return c.observe }

func (c *Collector) observe(ev sim.Event) {
	switch ev.Kind {
	case sim.EventBroadcast:
		c.lastB[ev.Node] = len(c.bcasts)
		c.bcasts = append(c.bcasts, bcast{node: ev.Node, time: ev.Time, phase: c.classify(ev.Message)})
	case sim.EventDeliver:
		if b, ok := c.lastB[ev.Peer]; ok {
			c.deliveries = append(c.deliveries, delivery{time: ev.Time, to: ev.Node, b: b})
		}
	case sim.EventDecide:
		// Keep the first decision; ties at the same time break toward the
		// lowest node via the engine's deterministic event order plus an
		// explicit node tie-break for safety.
		if !c.decided || ev.Time < c.decideAt || (ev.Time == c.decideAt && ev.Node < c.decideNode) {
			c.decideAt, c.decideNode, c.decided = ev.Time, ev.Node, true
		}
	}
}

// Span is one phase's share of the critical path.
type Span struct {
	Phase string `json:"phase"`
	Ticks int64  `json:"ticks"`
}

// Hop is one causal link of the chain, rendered sender→receiver.
type Hop struct {
	From    int    `json:"from"`
	To      int    `json:"to"`
	SentAt  int64  `json:"sent_at"`
	RecvAt  int64  `json:"recv_at"`
	Phase   string `json:"phase"`
	StallAt int64  `json:"stall,omitempty"` // ticks parked at To after this hop
}

// Report is the extracted critical path. Spans always sum to DecideTime
// (the partition invariant); Hops lists the chain first-to-last.
type Report struct {
	Decided    bool   `json:"decided"`
	DecideTime int64  `json:"decide_time"`
	DecideNode int    `json:"decide_node"`
	Hops       []Hop  `json:"hops,omitempty"`
	Spans      []Span `json:"spans,omitempty"`
}

// Extract computes the critical path from the collected record. When no
// node decided it returns a Report with Decided=false and no spans.
func (c *Collector) Extract() *Report {
	rep := &Report{Decided: c.decided, DecideTime: c.decideAt, DecideNode: c.decideNode}
	if !c.decided {
		rep.DecideTime = -1
		return rep
	}
	var phases [numPhases]int64
	var hops []Hop

	// Index deliveries per receiver. The engine observes events in
	// nondecreasing time order, so each per-node list is time-sorted and
	// the latest delivery at or before t is found by binary search — the
	// last entry with time <= t, which is also the latest observed among
	// time ties (the engine's processing order).
	byNode := make(map[int][]int, len(c.lastB))
	for i, d := range c.deliveries {
		byNode[d.to] = append(byNode[d.to], i)
	}
	latestAt := func(node int, t int64) int {
		list := byNode[node]
		lo, hi := 0, len(list) // first index with time > t
		for lo < hi {
			mid := (lo + hi) / 2
			if c.deliveries[list[mid]].time <= t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			return -1
		}
		return list[lo-1]
	}

	node, t := c.decideNode, c.decideAt
	for t > 0 {
		best := latestAt(node, t)
		if best < 0 {
			// No incoming information: the node acted on local state since
			// time 0 (its own Start broadcast chain). Charge the remainder
			// as stall — it was waiting on its own MAC layer.
			phases[PhaseStall] += t
			break
		}
		d := c.deliveries[best]
		b := c.bcasts[d.b]
		if stall := t - d.time; stall > 0 {
			phases[PhaseStall] += stall
		}
		phases[b.phase] += d.time - b.time
		hops = append(hops, Hop{
			From: b.node, To: node, SentAt: b.time, RecvAt: d.time,
			Phase: b.phase.String(), StallAt: t - d.time,
		})
		node, t = b.node, b.time
	}
	// Reverse into chronological order.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	rep.Hops = hops
	for p := Phase(0); p < numPhases; p++ {
		if phases[p] != 0 {
			rep.Spans = append(rep.Spans, Span{Phase: p.String(), Ticks: phases[p]})
		}
	}
	return rep
}

// Sum returns the total ticks across spans (equal to DecideTime for a
// decided run; the golden tests assert it).
func (r *Report) Sum() int64 {
	var s int64
	for _, sp := range r.Spans {
		s += sp.Ticks
	}
	return s
}

// WriteText renders the report as aligned plain text.
func (r *Report) WriteText(w io.Writer) error {
	if !r.Decided {
		_, err := fmt.Fprintln(w, "critical path: no decision")
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: first decide t=%d at node %d, %d hops\n",
		r.DecideTime, r.DecideNode, len(r.Hops))
	for _, sp := range r.Spans {
		pct := float64(sp.Ticks) * 100 / float64(r.DecideTime)
		fmt.Fprintf(&b, "  %-12s %6d ticks  %5.1f%%\n", sp.Phase, sp.Ticks, pct)
	}
	for _, h := range r.Hops {
		line := fmt.Sprintf("  %4d -> %-4d sent=%-6d recv=%-6d %-12s", h.From, h.To, h.SentAt, h.RecvAt, h.Phase)
		if h.StallAt > 0 {
			line += fmt.Sprintf(" stall=%d", h.StallAt)
		}
		b.WriteString(strings.TrimRight(line, " "))
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
