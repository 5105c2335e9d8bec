// Package benor implements a randomized binary consensus algorithm in the
// style of Ben-Or (1983), adapted to the abstract MAC layer's acknowledged
// local broadcast, for single-hop networks with up to f < n/2 crash
// failures.
//
// It is this repository's answer to the paper's third future-work
// direction: "consider randomized algorithms, which might ... circumvent
// our crash failure ... lower bounds". Theorem 3.2 shows deterministic
// consensus is impossible with one crash; Ben-Or's coin restores
// termination with probability 1 while keeping agreement and validity
// unconditional. TestCrashToleranceCircumventsThm32 runs it under crash
// schedules of the kind that freeze the two-phase algorithm.
//
// The round structure (for node u with estimate x, round r):
//
//	report phase:  broadcast <report, r, x>; await n-f round-r reports
//	               (own included). If more than n/2 carry the same value
//	               v, the proposal is v, otherwise "no preference".
//	propose phase: broadcast <propose, r, w>; await n-f round-r
//	               proposals. If f+1 or more propose the same value v,
//	               decide v and flood the decision; if at least one
//	               proposes v, adopt x = v; otherwise flip a fair coin
//	               for x. Continue to round r+1.
//
// Standard arguments give: at most one value can be proposed per round
// (majority intersection); a decision in round r forces every node that
// finishes round r to adopt the decided value, so round r+1 decides it
// unanimously; and unanimous inputs decide in round 1 without any coin.
package benor

import (
	"fmt"
	"math/rand"

	"github.com/absmac/absmac/internal/amac"
)

// Report is the first-phase message <report, r, v>.
type Report struct {
	R    int
	From amac.NodeID
	V    amac.Value
}

// IDCount implements amac.Message.
func (Report) IDCount() int { return 1 }

// Proposal is the second-phase message <propose, r, w>, where w is either
// a value (HasV) or "no preference".
type Proposal struct {
	R    int
	From amac.NodeID
	HasV bool
	V    amac.Value
}

// IDCount implements amac.Message.
func (Proposal) IDCount() int { return 1 }

// Decide floods a decision.
type Decide struct {
	V amac.Value
}

// IDCount implements amac.Message.
func (Decide) IDCount() int { return 0 }

// Config carries the algorithm's knowledge assumptions.
type Config struct {
	// N is the network size (known, as in wPAXOS).
	N int
	// F is the crash budget tolerated; requires N >= 2F+1.
	F int
	// Seed derives each node's coin (per-node streams are split by id).
	Seed int64
}

type phase int

const (
	phaseReport phase = iota + 1
	phasePropose
	phaseDone
)

// Node is the per-node state machine.
type Node struct {
	api amac.API
	cfg Config
	rng *rand.Rand

	x     amac.Value
	round int
	phase phase

	// reports[r][id] and proposals[r][id] buffer per-round messages,
	// including from rounds this node has not reached yet.
	reports   map[int]map[amac.NodeID]amac.Value
	proposals map[int]map[amac.NodeID]*amac.Value

	inflight bool
	pending  []amac.Message // broadcasts deferred until in-flight acks

	decided   bool
	decision  amac.Value
	decideQ   bool // a Decide flood is owed
	decideVal amac.Value
}

// New returns a Ben-Or node for the given binary input.
func New(input amac.Value, cfg Config) *Node {
	if input != 0 && input != 1 {
		panic(fmt.Sprintf("benor: input %d is not binary", input))
	}
	if cfg.N < 1 || cfg.F < 0 || cfg.N < 2*cfg.F+1 {
		panic(fmt.Sprintf("benor: invalid configuration n=%d f=%d (need n >= 2f+1)", cfg.N, cfg.F))
	}
	return &Node{
		cfg:       cfg,
		x:         input,
		reports:   make(map[int]map[amac.NodeID]amac.Value),
		proposals: make(map[int]map[amac.NodeID]*amac.Value),
	}
}

// NewFactory returns a factory sharing the configuration.
func NewFactory(cfg Config) amac.Factory {
	return func(nc amac.NodeConfig) amac.Algorithm { return New(nc.Input, cfg) }
}

// Start implements amac.Algorithm.
func (a *Node) Start(api amac.API) {
	a.api = api
	// Affine map distinct from every other seed consumer in the tree
	// (overlay seed*1000003+17, loss coins seed*6700417+257, minorityrand
	// crashes seed*2654435761+97): the previous seed*1000003+ID derivation
	// made node 17's coins walk the overlay builder's exact stream.
	a.rng = rand.New(rand.NewSource(a.cfg.Seed*7368787 + int64(api.ID())*1299721 + 31))
	if a.cfg.N == 1 {
		a.decideNow(a.x)
		return
	}
	a.round = 1
	a.phase = phaseReport
	a.recordReport(Report{R: 1, From: api.ID(), V: a.x})
	a.send(Report{R: 1, From: api.ID(), V: a.x})
}

// OnReceive implements amac.Algorithm.
func (a *Node) OnReceive(m amac.Message) {
	switch msg := m.(type) {
	case Report:
		a.recordReport(msg)
	case Proposal:
		a.recordProposal(msg)
	case Decide:
		if !a.decided {
			a.decideNow(msg.V)
			a.queueDecide(msg.V)
		}
	default:
		panic(fmt.Sprintf("benor: unexpected message type %T", m))
	}
	a.progress()
}

// OnAck implements amac.Algorithm.
func (a *Node) OnAck(amac.Message) {
	a.inflight = false
	if len(a.pending) > 0 {
		m := a.pending[0]
		a.pending = a.pending[1:]
		a.send(m)
		return
	}
	a.progress()
}

// send broadcasts now or defers until the in-flight acks drain. A node can
// advance several phases on buffered messages while one broadcast is still
// in flight, so deferred sends form a queue (bounded by the number of
// phase transitions, i.e. by rounds).
func (a *Node) send(m amac.Message) {
	if a.inflight {
		a.pending = append(a.pending, m)
		return
	}
	a.inflight = true
	a.api.Broadcast(m)
}

func (a *Node) recordReport(m Report) {
	byID, ok := a.reports[m.R]
	if !ok {
		byID = make(map[amac.NodeID]amac.Value)
		a.reports[m.R] = byID
	}
	if _, dup := byID[m.From]; !dup {
		byID[m.From] = m.V
	}
}

func (a *Node) recordProposal(m Proposal) {
	byID, ok := a.proposals[m.R]
	if !ok {
		byID = make(map[amac.NodeID]*amac.Value)
		a.proposals[m.R] = byID
	}
	if _, dup := byID[m.From]; !dup {
		if m.HasV {
			v := m.V
			byID[m.From] = &v
		} else {
			byID[m.From] = nil
		}
	}
}

// progress advances the round machine whenever thresholds are met.
func (a *Node) progress() {
	if a.decided {
		return
	}
	need := a.cfg.N - a.cfg.F
	for {
		switch a.phase {
		case phaseReport:
			byID := a.reports[a.round]
			if len(byID) < need {
				return
			}
			counts := map[amac.Value]int{}
			for _, v := range byID {
				counts[v]++
			}
			prop := Proposal{R: a.round, From: a.api.ID()}
			for v, c := range counts {
				if 2*c > a.cfg.N {
					prop.HasV = true
					prop.V = v
				}
			}
			a.phase = phasePropose
			a.recordProposal(prop)
			a.send(prop)
		case phasePropose:
			byID := a.proposals[a.round]
			if len(byID) < need {
				return
			}
			// At most one value appears among non-nil proposals.
			var val *amac.Value
			count := 0
			for _, pv := range byID {
				if pv != nil {
					val = pv
					count++
				}
			}
			switch {
			case val != nil && count >= a.cfg.F+1:
				a.decideNow(*val)
				a.queueDecide(*val)
				return
			case val != nil:
				a.x = *val
			default:
				a.x = amac.Value(a.rng.Intn(2))
			}
			a.round++
			a.phase = phaseReport
			rep := Report{R: a.round, From: a.api.ID(), V: a.x}
			a.recordReport(rep)
			a.send(rep)
		default:
			return
		}
		// The new phase's threshold may already be satisfied by
		// buffered messages; loop.
	}
}

func (a *Node) decideNow(v amac.Value) {
	if a.decided {
		return
	}
	a.decided = true
	a.decision = v
	a.phase = phaseDone
	a.api.Decide(v)
}

// queueDecide floods the decision: immediately when the channel is free,
// otherwise right after the pending traffic.
func (a *Node) queueDecide(v amac.Value) {
	if a.decideQ {
		return
	}
	a.decideQ = true
	a.decideVal = v
	// Drop any deferred phase messages: once decided, only the decision
	// flood matters.
	a.pending = a.pending[:0]
	a.send(Decide{V: v})
}

// Decided implements amac.Decider.
func (a *Node) Decided() (amac.Value, bool) { return a.decision, a.decided }

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Decider   = (*Node)(nil)
	_ amac.Message   = Report{}
	_ amac.Message   = Proposal{}
	_ amac.Message   = Decide{}
)
