// Package gatherall implements the "something simpler" baseline the paper
// mentions in Section 4.2: with unique ids, knowledge of n, and no crash
// failures, consensus can be solved by simply gathering every node's
// (id, value) pair at every node and applying a deterministic rule.
//
// Each message carries a single (id, value) pair — the model's O(1)-ids
// restriction — so every node must flood n distinct pairs. On bottleneck
// topologies (for example graph.StarOfLines) the hub relays Theta(n) pairs
// one broadcast at a time, which is exactly the Theta(n*Fack) behaviour
// wPAXOS's aggregating trees avoid; TestBottleneckLinearInN measures it.
//
// A node decides once it knows all n pairs, choosing the minimum value
// (any deterministic function of the full multiset preserves agreement and
// validity).
package gatherall

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
)

// PairMsg floods one node's (id, value) pair.
type PairMsg struct {
	ID amac.NodeID
	V  amac.Value
}

// IDCount implements amac.Message.
func (PairMsg) IDCount() int { return 1 }

// Node is the per-node state machine.
type Node struct {
	api   amac.API
	n     int
	input amac.Value

	known    map[amac.NodeID]amac.Value
	queue    []PairMsg // pairs not yet broadcast by this node
	queued   map[amac.NodeID]bool
	inflight bool
	decided  bool
	decision amac.Value
}

// New returns a gather-all node that knows the network size n.
func New(input amac.Value, n int) *Node {
	if n < 1 {
		panic(fmt.Sprintf("gatherall: invalid network size %d", n))
	}
	return &Node{
		n:      n,
		input:  input,
		known:  make(map[amac.NodeID]amac.Value, n),
		queued: make(map[amac.NodeID]bool, n),
	}
}

// NewFactory returns a factory for networks of the given size.
func NewFactory(n int) amac.Factory {
	return func(cfg amac.NodeConfig) amac.Algorithm { return New(cfg.Input, n) }
}

// Start implements amac.Algorithm.
func (a *Node) Start(api amac.API) {
	a.api = api
	a.learn(PairMsg{ID: api.ID(), V: a.input})
	a.pump()
}

// OnReceive implements amac.Algorithm.
func (a *Node) OnReceive(m amac.Message) {
	pair, ok := m.(PairMsg)
	if !ok {
		panic(fmt.Sprintf("gatherall: unexpected message type %T", m))
	}
	a.learn(pair)
	a.pump()
}

// OnAck implements amac.Algorithm.
func (a *Node) OnAck(amac.Message) {
	a.inflight = false
	a.pump()
}

// learn records a pair, queues it for forwarding, and decides when the
// census is complete.
func (a *Node) learn(p PairMsg) {
	if _, seen := a.known[p.ID]; seen {
		return
	}
	a.known[p.ID] = p.V
	if !a.queued[p.ID] {
		a.queued[p.ID] = true
		a.queue = append(a.queue, p)
	}
	if len(a.known) == a.n && !a.decided {
		min := p.V
		for _, v := range a.known {
			if v < min {
				min = v
			}
		}
		a.decided = true
		a.decision = min
		a.api.Decide(min)
	}
}

// pump floods one queued pair per broadcast. Forwarding continues after
// deciding so that slower nodes can complete their census.
func (a *Node) pump() {
	if a.inflight || len(a.queue) == 0 {
		return
	}
	m := a.queue[0]
	a.queue = a.queue[1:]
	a.inflight = true
	a.api.Broadcast(m)
}

// Decided implements amac.Decider.
func (a *Node) Decided() (amac.Value, bool) { return a.decision, a.decided }

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Decider   = (*Node)(nil)
	_ amac.Message   = PairMsg{}
)
