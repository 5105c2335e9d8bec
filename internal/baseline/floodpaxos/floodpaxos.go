// Package floodpaxos implements the strawman the paper argues against in
// Section 4.2: PAXOS logic whose acceptor responses are flooded
// individually instead of aggregated along proposer-rooted trees.
//
// Every acceptor's response to a proposition is a separate message carrying
// that acceptor's id, and every node re-floods every distinct response it
// sees. Messages hold O(1) ids, so a node can forward only one response
// per broadcast: near bottlenecks the backlog is Theta(n) messages and the
// proposer needs Theta(n*Fack) time to count a majority — versus wPAXOS's
// O(D*Fack) aggregation. TestSlowerThanWPaxosOnBottleneck measures the
// contrast.
//
// Only that response path is this package's own. Everything else is the
// PAXOS core wPAXOS runs too, from internal/core/wpaxos: the Ω detector
// (wpaxos.Detector), the acceptor (wpaxos.Acceptor), proposer numbering
// and its two-numbers budget (wpaxos.Proposer), the change notification
// (wpaxos.ChangeService), the sticky proposition slot (wpaxos.PropQueue),
// the chosen-value watch (wpaxos.ChosenWatch), and the leader, change,
// proposer and decide messages. Like wPAXOS it assumes unique ids and
// knowledge of n. Outbound queues are retransmit-until-superseded: the
// newest change, the highest-numbered proposition, and every pending
// response stay queued and are re-broadcast (responses round-robin) until
// newer state supersedes them, so a message lost to a lossy overlay edge
// is re-offered forever rather than gone. Receivers deduplicate, keeping
// the retransmissions idempotent. Any node that observes a majority of
// acceptors accepting the same proposal decides — termination does not
// require the proposer to survive its own round.
package floodpaxos

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/metrics"
)

// ResponseMsg is one acceptor's (un-aggregated) response, flooded through
// the whole network until it reaches the proposer.
type ResponseMsg struct {
	Prop      wpaxos.Proposition
	Acceptor  amac.NodeID
	Positive  bool
	Prev      *wpaxos.Proposal
	Committed wpaxos.ProposalNum
}

// Combined multiplexes one message per queue into a single broadcast. The
// sender fills the unexported inline slots and points the exported fields
// at them, so assembling a broadcast allocates nothing beyond the Combined
// itself — and nothing at all once a pooling node (see NewFactory) has
// recycled its first message.
type Combined struct {
	Leader   *wpaxos.LeaderMsg
	Change   *wpaxos.ChangeMsg
	Proposer *wpaxos.ProposerMsg
	Response *ResponseMsg
	Decide   *wpaxos.DecideMsg

	// buf backs the pointer fields above when the message is assembled by
	// pump. Receivers must treat a delivered Combined as immutable and
	// copy what they keep (they do), because pooling senders reuse the
	// whole object — buf included — after the ack.
	buf struct {
		leader   wpaxos.LeaderMsg
		change   wpaxos.ChangeMsg
		proposer wpaxos.ProposerMsg
		response ResponseMsg
		decide   wpaxos.DecideMsg
	}
}

// IDCount implements amac.Message.
func (m *Combined) IDCount() int {
	c := 0
	if m.Leader != nil {
		c++
	}
	if m.Change != nil {
		c++
	}
	if m.Proposer != nil {
		c++
	}
	if m.Response != nil {
		c += 2
		if m.Response.Prev != nil {
			c++
		}
		if !m.Response.Committed.IsZero() {
			c++
		}
	}
	return c
}

// respKey dedups response floods.
type respKey struct {
	prop     wpaxos.Proposition
	acceptor amac.NodeID
}

// Node is the per-node state machine. The outbound queues (change,
// propQ, decideQ) are value slots; respQ is a sticky cycle — entries
// leave only when a newer proposition from the same proposer supersedes
// them — so queue traffic allocates only when respQ has to grow.
type Node struct {
	api   amac.API
	id    amac.NodeID
	n     int
	input amac.Value

	det    *wpaxos.Detector
	change wpaxos.ChangeService
	prop   wpaxos.Proposer
	acc    wpaxos.Acceptor
	propQ  wpaxos.PropQueue
	chosen wpaxos.ChosenWatch

	seenProps map[wpaxos.Proposition]bool
	// maxNumBy is the largest proposal number seen per proposer; pending
	// responses are pruned per proposer, so one proposer's newer round
	// never discards another proposer's countable responses.
	maxNumBy map[amac.NodeID]wpaxos.ProposalNum

	respQ    []ResponseMsg
	respCur  int
	seenResp map[respKey]bool

	// acks/nacks are the distinct acceptors answering the current
	// proposition positively/negatively.
	acks  map[amac.NodeID]bool
	nacks map[amac.NodeID]bool

	hasDecideQ bool
	decideQ    wpaxos.DecideMsg
	inflight   bool
	decided    bool
	decision   amac.Value

	// reuse recycles the broadcast buffer into spare after each ack (see
	// NewFactory for the substrate guarantee this relies on). A node has
	// at most one broadcast in flight, so one spare suffices.
	reuse bool
	spare *Combined

	// mreg is the substrate's metrics registry (nil when metrics are off);
	// the handles below are zero (disabled) then.
	mreg         *metrics.Registry
	mProposals   metrics.Counter
	mRetries     metrics.Counter
	mNacks       metrics.Counter
	mRetransmits metrics.Counter
}

// New returns a flood-paxos node knowing the network size n. Nodes built
// this way allocate a fresh message per broadcast and are safe on any
// substrate; NewFactory enables buffer reuse.
func New(input amac.Value, n int) *Node {
	if n < 1 {
		panic(fmt.Sprintf("floodpaxos: invalid network size %d", n))
	}
	if input != 0 && input != 1 {
		panic(fmt.Sprintf("floodpaxos: input %d is not binary", input))
	}
	return &Node{
		n:      n,
		input:  input,
		chosen: wpaxos.NewChosenWatch(n),
		// Sized for the common census: a couple of propositions, each
		// drawing one response per acceptor, deduped network-wide. Sizing
		// up front trades one allocation for the incremental bucket
		// growth that otherwise dominates the flood path.
		seenProps: make(map[wpaxos.Proposition]bool, 8),
		seenResp:  make(map[respKey]bool, 4*n),
		respQ:     make([]ResponseMsg, 0, 2*n),
		maxNumBy:  make(map[amac.NodeID]wpaxos.ProposalNum, 4),
	}
}

// NewFactory returns a factory for networks of the given size. Nodes it
// builds recycle their broadcast buffer after each ack, which makes the
// steady-state broadcast path allocation-free. Reuse relies on every
// receiver being done with a message by the time its sender's OnAck runs.
// The simulator (internal/sim) guarantees that: it orders co-timed
// deliveries before acks and runs handlers serially. netmac does too,
// because it encodes the message when Broadcast is called. The goroutine
// runtime (internal/live) does not — a receiver may still be reading the
// message when the ack lands — so build its nodes with New instead.
func NewFactory(n int) amac.Factory {
	return func(cfg amac.NodeConfig) amac.Algorithm {
		a := New(cfg.Input, n)
		a.reuse = true
		a.instrument(cfg.Metrics)
		return a
	}
}

// instrument registers the node's metric slots against r (nil-safe; all
// nodes share the slots, so values are network totals) and stashes the
// registry so Start can instrument the shared Ω detector.
func (a *Node) instrument(r *metrics.Registry) {
	a.mreg = r
	a.mProposals = r.Counter("flood_proposals")
	a.mRetries = r.Counter("flood_retries")
	a.mNacks = r.Counter("flood_nacks")
	a.mRetransmits = r.Counter("flood_retransmits")
}

// newMsg takes the spare broadcast buffer, or allocates one.
func (a *Node) newMsg() *Combined {
	c := a.spare
	if c == nil {
		return &Combined{}
	}
	a.spare = nil
	return c
}

// Start implements amac.Algorithm.
func (a *Node) Start(api amac.API) {
	a.api = api
	a.id = api.ID()
	a.det = wpaxos.NewDetector(a.id, a.n)
	a.det.Instrument(a.mreg)
	if a.n == 1 {
		a.decide(a.input)
		return
	}
	a.pump()
}

// OnReceive implements amac.Algorithm.
func (a *Node) OnReceive(m amac.Message) {
	c, ok := m.(*Combined)
	if !ok {
		panic(fmt.Sprintf("floodpaxos: unexpected message type %T", m))
	}
	if c.Leader != nil {
		prev := a.det.Omega()
		if a.det.Learn(c.Leader.ID) {
			a.det.Novel(a.api.Now())
			if a.det.Omega() != prev {
				// A leader update is the change event.
				a.localChange()
			}
		}
	}
	if c.Change != nil && a.change.Receive(*c.Change) {
		a.det.Novel(a.api.Now())
		if a.det.Omega() == a.id {
			a.generateProposal()
		}
	}
	if c.Proposer != nil {
		a.onProposer(*c.Proposer)
	}
	if c.Response != nil {
		a.onResponse(*c.Response)
	}
	if c.Decide != nil && !a.decided {
		a.decideAndFlood(c.Decide.Val)
	}
	a.pump()
}

// localChange floods a change notification and restarts the proposer when
// this node believes it is the leader.
func (a *Node) localChange() {
	a.change.OnChange(a.api.Now(), a.id)
	if a.det.Omega() == a.id {
		a.generateProposal()
	}
}

// OnAck implements amac.Algorithm. The ack stream clocks the failure
// detector: undecided nodes broadcast on every pump (the leader slot is
// never empty), so silence checks never stop arriving.
func (a *Node) OnAck(m amac.Message) {
	a.inflight = false
	if a.reuse {
		// Every receiver is done with this broadcast (the NewFactory
		// contract), so the buffer can be recycled.
		c := m.(*Combined)
		*c = Combined{}
		a.spare = c
	}
	now := a.api.Now()
	a.det.NoteAck(now)
	if !a.decided {
		switch a.det.Check(now) {
		case wpaxos.DetectorDemoted:
			a.localChange()
		case wpaxos.DetectorRearm:
			a.generateProposal()
		}
	}
	a.pump()
}

func (a *Node) pump() {
	if a.inflight {
		return
	}
	var c *Combined
	if a.hasDecideQ {
		c = a.newMsg()
		c.buf.decide = a.decideQ
		c.Decide = &c.buf.decide
		a.hasDecideQ = false
	}
	if !a.decided {
		if c == nil {
			c = a.newMsg()
		}
		// Membership gossip: one known id per pump, cycling. This slot
		// is always non-empty, so an undecided node is never silent —
		// the detector's liveness tick.
		c.buf.leader = wpaxos.LeaderMsg{ID: a.det.Gossip()}
		c.Leader = &c.buf.leader
		if m, ok := a.change.Current(); ok {
			c.buf.change = m
			c.Change = &c.buf.change
		}
		if m, ok, again := a.propQ.Next(); ok {
			c.buf.proposer = m
			c.Proposer = &c.buf.proposer
			if again {
				a.mRetransmits.Inc()
			}
		}
		if len(a.respQ) > 0 {
			// Sticky cycle: pending responses are re-broadcast
			// round-robin until superseded per proposer.
			if a.respCur >= len(a.respQ) {
				a.respCur = 0
			}
			c.buf.response = a.respQ[a.respCur]
			c.Response = &c.buf.response
			a.respCur++
		}
	}
	if c == nil {
		return
	}
	a.det.NoteSend(a.api.Now())
	a.inflight = true
	a.api.Broadcast(c)
}

func (a *Node) onProposer(m wpaxos.ProposerMsg) {
	a.prop.SeeTag(m.Num.Tag)
	key := m.Proposition()
	if a.seenProps[key] {
		return
	}
	a.seenProps[key] = true
	a.det.Novel(a.api.Now())
	// Respond to and relay every first-seen proposition, whoever proposed
	// it: with a rotating Ω, nodes may disagree about the leader, and
	// PAXOS safety is proposer-independent.
	a.noteProposerNum(m.Num)
	a.learnValue(m)
	a.propQ.Offer(m)
	a.respond(m)
}

// originate floods one of this node's own proposer messages and runs the
// local acceptor against it. Unlike a relayed proposition, it takes the
// proposition slot whatever is queued there.
func (a *Node) originate(m wpaxos.ProposerMsg) {
	a.seenProps[m.Proposition()] = true
	a.noteProposerNum(m.Num)
	a.learnValue(m)
	a.propQ.Replace(m)
	a.respond(m)
}

// learnValue feeds a propose's value to the chosen-value watch.
func (a *Node) learnValue(m wpaxos.ProposerMsg) {
	if m.Kind == wpaxos.Propose {
		a.decideChosen(a.chosen.Learn(m.Num, m.Val))
	}
}

// noteProposerNum updates the largest proposal number seen from num's
// proposer and prunes that proposer's superseded responses from the
// pending cycle.
func (a *Node) noteProposerNum(num wpaxos.ProposalNum) {
	if cur := a.maxNumBy[num.ID]; cur.Less(num) {
		a.maxNumBy[num.ID] = num
		kept := a.respQ[:0]
		for _, r := range a.respQ {
			if r.Prop.Num.ID == num.ID && r.Prop.Num.Less(num) {
				continue
			}
			kept = append(kept, r)
		}
		a.respQ = kept
		if a.respCur > len(a.respQ) {
			a.respCur = 0
		}
	}
}

// respond runs the acceptor and emits one individual response.
func (a *Node) respond(m wpaxos.ProposerMsg) {
	r := ResponseMsg{Prop: m.Proposition(), Acceptor: a.id}
	r.Positive, r.Prev, r.Committed = a.acc.Respond(m)
	// Mark our own response seen so the flood echoing it back is not
	// re-queued as a duplicate.
	a.seenResp[respKey{prop: r.Prop, acceptor: r.Acceptor}] = true
	a.routeResponse(r)
}

// routeResponse queues a response for sticky flooding (or consumes it when
// this node is the proposer) and feeds the chosen-value watch.
func (a *Node) routeResponse(r ResponseMsg) {
	if r.Positive && r.Prop.Kind == wpaxos.Propose {
		a.decideChosen(a.chosen.Accept(r.Prop.Num, r.Acceptor))
	}
	if r.Prop.Num.ID == a.id {
		a.consume(r)
		return
	}
	if r.Prop.Num.Less(a.maxNumBy[r.Prop.Num.ID]) {
		return // superseded by a newer round from the same proposer
	}
	a.respQ = append(a.respQ, r)
}

func (a *Node) onResponse(r ResponseMsg) {
	a.prop.SeeTag(r.Committed.Tag)
	key := respKey{prop: r.Prop, acceptor: r.Acceptor}
	if a.seenResp[key] {
		return
	}
	a.seenResp[key] = true
	a.det.Novel(a.api.Now())
	a.noteProposerNum(r.Prop.Num)
	a.routeResponse(r)
}

// decideChosen decides v when the chosen-value watch reports it chosen
// (the responses keep flooding stickily even if the proposer died
// mid-round).
func (a *Node) decideChosen(v amac.Value, chosen bool) {
	if chosen && !a.decided {
		a.decideAndFlood(v)
	}
}

func (a *Node) generateProposal() {
	if a.decided {
		return
	}
	a.prepare(a.prop.Generate(a.id))
}

// prepare re-arms the tallies for a fresh number and originates its
// prepare.
func (a *Node) prepare(m wpaxos.ProposerMsg) {
	a.mProposals.Inc()
	a.resetTallies()
	a.originate(m)
}

// resetTallies re-arms the ack/nack tallies for a new phase, reusing the
// maps across phases and proposals.
func (a *Node) resetTallies() {
	if a.acks == nil {
		a.acks = make(map[amac.NodeID]bool, a.n)
		a.nacks = make(map[amac.NodeID]bool, a.n)
		return
	}
	clear(a.acks)
	clear(a.nacks)
}

// consume is the proposer counting individual responses.
func (a *Node) consume(r ResponseMsg) {
	if a.decided || !a.prop.Awaits(r.Prop) {
		return
	}
	if !r.Positive {
		a.mNacks.Inc()
		a.nacks[r.Acceptor] = true
		if 2*len(a.nacks) > a.n {
			a.retry()
		}
		return
	}
	a.acks[r.Acceptor] = true
	if r.Prop.Kind == wpaxos.Prepare {
		a.prop.NotePrev(r.Prev)
		if 2*len(a.acks) > a.n {
			a.beginPropose()
		}
	} else if 2*len(a.acks) > a.n {
		a.decideAndFlood(a.prop.Value())
	}
}

func (a *Node) beginPropose() {
	m := a.prop.BeginPropose(a.input)
	a.resetTallies()
	a.originate(m)
}

// retry abandons the current number after a majority rejected it (see
// wpaxos.Proposer.Retry).
func (a *Node) retry() {
	a.mRetries.Inc()
	if m, ok := a.prop.Retry(a.id, a.det.Omega()); ok {
		a.prepare(m)
	}
}

func (a *Node) decide(v amac.Value) {
	a.decided = true
	a.decision = v
	a.api.Decide(v)
}

// decideAndFlood decides v and queues the decide flood.
func (a *Node) decideAndFlood(v amac.Value) {
	a.decide(v)
	a.hasDecideQ = true
	a.decideQ = wpaxos.DecideMsg{Val: v}
}

// Decided implements amac.Decider.
func (a *Node) Decided() (amac.Value, bool) { return a.decision, a.decided }

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Decider   = (*Node)(nil)
	_ amac.Message   = (*Combined)(nil)
)
