package wpaxos

import (
	"fmt"
	"sort"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/metrics"
)

// Config carries a node's knowledge assumptions and instrumentation.
type Config struct {
	// N is the network size, which wPAXOS assumes known (required by the
	// Section 3.3 lower bound). Majorities are computed against it.
	N int
	// Audit optionally instruments the Lemma 4.2 counting invariant.
	Audit *CountAudit
}

// NewFactory returns an amac.Factory producing wPAXOS nodes that share the
// given configuration. Nodes built through a factory recycle their
// broadcast buffer after each ack, which makes the steady-state broadcast
// path allocation-free. Reuse relies on every receiver being done with a
// message by the time its sender's OnAck runs. The simulator
// (internal/sim) guarantees that: it orders co-timed deliveries before
// acks and runs handlers serially. netmac does too, because it encodes
// the message when Broadcast is called. The goroutine runtime
// (internal/live) does not — a receiver may still be reading the message
// when the ack lands — so build its nodes with New/NewGeneral instead.
func NewFactory(cfg Config) amac.Factory { return factory(cfg, New) }

// NewGeneralFactory returns a factory of NewGeneral nodes (with send-buffer
// reuse; see NewFactory for the substrate caveat).
func NewGeneralFactory(cfg Config) amac.Factory { return factory(cfg, NewGeneral) }

func factory(cfg Config, build func(amac.Value, Config) *Node) amac.Factory {
	if cfg.N < 1 {
		panic(fmt.Sprintf("wpaxos: invalid network size %d", cfg.N))
	}
	return func(nc amac.NodeConfig) amac.Algorithm {
		a := build(nc.Input, cfg)
		a.reuse = true
		a.instrument(nc.Metrics)
		return a
	}
}

// Node is one wPAXOS participant: the support services, the suspicion-based
// Ω detector, the PAXOS proposer and acceptor roles, the gossiped
// acceptor-state fallback, and the decide flood.
type Node struct {
	api   amac.API
	id    amac.NodeID
	n     int
	input amac.Value
	audit *CountAudit

	det    *Detector
	change ChangeService
	tree   treeService
	prop   Proposer
	acc    Acceptor
	propQ  PropQueue
	// seenProps dedups the proposer flood ("rebroadcast on first sight")
	// and doubles as the acceptor's responded-once guard.
	seenProps map[Proposition]bool
	// maxLeaderNum is the largest proposal number seen from the current
	// leader; the fast-path response queue is pruned against it.
	maxLeaderNum ProposalNum
	// respQ is the fast-path acceptor response queue: aggregated
	// responses keyed by (proposition, polarity), awaiting a known parent
	// to relay to. Entries are sent once — aggregated counts cannot be
	// retransmitted without double counting — so this path is the
	// latency optimization (Theorem 4.3's O(D*Fack) argument) and the
	// sticky state gossip below is the loss-proof fallback.
	respQ []ResponseMsg

	// stateTbl holds the latest known acceptor state per origin (the
	// weave ipam/paxos idiom): merged monotonically, gossiped cyclically,
	// each entry re-broadcast until superseded by newer state from its
	// origin. stateOrder is the sorted gossip cycle.
	stateTbl   map[amac.NodeID]StateMsg
	stateOrder []amac.NodeID
	stateCur   int
	// chosen is the chosen-value watch, fed by gossiped acceptor state.
	chosen ChosenWatch
	// acks/nacks count aggregated fast-path responses to the current
	// proposition; gossAcks/gossNacks count distinct origins
	// supporting/refusing it via gossiped state. The two are tallied
	// separately — each tally is individually sound, and they are never
	// summed.
	acks, nacks int64
	gossAcks    map[amac.NodeID]bool
	gossNacks   map[amac.NodeID]bool

	// decideQ is the decide flood slot, pending while hasDecideQ.
	hasDecideQ bool
	decideQ    DecideMsg
	inflight   bool
	decided    bool
	decision   amac.Value

	// mreg is the metrics registry handed down by the substrate (nil when
	// metrics are off); met holds the node's counter handles (zero =
	// disabled).
	mreg *metrics.Registry
	met  nodeMetrics

	// reuse recycles the broadcast buffer into spare after each ack
	// (factory-built nodes only; see NewFactory). A node has at most one
	// broadcast in flight, so one spare suffices.
	reuse bool
	spare *Combined
}

// New returns a wPAXOS node for the given binary input. The paper studies
// binary consensus (which strengthens its lower bounds); use NewGeneral
// for arbitrary value sets.
func New(input amac.Value, cfg Config) *Node {
	if input != 0 && input != 1 {
		panic(fmt.Sprintf("wpaxos: input %d is not binary", input))
	}
	return NewGeneral(input, cfg)
}

// NewGeneral returns a wPAXOS node for an arbitrary input value. The
// binary restriction in the paper exists to strengthen its lower bounds,
// not because the algorithm needs it: a PAXOS value rides along in
// propose messages and previous-proposal reports unchanged, still within
// the O(1)-ids message bound. (The paper's open problem about general
// values concerns solutions built from binary consensus bit by bit; wPAXOS
// sidesteps it because the value never needs to be decomposed.)
func NewGeneral(input amac.Value, cfg Config) *Node {
	if cfg.N < 1 {
		panic(fmt.Sprintf("wpaxos: invalid network size %d", cfg.N))
	}
	return &Node{
		n:         cfg.N,
		input:     input,
		audit:     cfg.Audit,
		seenProps: make(map[Proposition]bool),
		stateTbl:  make(map[amac.NodeID]StateMsg),
		chosen:    NewChosenWatch(cfg.N),
		gossAcks:  make(map[amac.NodeID]bool),
		gossNacks: make(map[amac.NodeID]bool),
	}
}

// nodeMetrics is the wPAXOS node's counter set. All nodes of a run share
// the slots (registration dedups by name), so values are network totals.
type nodeMetrics struct {
	proposals   metrics.Counter // proposal numbers started
	retries     metrics.Counter // proposals abandoned after a nack majority
	nacks       metrics.Counter // negative fast-path responses consumed
	retransmits metrics.Counter // sticky proposer-queue re-broadcasts
}

// instrument registers the node's metric slots against r (nil-safe) and
// stashes the registry so Start can instrument the failure detector too.
func (nd *Node) instrument(r *metrics.Registry) {
	nd.mreg = r
	nd.met.proposals = r.Counter("wpaxos_proposals")
	nd.met.retries = r.Counter("wpaxos_retries")
	nd.met.nacks = r.Counter("wpaxos_nacks")
	nd.met.retransmits = r.Counter("wpaxos_retransmits")
}

// Start implements amac.Algorithm.
func (nd *Node) Start(api amac.API) {
	nd.api = api
	nd.id = api.ID()
	nd.det = NewDetector(nd.id, nd.n)
	nd.det.Instrument(nd.mreg)
	nd.tree.init(nd.id)
	if nd.n == 1 {
		// A singleton network has no peers to talk to; decide directly
		// (validity is trivial). The services would otherwise idle
		// forever since no change events can occur.
		nd.decide(nd.input)
		return
	}
	nd.pump()
}

// OnReceive implements amac.Algorithm.
func (nd *Node) OnReceive(m amac.Message) {
	c, ok := m.(*Combined)
	if !ok {
		panic(fmt.Sprintf("wpaxos: unexpected message type %T", m))
	}
	if c.Leader != nil {
		nd.onLeader(*c.Leader)
	}
	if c.Search != nil {
		nd.onSearch(*c.Search)
	}
	if c.Change != nil {
		nd.onChange(*c.Change)
	}
	if c.Proposer != nil {
		nd.onProposer(*c.Proposer)
	}
	if c.Response != nil {
		nd.onResponse(*c.Response)
	}
	if c.State != nil {
		nd.mergeState(*c.State)
	}
	if c.Decide != nil {
		nd.onDecide(*c.Decide)
	}
	nd.pump()
}

// OnAck implements amac.Algorithm. The ack stream clocks the failure
// detector: undecided nodes broadcast on every pump, so acks — and with
// them silence checks — never stop arriving.
func (nd *Node) OnAck(m amac.Message) {
	nd.inflight = false
	if nd.reuse {
		// Every receiver is done with this broadcast (the NewFactory
		// contract), so the buffer can be recycled.
		c := m.(*Combined)
		*c = Combined{}
		nd.spare = c
	}
	now := nd.api.Now()
	nd.det.NoteAck(now)
	if !nd.decided {
		switch nd.det.Check(now) {
		case DetectorDemoted:
			nd.onOmegaChange()
			nd.localChange()
		case DetectorRearm:
			nd.generateProposal()
		}
	}
	nd.pump()
}

// pump is the broadcast service (Algorithm 5): combine one message from
// each non-empty queue into a single broadcast. While undecided, the
// leader slot always carries membership gossip, so the node is never
// silent; after the node decides, only the decide flood remains relevant
// and the execution quiesces.
func (nd *Node) pump() {
	if nd.inflight {
		return
	}
	var c *Combined
	if nd.hasDecideQ {
		c = nd.newMsg()
		c.buf.decide = nd.decideQ
		c.Decide = &c.buf.decide
		nd.hasDecideQ = false
	}
	if !nd.decided {
		if c == nil {
			c = nd.newMsg()
		}
		c.buf.leader = LeaderMsg{ID: nd.det.Gossip()}
		c.Leader = &c.buf.leader
		if m, ok := nd.change.Current(); ok {
			c.buf.change = m
			c.Change = &c.buf.change
		}
		if m, ok := nd.tree.pop(); ok {
			c.buf.search = m
			c.Search = &c.buf.search
		}
		if m, ok, again := nd.propQ.Next(); ok {
			c.buf.proposer = m
			c.Proposer = &c.buf.proposer
			if again {
				nd.met.retransmits.Inc()
			}
		}
		if r, ok := nd.popResp(); ok {
			c.buf.response = r
			c.Response = &c.buf.response
		}
		if st, ok := nd.popState(); ok {
			c.buf.state = st
			c.State = &c.buf.state
		}
	}
	if c == nil {
		return
	}
	nd.det.NoteSend(nd.api.Now())
	nd.inflight = true
	nd.api.Broadcast(c)
}

// newMsg takes the spare broadcast buffer, or allocates one.
func (nd *Node) newMsg() *Combined {
	c := nd.spare
	if c == nil {
		return &Combined{}
	}
	nd.spare = nil
	return c
}

// popResp removes the first relayable response (one whose next hop toward
// the proposer is known) and stamps its destination at send time.
func (nd *Node) popResp() (ResponseMsg, bool) {
	for i := range nd.respQ {
		parent := nd.tree.parentTo(nd.respQ[i].Prop.Num.ID)
		if parent == amac.NoID {
			continue
		}
		r := nd.respQ[i]
		r.Dest = parent
		nd.respQ = append(nd.respQ[:i], nd.respQ[i+1:]...)
		return r, true
	}
	return ResponseMsg{}, false
}

// popState returns the next acceptor state in the gossip cycle. Entries
// are never removed — each is re-broadcast until superseded in place by
// newer state from its origin.
func (nd *Node) popState() (StateMsg, bool) {
	if len(nd.stateOrder) == 0 {
		return StateMsg{}, false
	}
	if nd.stateCur >= len(nd.stateOrder) {
		nd.stateCur = 0
	}
	origin := nd.stateOrder[nd.stateCur]
	nd.stateCur++
	return nd.stateTbl[origin], true
}

// ---- Service message handlers ----

func (nd *Node) onLeader(m LeaderMsg) {
	prev := nd.det.Omega()
	if !nd.det.Learn(m.ID) {
		return
	}
	nd.det.Novel(nd.api.Now())
	if nd.det.Omega() != prev {
		nd.onOmegaChange()
		// A leader update is a change event (Algorithm 3).
		nd.localChange()
	}
}

// onOmegaChange re-pins the tree queue and resets the fast-path response
// queue invariants after the leader estimate moved (a new maximum member,
// a demotion, or a wrap-around re-promotion).
func (nd *Node) onOmegaChange() {
	// OnLeaderChange (Algorithm 4): re-pin the tree queue.
	nd.tree.prioritize(nd.det.Omega())
	// The fast-path response queue only ever holds material for the
	// current leader (Section 4.2.1 queue invariants); responses to
	// other proposers travel as state gossip instead.
	nd.maxLeaderNum = ProposalNum{}
	nd.respQ = nd.respQ[:0]
}

func (nd *Node) onSearch(m SearchMsg) {
	if !nd.tree.receive(m, nd.det.Omega()) {
		return
	}
	nd.det.Novel(nd.api.Now())
	// Only improvements of the distance to the *current leader* are
	// change events; see the package comment for why this reading of
	// Algorithm 3's "Omega_u or dist_u updated" is the one that yields
	// the paper's O(D*Fack) global stabilization time.
	if m.Root == nd.det.Omega() {
		nd.localChange()
	}
}

func (nd *Node) localChange() {
	nd.change.OnChange(nd.api.Now(), nd.id)
	if nd.det.Omega() == nd.id {
		nd.generateProposal()
	}
}

func (nd *Node) onChange(m ChangeMsg) {
	if !nd.change.Receive(m) {
		return
	}
	nd.det.Novel(nd.api.Now())
	if nd.det.Omega() == nd.id {
		nd.generateProposal()
	}
}

func (nd *Node) onDecide(m DecideMsg) {
	if nd.decided {
		return
	}
	nd.decideAndFlood(m.Val)
}

func (nd *Node) decide(v amac.Value) {
	nd.decided = true
	nd.decision = v
	nd.api.Decide(v)
}

// decideAndFlood decides v and queues the decide flood.
func (nd *Node) decideAndFlood(v amac.Value) {
	nd.decide(v)
	nd.hasDecideQ = true
	nd.decideQ = DecideMsg{Val: v}
}

// ---- Proposer flood and acceptor role ----

func (nd *Node) onProposer(m ProposerMsg) {
	nd.prop.SeeTag(m.Num.Tag)
	key := m.Proposition()
	if nd.seenProps[key] {
		return // flood dedup: relay and respond only on first sight
	}
	nd.seenProps[key] = true
	nd.det.Novel(nd.api.Now())
	// Relay and answer every first-seen proposition, whoever proposed it:
	// with a rotating Ω, nodes may disagree about the leader, and safety
	// is proposer-independent. The fast-path relay queue stays gated on
	// the current leader (see respond); everyone else's counting flows
	// through the state gossip.
	nd.propQ.Offer(m)
	nd.respond(m)
}

// noteLeaderNum updates the largest proposal number seen from the current
// leader and prunes the fast-path response queue accordingly (queue
// invariant (2)).
func (nd *Node) noteLeaderNum(num ProposalNum) {
	if nd.maxLeaderNum.Less(num) {
		nd.maxLeaderNum = num
		kept := nd.respQ[:0]
		for _, r := range nd.respQ {
			if !r.Prop.Num.Less(num) {
				kept = append(kept, r)
			}
		}
		nd.respQ = kept
	}
}

// respond runs the acceptor against a proposition, publishes the updated
// acceptor state to the gossip layer, and routes the response toward the
// proposer when the fast path applies.
func (nd *Node) respond(m ProposerMsg) {
	r := ResponseMsg{Prop: m.Proposition(), Count: 1}
	r.Positive, r.Prev, r.Committed = nd.acc.Respond(m)
	if r.Positive {
		nd.audit.addGenerated(r.Prop)
	}
	// The acceptor state may have advanced; let the gossip layer (and the
	// local proposer) see it.
	nd.noteOwnState()
	if m.Num.ID == nd.id {
		// The proposer's own acceptor responds directly.
		nd.consumeResponse(r)
		return
	}
	if m.Num.ID == nd.det.Omega() {
		nd.noteLeaderNum(m.Num)
		nd.enqueueResp(r)
	}
}

// enqueueResp aggregates a response into the fast-path relay queue
// (Section 4.2.1): same proposition and polarity merge into one message
// whose count is the sum, keeping only the highest-numbered previous
// proposal and the largest committed number.
func (nd *Node) enqueueResp(r ResponseMsg) {
	if r.Prop.Num.ID != nd.det.Omega() {
		return // queue invariant (1)
	}
	if r.Prop.Num.Less(nd.maxLeaderNum) {
		return // queue invariant (2): stale proposition
	}
	nd.noteLeaderNum(r.Prop.Num)
	for i := range nd.respQ {
		q := &nd.respQ[i]
		if q.Prop == r.Prop && q.Positive == r.Positive {
			q.Count += r.Count
			q.Prev = maxPrev(q.Prev, r.Prev)
			q.Committed = q.Committed.Max(r.Committed)
			return
		}
	}
	nd.respQ = append(nd.respQ, r)
}

// onResponse handles an incoming fast-path response: consume it when this
// node is the addressee and the proposer, relay it (re-aggregated) when
// this node is the addressee but not the proposer, ignore it otherwise.
func (nd *Node) onResponse(r ResponseMsg) {
	nd.seeResponseTags(r)
	if r.Dest != nd.id {
		return // unicast-over-broadcast: not addressed to us
	}
	// An addressed response is always novel: the fast path sends each
	// aggregate once, so there are no retransmitted duplicates.
	nd.det.Novel(nd.api.Now())
	if r.Prop.Num.ID == nd.id {
		nd.consumeResponse(r)
		return
	}
	nd.enqueueResp(r)
}

// ---- Gossiped acceptor state (the weave idiom) ----

// noteOwnState publishes this node's acceptor state into the gossip table.
func (nd *Node) noteOwnState() {
	nd.mergeState(nd.acc.State(nd.id))
}

// mergeState merges a gossiped acceptor state: newer state per origin
// replaces older (monotone merge), feeds the chosen-value watch, and lets
// the local proposer count the origin.
func (nd *Node) mergeState(st StateMsg) {
	cur, ok := nd.stateTbl[st.Origin]
	if ok && !st.Newer(cur) {
		return // retransmission or stale: not novel
	}
	if !ok {
		i := sort.Search(len(nd.stateOrder), func(k int) bool { return nd.stateOrder[k] >= st.Origin })
		nd.stateOrder = append(nd.stateOrder, 0)
		copy(nd.stateOrder[i+1:], nd.stateOrder[i:])
		nd.stateOrder[i] = st.Origin
	}
	nd.stateTbl[st.Origin] = st
	nd.det.Novel(nd.api.Now())
	if p := st.Accepted; p != nil {
		nd.decideChosen(nd.chosen.AcceptProposal(*p, st.Origin))
	}
	nd.countState(st)
}

// decideChosen decides v when the chosen-value watch reports it chosen.
func (nd *Node) decideChosen(v amac.Value, chosen bool) {
	if chosen && !nd.decided {
		nd.decideAndFlood(v)
	}
}

// countState lets the proposer count a gossiped origin toward its current
// proposition. This is the loss-proof fallback tally: distinct origins,
// kept strictly separate from the fast path's aggregated counts (each
// tally is individually sound; they are never summed).
func (nd *Node) countState(st StateMsg) {
	if nd.decided || nd.prop.phase == propIdle {
		return
	}
	num := nd.prop.num
	if num.Less(st.Promised) && !nd.gossNacks[st.Origin] {
		// The origin is committed past our number and will never answer
		// it positively.
		nd.gossNacks[st.Origin] = true
		if 2*len(nd.gossNacks) > nd.n {
			nd.retry()
			return
		}
	}
	switch nd.prop.phase {
	case propPreparing:
		if st.Promised == num && !nd.gossAcks[st.Origin] {
			nd.gossAcks[st.Origin] = true
			nd.prop.NotePrev(st.Accepted)
			if 2*len(nd.gossAcks) > nd.n {
				nd.beginPropose()
			}
		}
	case propProposing:
		if st.Accepted != nil && st.Accepted.Num == num && !nd.gossAcks[st.Origin] {
			nd.gossAcks[st.Origin] = true
			if 2*len(nd.gossAcks) > nd.n {
				nd.decideAndFlood(nd.prop.value)
			}
		}
	}
}

// ---- Proposer logic ----

// generateProposal is the change service's GenerateNewPAXOSProposal.
func (nd *Node) generateProposal() {
	if nd.decided {
		return
	}
	nd.prepare(nd.prop.Generate(nd.id))
}

// prepare re-arms the tallies for a fresh number and originates its
// prepare.
func (nd *Node) prepare(m ProposerMsg) {
	nd.met.proposals.Inc()
	nd.resetTallies()
	nd.originate(m)
}

// beginPropose moves a prepared proposal to the propose phase.
func (nd *Node) beginPropose() {
	m := nd.prop.BeginPropose(nd.input)
	nd.resetTallies()
	nd.originate(m)
}

// retry abandons the current number after a majority rejected it (see
// Proposer.Retry).
func (nd *Node) retry() {
	nd.met.retries.Inc()
	if m, ok := nd.prop.Retry(nd.id, nd.det.Omega()); ok {
		nd.prepare(m)
	}
}

func (nd *Node) resetTallies() {
	nd.acks, nd.nacks = 0, 0
	clear(nd.gossAcks)
	clear(nd.gossNacks)
}

// originate floods one of this node's own proposer messages and runs the
// local acceptor against it.
func (nd *Node) originate(m ProposerMsg) {
	key := m.Proposition()
	nd.seenProps[key] = true
	if nd.det.Omega() == nd.id {
		nd.noteLeaderNum(m.Num)
	}
	nd.propQ.Offer(m)
	nd.respond(m)
}

// seeResponseTags folds the numbers a fast-path response carries into the
// proposer's tag, so a retry out-numbers everything the rejecting
// majority is committed to.
func (nd *Node) seeResponseTags(r ResponseMsg) {
	nd.prop.SeeTag(r.Committed.Tag)
	if r.Prev != nil {
		nd.prop.SeeTag(r.Prev.Num.Tag)
	}
}

// consumeResponse is the proposer counting fast-path responses addressed
// to itself.
func (nd *Node) consumeResponse(r ResponseMsg) {
	// Self-responses skip onResponse, so fold their numbers here too.
	nd.seeResponseTags(r)
	if r.Positive {
		nd.audit.addCounted(r.Prop, r.Count)
	}
	if nd.decided || !nd.prop.Awaits(r.Prop) {
		return // stale proposition
	}
	if !r.Positive {
		nd.met.nacks.Add(r.Count)
		nd.nacks += r.Count
		if 2*nd.nacks > int64(nd.n) {
			nd.retry()
		}
		return
	}
	nd.acks += r.Count
	if r.Prop.Kind == Prepare {
		nd.prop.NotePrev(r.Prev)
		if 2*nd.acks > int64(nd.n) {
			nd.beginPropose()
		}
	} else if 2*nd.acks > int64(nd.n) {
		// A majority accepted: decide and flood.
		nd.decideAndFlood(nd.prop.value)
	}
}

// ---- Introspection (used by experiments and tests) ----

// Decided implements amac.Decider.
func (nd *Node) Decided() (amac.Value, bool) { return nd.decision, nd.decided }

// Leader returns the node's current leader estimate.
func (nd *Node) Leader() amac.NodeID { return nd.det.Omega() }

// DistToLeader returns the node's best known distance to its current
// leader estimate, or -1 when unknown.
func (nd *Node) DistToLeader() int64 { return nd.tree.distTo(nd.det.Omega()) }

// ParentToLeader returns the next hop toward the current leader estimate,
// or amac.NoID when unknown.
func (nd *Node) ParentToLeader() amac.NodeID { return nd.tree.parentTo(nd.det.Omega()) }

// MaxTagUsed returns the largest proposal tag this node proposed with
// (0 when it never proposed); Lemma 4.4 bounds it polynomially in n.
func (nd *Node) MaxTagUsed() int64 { return nd.prop.MaxTagUsed() }

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Decider   = (*Node)(nil)
)
