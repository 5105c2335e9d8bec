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
// per-pump send buffers (response, state, leader, search) across
// broadcasts, which relies on the delivery-before-ack guarantee of
// serialized substrates (internal/sim); on wall-clock substrates build
// nodes with New/NewGeneral instead.
func NewFactory(cfg Config) amac.Factory {
	if cfg.N < 1 {
		panic(fmt.Sprintf("wpaxos: invalid network size %d", cfg.N))
	}
	return func(nc amac.NodeConfig) amac.Algorithm {
		a := New(nc.Input, cfg)
		a.reuse = true
		a.instrument(nc.Metrics)
		return a
	}
}

// chosenTally tracks, per proposal number, the set of origins ever seen
// with that proposal accepted. A majority means the value is chosen —
// any node may then decide, whether or not the proposer survived.
type chosenTally struct {
	val amac.Value
	by  map[amac.NodeID]bool
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
	change changeService
	tree   treeService
	prop   proposerState
	acc    acceptorState

	// propQ is the proposer flood queue: the highest-numbered proposition
	// seen anywhere (a propose supersedes the prepare of the same
	// number). It is sticky — re-broadcast on every pump until superseded
	// — so a proposition survives lossy overlay edges.
	propQ *ProposerMsg
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
	// chosen is the chosen-value watch: per proposal number, the origins
	// ever seen with it accepted. A majority decides regardless of who
	// proposed (safety does not depend on the proposer surviving).
	chosen map[ProposalNum]*chosenTally
	// gossAcks/gossNacks count distinct origins supporting/refusing the
	// current proposition via gossiped state. They are tallied separately
	// from the fast path's aggregated counts — each tally is individually
	// sound, and they are never summed.
	gossAcks  map[amac.NodeID]bool
	gossNacks map[amac.NodeID]bool

	decideQ  *DecideMsg
	inflight bool
	decided  bool
	decision amac.Value

	// maxTagUsed tracks the largest tag this node proposed with
	// (Lemma 4.4; TestTagGrowthModest bounds it).
	maxTagUsed int64

	// mreg is the metrics registry handed down by the substrate (nil when
	// metrics are off); met holds the node's counter handles (zero =
	// disabled). propSent marks the sticky proposer queue entry as having
	// been broadcast at least once, so retransmissions can be told apart
	// from first sends.
	mreg     *metrics.Registry
	met      nodeMetrics
	propSent bool

	// reuse recycles the per-pump send buffers below across broadcasts
	// (factory-built nodes only; see NewFactory). The queues themselves
	// are value slices, so steady-state pumping does not allocate.
	reuse bool
	bufs  struct {
		leader LeaderMsg
		search SearchMsg
		resp   ResponseMsg
		state  StateMsg
	}
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
		chosen:    make(map[ProposalNum]*chosenTally),
		gossAcks:  make(map[amac.NodeID]bool),
		gossNacks: make(map[amac.NodeID]bool),
	}
}

// NewGeneralFactory returns a factory of NewGeneral nodes (with send-buffer
// reuse; see NewFactory for the substrate caveat).
func NewGeneralFactory(cfg Config) amac.Factory {
	if cfg.N < 1 {
		panic(fmt.Sprintf("wpaxos: invalid network size %d", cfg.N))
	}
	return func(nc amac.NodeConfig) amac.Algorithm {
		a := NewGeneral(nc.Input, cfg)
		a.reuse = true
		a.instrument(nc.Metrics)
		return a
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
	nd.change.init()
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
	c, ok := m.(Combined)
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
func (nd *Node) OnAck(amac.Message) {
	nd.inflight = false
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
	var c Combined
	any := false
	if nd.decideQ != nil {
		c.Decide, nd.decideQ = nd.decideQ, nil
		any = true
	}
	if !nd.decided {
		lm := LeaderMsg{ID: nd.det.Gossip()}
		if nd.reuse {
			nd.bufs.leader = lm
			c.Leader = &nd.bufs.leader
		} else {
			cp := lm
			c.Leader = &cp
		}
		any = true
		if m := nd.change.pop(); m != nil {
			c.Change = m
		}
		if m, ok := nd.tree.pop(); ok {
			if nd.reuse {
				nd.bufs.search = m
				c.Search = &nd.bufs.search
			} else {
				cp := m
				c.Search = &cp
			}
		}
		if nd.propQ != nil {
			c.Proposer = nd.propQ // sticky: retransmitted until superseded
			if nd.propSent {
				nd.met.retransmits.Inc()
			} else {
				nd.propSent = true
			}
		}
		if r, ok := nd.popResp(); ok {
			if nd.reuse {
				nd.bufs.resp = r
				c.Response = &nd.bufs.resp
			} else {
				cp := r
				c.Response = &cp
			}
		}
		if st, ok := nd.popState(); ok {
			if nd.reuse {
				nd.bufs.state = st
				c.State = &nd.bufs.state
			} else {
				cp := st
				c.State = &cp
			}
		}
	}
	if !any {
		return
	}
	nd.det.NoteSend(nd.api.Now())
	nd.inflight = true
	nd.api.Broadcast(c)
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
	nd.change.onChange(nd.api.Now(), nd.id)
	if nd.det.Omega() == nd.id {
		nd.generateProposal()
	}
}

func (nd *Node) onChange(m ChangeMsg) {
	if !nd.change.receive(m) {
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
	nd.decide(m.Val)
	nd.decideQ = &DecideMsg{Val: m.Val} // flood onward
}

func (nd *Node) decide(v amac.Value) {
	nd.decided = true
	nd.decision = v
	nd.api.Decide(v)
}

// ---- Proposer flood and acceptor role ----

func (nd *Node) onProposer(m ProposerMsg) {
	if nd.prop.maxTagSeen < m.Num.Tag {
		nd.prop.maxTagSeen = m.Num.Tag
	}
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
	nd.enqueueProp(m)
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

// enqueueProp installs a proposer message in the flood queue, displacing
// anything older (larger number wins; a propose supersedes the prepare of
// the same number).
func (nd *Node) enqueueProp(m ProposerMsg) {
	cur := nd.propQ
	if cur == nil || cur.Num.Less(m.Num) || (cur.Num == m.Num && cur.Kind == Prepare && m.Kind == Propose) {
		nd.propQ = &m
		nd.propSent = false
	}
}

// respond runs the acceptor against a proposition, publishes the updated
// acceptor state to the gossip layer, and routes the response toward the
// proposer when the fast path applies.
func (nd *Node) respond(m ProposerMsg) {
	var r ResponseMsg
	r.Prop = m.Proposition()
	switch m.Kind {
	case Prepare:
		r.Positive, r.Prev, r.Committed = nd.acc.handlePrepare(m.Num)
	case Propose:
		r.Positive, r.Committed = nd.acc.handlePropose(m.Num, m.Val)
	default:
		panic(fmt.Sprintf("wpaxos: unknown proposer message kind %v", m.Kind))
	}
	r.Count = 1
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
	if nd.prop.maxTagSeen < r.Committed.Tag {
		nd.prop.maxTagSeen = r.Committed.Tag
	}
	if r.Prev != nil && nd.prop.maxTagSeen < r.Prev.Num.Tag {
		nd.prop.maxTagSeen = r.Prev.Num.Tag
	}
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
	nd.mergeState(StateMsg{Origin: nd.id, Promised: nd.acc.promised, Accepted: nd.acc.accepted})
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
	if st.Accepted != nil {
		nd.tallyChosen(*st.Accepted, st.Origin)
	}
	nd.countState(st)
}

// tallyChosen records that origin accepted p at some point. A majority of
// acceptors having accepted the same proposal means its value is chosen
// (the PAXOS chosen condition); any observer may decide it.
func (nd *Node) tallyChosen(p Proposal, origin amac.NodeID) {
	t := nd.chosen[p.Num]
	if t == nil {
		t = &chosenTally{val: p.Val, by: make(map[amac.NodeID]bool)}
		nd.chosen[p.Num] = t
	}
	if t.by[origin] {
		return
	}
	t.by[origin] = true
	if !nd.decided && 2*len(t.by) > nd.n {
		nd.decide(t.val)
		nd.decideQ = &DecideMsg{Val: t.val}
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
			nd.prop.bestPrev = maxPrev(nd.prop.bestPrev, st.Accepted)
			if 2*len(nd.gossAcks) > nd.n {
				nd.beginPropose()
			}
		}
	case propProposing:
		if st.Accepted != nil && st.Accepted.Num == num && !nd.gossAcks[st.Origin] {
			nd.gossAcks[st.Origin] = true
			if 2*len(nd.gossAcks) > nd.n {
				nd.decide(nd.prop.value)
				nd.decideQ = &DecideMsg{Val: nd.prop.value}
			}
		}
	}
}

// ---- Proposer logic ----

// generateProposal is the change service's GenerateNewPAXOSProposal: start
// a fresh proposal number, with a budget of two numbers per notification.
func (nd *Node) generateProposal() {
	if nd.decided {
		return
	}
	nd.prop.triesLeft = 2
	nd.startProposal()
}

func (nd *Node) startProposal() {
	nd.met.proposals.Inc()
	nd.prop.triesLeft--
	tag := nd.prop.maxTagSeen + 1
	nd.prop.maxTagSeen = tag
	if tag > nd.maxTagUsed {
		nd.maxTagUsed = tag
	}
	nd.prop.num = ProposalNum{Tag: tag, ID: nd.id}
	nd.prop.phase = propPreparing
	nd.prop.acks, nd.prop.nacks = 0, 0
	nd.prop.bestPrev = nil
	clear(nd.gossAcks)
	clear(nd.gossNacks)
	nd.originate(ProposerMsg{Kind: Prepare, Num: nd.prop.num})
}

// originate floods one of this node's own proposer messages and runs the
// local acceptor against it.
func (nd *Node) originate(m ProposerMsg) {
	key := m.Proposition()
	nd.seenProps[key] = true
	if nd.det.Omega() == nd.id {
		nd.noteLeaderNum(m.Num)
	}
	nd.enqueueProp(m)
	nd.respond(m)
}

// consumeResponse is the proposer counting fast-path responses addressed
// to itself.
func (nd *Node) consumeResponse(r ResponseMsg) {
	// Fold learned numbers into maxTagSeen here too: self-responses skip
	// onResponse, and a retry must out-number everything the rejecting
	// majority is committed to.
	if nd.prop.maxTagSeen < r.Committed.Tag {
		nd.prop.maxTagSeen = r.Committed.Tag
	}
	if r.Prev != nil && nd.prop.maxTagSeen < r.Prev.Num.Tag {
		nd.prop.maxTagSeen = r.Prev.Num.Tag
	}
	if r.Positive {
		nd.audit.addCounted(r.Prop, r.Count)
	}
	if nd.decided || r.Prop.Num != nd.prop.num {
		return // stale proposition
	}
	switch {
	case nd.prop.phase == propPreparing && r.Prop.Kind == Prepare:
		if r.Positive {
			nd.prop.acks += r.Count
			nd.prop.bestPrev = maxPrev(nd.prop.bestPrev, r.Prev)
			if 2*nd.prop.acks > int64(nd.n) {
				nd.beginPropose()
			}
		} else {
			nd.met.nacks.Add(r.Count)
			nd.prop.nacks += r.Count
			if 2*nd.prop.nacks > int64(nd.n) {
				nd.retry()
			}
		}
	case nd.prop.phase == propProposing && r.Prop.Kind == Propose:
		if r.Positive {
			nd.prop.acks += r.Count
			if 2*nd.prop.acks > int64(nd.n) {
				// A majority accepted: decide and flood.
				nd.decide(nd.prop.value)
				nd.decideQ = &DecideMsg{Val: nd.prop.value}
			}
		} else {
			nd.met.nacks.Add(r.Count)
			nd.prop.nacks += r.Count
			if 2*nd.prop.nacks > int64(nd.n) {
				nd.retry()
			}
		}
	}
}

// beginPropose moves a prepared proposal to the propose phase, adopting the
// highest-numbered previous proposal's value when one was reported
// (Lemma 4.3's condition (b)), else this node's own input.
func (nd *Node) beginPropose() {
	nd.prop.phase = propProposing
	nd.prop.acks, nd.prop.nacks = 0, 0
	clear(nd.gossAcks)
	clear(nd.gossNacks)
	if nd.prop.bestPrev != nil {
		nd.prop.value = nd.prop.bestPrev.Val
	} else {
		nd.prop.value = nd.input
	}
	nd.originate(ProposerMsg{Kind: Propose, Num: nd.prop.num, Val: nd.prop.value})
}

// retry abandons the current number after a majority rejected it. The
// proposer has learned the largest committed number from the aggregated
// rejections (already folded into maxTagSeen), so the next number — if the
// two-numbers budget allows one and this node still believes it is the
// leader — beats everything that majority is committed to. A node that
// exhausts its budget goes idle; the failure detector's re-arm (or the
// next change event) gives it a fresh budget, so no proposer is gated
// forever while it believes itself leader.
func (nd *Node) retry() {
	nd.met.retries.Inc()
	if nd.det.Omega() != nd.id || nd.prop.triesLeft <= 0 {
		nd.prop.phase = propIdle
		nd.prop.num = ProposalNum{}
		return
	}
	nd.startProposal()
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
func (nd *Node) MaxTagUsed() int64 { return nd.maxTagUsed }

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Decider   = (*Node)(nil)
)
