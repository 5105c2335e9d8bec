package wpaxos

import (
	"fmt"
	"sort"
	"sync"

	"github.com/absmac/absmac/internal/amac"
)

// This file implements the PAXOS roles (Section 4.2.1): every node plays
// both proposer and acceptor. The learner role is collapsed into the
// proposer, as in the paper: a proposer that counts a majority of accepts
// decides and floods the decision. The types here are the PAXOS core both
// multihop variants run — wPAXOS and the flooding baseline
// (internal/baseline/floodpaxos) — which differ only in how acceptor
// responses travel back and are counted.

// proposerPhase tracks the proposer's progress on its current number.
type proposerPhase int

const (
	propIdle      proposerPhase = iota // no proposition outstanding
	propPreparing                      // counting prepare responses
	propProposing                      // counting propose responses
)

// Proposer is the proposer's numbering state: the phase, the current
// number, the largest tag seen, the budget of two numbers per change
// notification, and the value being proposed. The transitions return the
// proposer message the caller must originate; counting the responses to
// it is left to the caller.
type Proposer struct {
	phase proposerPhase
	// num is the current proposal number (zero when idle).
	num ProposalNum
	// maxTagSeen is the largest tag observed anywhere; new proposals use
	// maxTagSeen+1 (Section 4.2.1).
	maxTagSeen int64
	// maxTagUsed is the largest tag this proposer numbered with
	// (Lemma 4.4; TestTagGrowthModest bounds it).
	maxTagUsed int64
	// triesLeft limits the proposer to two proposal numbers per change
	// notification.
	triesLeft int
	// bestPrev is the highest-numbered previous proposal reported by
	// positive prepare responses; nil means none, in which case the
	// proposer is free to propose its own input.
	bestPrev *Proposal
	// value is the value being proposed in the propose phase.
	value amac.Value
}

// SeeTag folds a tag observed in any message into the next number.
func (p *Proposer) SeeTag(tag int64) {
	if p.maxTagSeen < tag {
		p.maxTagSeen = tag
	}
}

// NotePrev records a previous proposal reported by a positive prepare
// response, keeping the highest-numbered one.
func (p *Proposer) NotePrev(prev *Proposal) { p.bestPrev = maxPrev(p.bestPrev, prev) }

// Awaits reports whether responses to prop count toward the current
// phase: prop is the outstanding prepare or propose of the current number.
func (p *Proposer) Awaits(prop Proposition) bool {
	switch p.phase {
	case propPreparing:
		return prop == Proposition{Kind: Prepare, Num: p.num}
	case propProposing:
		return prop == Proposition{Kind: Propose, Num: p.num}
	default:
		return false
	}
}

// Value returns the value of the propose phase.
func (p *Proposer) Value() amac.Value { return p.value }

// MaxTagUsed returns the largest tag this proposer numbered with (0 when
// it never proposed).
func (p *Proposer) MaxTagUsed() int64 { return p.maxTagUsed }

// Generate is the change service's GenerateNewPAXOSProposal: it hands out
// a budget of two numbers and starts the first, returning its prepare.
func (p *Proposer) Generate(self amac.NodeID) ProposerMsg {
	p.triesLeft = 2
	return p.start(self)
}

// Retry abandons the current number after a majority rejected it. The
// rejections' committed numbers are already folded into the tag (SeeTag),
// so the next number beats everything that majority is committed to. It
// starts that number — returning its prepare — only while self is the
// leader estimate omega and the budget allows; otherwise the proposer
// goes idle, and the failure detector's re-arm (or the next change event)
// gives it a fresh budget, so no proposer is gated forever while it
// believes itself leader.
func (p *Proposer) Retry(self, omega amac.NodeID) (ProposerMsg, bool) {
	if omega != self || p.triesLeft <= 0 {
		p.phase = propIdle
		p.num = ProposalNum{}
		return ProposerMsg{}, false
	}
	return p.start(self), true
}

func (p *Proposer) start(self amac.NodeID) ProposerMsg {
	p.triesLeft--
	p.maxTagSeen++
	p.maxTagUsed = p.maxTagSeen
	p.num = ProposalNum{Tag: p.maxTagSeen, ID: self}
	p.phase = propPreparing
	p.bestPrev = nil
	return ProposerMsg{Kind: Prepare, Num: p.num}
}

// BeginPropose moves a prepared number to the propose phase, adopting the
// highest-numbered previous proposal's value when one was reported
// (Lemma 4.3's condition (b)), else input. It returns the propose.
func (p *Proposer) BeginPropose(input amac.Value) ProposerMsg {
	p.phase = propProposing
	if p.bestPrev != nil {
		p.value = p.bestPrev.Val
	} else {
		p.value = input
	}
	return ProposerMsg{Kind: Propose, Num: p.num, Val: p.value}
}

// Acceptor is the acceptor half of a node.
type Acceptor struct {
	// promised is the highest prepare number committed to.
	promised ProposalNum
	// accepted is the highest-numbered accepted proposal, if any.
	accepted *Proposal
}

// Respond applies a prepare or propose and returns the response polarity
// plus the data the response carries: the previously accepted proposal
// for a positive prepare, the number the acceptor is committed to for a
// rejection.
func (a *Acceptor) Respond(m ProposerMsg) (positive bool, prev *Proposal, committed ProposalNum) {
	switch m.Kind {
	case Prepare:
		if a.promised.Less(m.Num) {
			a.promised = m.Num
			return true, a.accepted, ProposalNum{}
		}
		return false, nil, a.promised
	case Propose:
		// Standard PAXOS: accept unless committed to a strictly larger
		// number.
		if m.Num.Less(a.promised) {
			return false, nil, a.promised
		}
		a.promised = m.Num
		a.accepted = &Proposal{Num: m.Num, Val: m.Val}
		return true, nil, ProposalNum{}
	default:
		panic(fmt.Sprintf("wpaxos: unknown proposer message kind %v", m.Kind))
	}
}

// State returns the acceptor's state as gossiped on behalf of origin.
func (a *Acceptor) State(origin amac.NodeID) StateMsg {
	return StateMsg{Origin: origin, Promised: a.promised, Accepted: a.accepted}
}

// PropQueue is the proposer flood queue: one slot holding the
// highest-numbered proposition seen anywhere. It is sticky — re-broadcast
// on every pump until superseded — so a proposition survives lossy
// overlay edges.
type PropQueue struct {
	msg    ProposerMsg
	queued bool
	// sent marks the queued proposition as broadcast at least once, so
	// retransmissions can be told apart from the first send.
	sent bool
}

// Offer installs m when it supersedes the queued proposition: a larger
// number wins, and a propose replaces the prepare of the same number.
func (q *PropQueue) Offer(m ProposerMsg) {
	cur := q.msg
	if !q.queued || cur.Num.Less(m.Num) || (cur.Num == m.Num && cur.Kind == Prepare && m.Kind == Propose) {
		q.Replace(m)
	}
}

// Replace installs m whatever is queued.
func (q *PropQueue) Replace(m ProposerMsg) {
	q.msg, q.queued, q.sent = m, true, false
}

// Next returns the queued proposition for the next broadcast, if any, and
// whether this send is a retransmission.
func (q *PropQueue) Next() (m ProposerMsg, ok, retransmit bool) {
	if !q.queued {
		return ProposerMsg{}, false, false
	}
	retransmit, q.sent = q.sent, true
	return q.msg, true, retransmit
}

// ChosenWatch is the chosen-value watch: per proposal number, the
// acceptors ever seen accepting it and, once known, its value. A majority
// of acceptors having accepted the same number means its value is chosen
// (the PAXOS chosen condition), so any observer may decide it — whether
// or not the proposer survived its round.
type ChosenWatch struct {
	n    int
	nums map[ProposalNum]*chosenEntry
}

type chosenEntry struct {
	val   amac.Value
	known bool
	by    map[amac.NodeID]bool
}

// NewChosenWatch returns an empty watch for a network of n acceptors.
func NewChosenWatch(n int) ChosenWatch { return ChosenWatch{n: n} }

// Learn records v as the value proposed under num. It reports v as chosen
// when a majority has already accepted num.
func (w *ChosenWatch) Learn(num ProposalNum, v amac.Value) (amac.Value, bool) {
	e := w.entry(num)
	e.val, e.known = v, true
	return v, w.chosen(e)
}

// Accept records that acceptor accepted num. When that is news it
// reports num's value as chosen once a majority accepted num and the
// value is known; a repeated acceptor reports nothing.
func (w *ChosenWatch) Accept(num ProposalNum, acceptor amac.NodeID) (amac.Value, bool) {
	return w.accept(w.entry(num), acceptor)
}

// AcceptProposal is Learn and Accept in one, for an acceptance that
// carries the accepted value.
func (w *ChosenWatch) AcceptProposal(p Proposal, acceptor amac.NodeID) (amac.Value, bool) {
	e := w.entry(p.Num)
	e.val, e.known = p.Val, true
	return w.accept(e, acceptor)
}

func (w *ChosenWatch) entry(num ProposalNum) *chosenEntry {
	e := w.nums[num]
	if e == nil {
		if w.nums == nil {
			w.nums = make(map[ProposalNum]*chosenEntry, 4)
		}
		e = &chosenEntry{by: make(map[amac.NodeID]bool)}
		w.nums[num] = e
	}
	return e
}

func (w *ChosenWatch) accept(e *chosenEntry, acceptor amac.NodeID) (amac.Value, bool) {
	if e.by[acceptor] {
		return 0, false
	}
	e.by[acceptor] = true
	return e.val, w.chosen(e)
}

func (w *ChosenWatch) chosen(e *chosenEntry) bool {
	return e.known && 2*len(e.by) > w.n
}

// CountAudit instruments the Lemma 4.2 invariant c(p) <= a(p): for every
// proposition, the total affirmative count received by the proposer never
// exceeds the number of acceptors that generated an affirmative response.
// One CountAudit is shared by all nodes of a run; it is safe for
// concurrent use so the live runtime can share it too.
type CountAudit struct {
	mu        sync.Mutex
	generated map[Proposition]int64 // a(p)
	counted   map[Proposition]int64 // c(p)
}

// NewCountAudit returns an empty audit.
func NewCountAudit() *CountAudit {
	return &CountAudit{
		generated: make(map[Proposition]int64),
		counted:   make(map[Proposition]int64),
	}
}

func (c *CountAudit) addGenerated(p Proposition) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.generated[p]++
}

func (c *CountAudit) addCounted(p Proposition, k int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counted[p] += k
}

// Violations returns a deterministic list of propositions for which the
// proposer counted more affirmatives than acceptors generated. An empty
// result certifies Lemma 4.2's invariant for the run.
func (c *CountAudit) Violations() []Proposition {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bad []Proposition
	for p, counted := range c.counted {
		if counted > c.generated[p] {
			bad = append(bad, p)
		}
	}
	sort.Slice(bad, func(i, j int) bool {
		if bad[i].Num != bad[j].Num {
			return bad[i].Num.Less(bad[j].Num)
		}
		return bad[i].Kind < bad[j].Kind
	})
	return bad
}

// Propositions returns the number of distinct propositions that received
// at least one affirmative response.
func (c *CountAudit) Propositions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.generated)
}
