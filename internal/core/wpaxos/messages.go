package wpaxos

import "github.com/absmac/absmac/internal/amac"

// LeaderMsg is the leader election service's <leader, id> message
// (Algorithm 2).
type LeaderMsg struct {
	ID amac.NodeID
}

// ChangeMsg is the change service's <change, t, id> message (Algorithm 3).
type ChangeMsg struct {
	T  int64
	ID amac.NodeID
}

// SearchMsg is the tree building service's <search, id, h> message
// (Algorithm 4). Sender identifies the broadcasting node; a receiver that
// adopts the message sets parent[Root] to Sender.
type SearchMsg struct {
	Root   amac.NodeID
	Hops   int64
	Sender amac.NodeID
}

// ProposerMsg is a flooded proposer message: a prepare or propose
// (Section 4.2.1). Val is meaningful only for Propose.
type ProposerMsg struct {
	Kind PropKind
	Num  ProposalNum
	Val  amac.Value
}

// Proposition returns the proposition this message belongs to.
func (m ProposerMsg) Proposition() Proposition {
	return Proposition{Kind: m.Kind, Num: m.Num}
}

// ResponseMsg is an (aggregated) acceptor response traveling up the
// proposer-rooted tree. It is broadcast like everything else but addressed
// to a single next hop (Dest); other receivers ignore it.
type ResponseMsg struct {
	// Dest is the next hop (the relay's parent in the tree rooted at the
	// proposer).
	Dest amac.NodeID
	// Prop identifies the proposition being answered; Prop.Num.ID is the
	// proposer.
	Prop Proposition
	// Positive distinguishes acks from rejections.
	Positive bool
	// Count is the number of acceptor responses aggregated here.
	Count int64
	// Prev is the highest-numbered previously-accepted proposal among
	// the aggregated positive prepare responses, if any.
	Prev *Proposal
	// Committed is the largest committed proposal number among the
	// aggregated rejections (the paper's standard optimization: a
	// rejecting acceptor appends the number it is committed to).
	Committed ProposalNum
}

// StateMsg gossips one acceptor's state (the weaveworks/weave ipam/paxos
// idiom): the origin's current promised number and accepted proposal,
// merged monotonically by every receiver. Unlike the tree-routed
// aggregated responses, state gossip is origin-keyed and idempotent, so it
// stays queued and is re-broadcast on every pump until superseded by a
// newer state from the same origin — the retransmit-until-superseded
// response class that keeps proposals countable when relays die or lossy
// overlay edges eat the aggregated fast path. Safety never depends on who
// proposes: any node that observes a majority of origins with the same
// accepted proposal decides.
type StateMsg struct {
	// Origin is the acceptor whose state this is.
	Origin amac.NodeID
	// Promised is the origin's promised number (zero when it has not
	// promised anything yet).
	Promised ProposalNum
	// Accepted is the origin's highest accepted proposal, nil when none.
	Accepted *Proposal
}

// Newer reports whether s carries strictly newer information than cur for
// the same origin. Acceptor state grows lexicographically in
// (promised, accepted number): promises only rise, and an acceptance
// raises the accepted number at equal promised.
func (s StateMsg) Newer(cur StateMsg) bool {
	if cur.Promised.Less(s.Promised) {
		return true
	}
	if s.Promised != cur.Promised {
		return false
	}
	var a, b ProposalNum
	if cur.Accepted != nil {
		a = cur.Accepted.Num
	}
	if s.Accepted != nil {
		b = s.Accepted.Num
	}
	return a.Less(b)
}

// DecideMsg floods a decision through the network.
type DecideMsg struct {
	Val amac.Value
}

// Combined is the broadcast service's multiplexed message (Algorithm 5):
// one message from each non-empty queue, sent as a single bounded-size
// broadcast. Nil fields mean the corresponding queue was empty. The sender
// fills the unexported inline slots and points the exported fields at
// them, so assembling a broadcast allocates nothing beyond the Combined
// itself — and nothing at all once a pooling node (see NewFactory) has
// recycled its first message.
type Combined struct {
	Leader   *LeaderMsg
	Change   *ChangeMsg
	Search   *SearchMsg
	Proposer *ProposerMsg
	Response *ResponseMsg
	State    *StateMsg
	Decide   *DecideMsg

	// buf backs the pointer fields above when the message is assembled by
	// pump. Receivers must treat a delivered Combined as immutable and
	// copy what they keep (they do), because pooling senders reuse the
	// whole object — buf included — after the ack.
	buf struct {
		leader   LeaderMsg
		change   ChangeMsg
		search   SearchMsg
		proposer ProposerMsg
		response ResponseMsg
		state    StateMsg
		decide   DecideMsg
	}
}

// IDCount implements amac.Message. Each constituent carries a constant
// number of ids, so the combined message does too (the model's O(1)-ids
// restriction, audited by the simulator).
func (m *Combined) IDCount() int {
	c := 0
	if m.Leader != nil {
		c++
	}
	if m.Change != nil {
		c++
	}
	if m.Search != nil {
		c += 2 // root and sender
	}
	if m.Proposer != nil {
		c++ // the number's proposer id
	}
	if m.Response != nil {
		c += 2 // dest and proposer
		if m.Response.Prev != nil {
			c++
		}
		if !m.Response.Committed.IsZero() {
			c++
		}
	}
	if m.State != nil {
		c++ // origin
		if !m.State.Promised.IsZero() {
			c++
		}
		if m.State.Accepted != nil {
			c++
		}
	}
	return c
}

var _ amac.Message = (*Combined)(nil)
