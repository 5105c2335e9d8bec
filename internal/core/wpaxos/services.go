package wpaxos

import (
	"sort"

	"github.com/absmac/absmac/internal/amac"
)

// This file implements the queue-backed support services of Figure 3.
// Each service owns a queue drained by the broadcast service (node.go);
// queue semantics follow the paper's UpdateQ procedures, extended with
// retransmit-until-superseded: once a service has something to say it
// keeps saying it on every pump until newer state supersedes it, so a
// message lost to a lossy overlay edge (or a crashed relay) is re-offered
// forever rather than gone. Leader election itself moved to the suspicion
// detector (detector.go); the leader slot of every broadcast now carries
// membership gossip from Detector.Gossip.

// ChangeService implements Algorithm 3 (change notification). Its queue
// holds the newest change — the largest timestamp wins — and re-broadcasts
// it until a newer change supersedes it. Receivers deduplicate by
// timestamp, so the retransmissions are idempotent. The caller is
// responsible for invoking the proposer's GenerateNewPAXOSProposal when
// Receive reports true and the node currently believes it is the leader.
// The zero value is ready to use: with nothing queued, the last change
// seen is the paper's negative infinity.
type ChangeService struct {
	msg    ChangeMsg
	queued bool
}

// OnChange handles a local change event (Omega_u or dist[Omega_u]
// updated) at time now.
func (s *ChangeService) OnChange(now int64, self amac.NodeID) {
	s.msg, s.queued = ChangeMsg{T: now, ID: self}, true
}

// Receive processes <change, t, id>; it reports whether the message was
// fresh (t beyond the last change seen), in which case it is queued.
func (s *ChangeService) Receive(m ChangeMsg) bool {
	if s.queued && m.T <= s.msg.T {
		return false
	}
	s.msg, s.queued = m, true
	return true
}

// Current returns the queued change, if any, without dequeuing it: the
// newest change is re-broadcast until superseded.
func (s *ChangeService) Current() (ChangeMsg, bool) {
	return s.msg, s.queued
}

// treeService implements Algorithm 4 (tree building): for every root id
// seen, maintain the best known distance and the parent realizing it,
// Bellman-Ford style. The pending queue keeps at most one search message
// per root (the lowest hop count seen), with the current leader's message
// kept at the front; once the pending queue drains, the service keeps
// re-advertising its best known distance per root, cycling round-robin —
// so a node that lost its parent re-learns a route from any live
// neighbor's retransmissions after a purge.
type treeService struct {
	self   amac.NodeID
	dist   map[amac.NodeID]int64
	parent map[amac.NodeID]amac.NodeID
	// roots is the sorted list of known roots, cycled by pop when the
	// pending queue is empty.
	roots    []amac.NodeID
	rootsCur int
	// queue preserves FIFO order except that the current leader's entry
	// is pinned to the front; it holds the not-yet-broadcast improvements
	// (one entry per root with pending propagation).
	queue []SearchMsg
}

func (s *treeService) init(self amac.NodeID) {
	s.self = self
	s.dist = map[amac.NodeID]int64{self: 0}
	s.parent = map[amac.NodeID]amac.NodeID{self: self}
	s.roots = []amac.NodeID{self}
	s.queue = []SearchMsg{{Root: self, Hops: 1, Sender: self}}
}

// distTo returns the best known distance to root, or -1 when unknown
// (the paper's infinity).
func (s *treeService) distTo(root amac.NodeID) int64 {
	d, ok := s.dist[root]
	if !ok {
		return -1
	}
	return d
}

// parentTo returns the parent toward root, or amac.NoID when unknown.
func (s *treeService) parentTo(root amac.NodeID) amac.NodeID {
	p, ok := s.parent[root]
	if !ok {
		return amac.NoID
	}
	return p
}

// receive processes <search, root, h> from sender; it reports whether the
// distance estimate improved (h < dist[root]).
func (s *treeService) receive(m SearchMsg, leader amac.NodeID) bool {
	cur, known := s.dist[m.Root]
	if known && m.Hops >= cur {
		return false
	}
	if !known {
		i := sort.Search(len(s.roots), func(k int) bool { return s.roots[k] >= m.Root })
		s.roots = append(s.roots, 0)
		copy(s.roots[i+1:], s.roots[i:])
		s.roots[i] = m.Root
	}
	s.dist[m.Root] = m.Hops
	s.parent[m.Root] = m.Sender
	s.updateQ(SearchMsg{Root: m.Root, Hops: m.Hops + 1, Sender: s.self}, leader)
	return true
}

// updateQ enqueues a search message, discards any queued message for the
// same root with a larger hop count, and pins the leader's message to the
// front (Algorithm 4's UpdateQ).
func (s *treeService) updateQ(m SearchMsg, leader amac.NodeID) {
	kept := s.queue[:0]
	for _, q := range s.queue {
		if q.Root == m.Root {
			if q.Hops <= m.Hops {
				// The queued message dominates; drop the new one.
				m = q
			}
			continue // the dominated copy is discarded
		}
		kept = append(kept, q)
	}
	s.queue = append(kept, m)
	s.prioritize(leader)
}

// prioritize moves the current leader's search message (if any) to the
// front; called on enqueue and when the leader estimate changes
// (Algorithm 4's OnLeaderChange).
func (s *treeService) prioritize(leader amac.NodeID) {
	for i, q := range s.queue {
		if q.Root == leader && i > 0 {
			m := s.queue[i]
			copy(s.queue[1:i+1], s.queue[:i])
			s.queue[0] = m
			return
		}
	}
}

// pop yields one message for the broadcast service: the next pending
// improvement when there is one, otherwise the sticky retransmission of
// the best known distance to the next root in the cycle. It reports
// false only before init.
func (s *treeService) pop() (SearchMsg, bool) {
	if len(s.queue) > 0 {
		m := s.queue[0]
		s.queue = s.queue[1:]
		return m, true
	}
	if len(s.roots) == 0 {
		return SearchMsg{}, false
	}
	if s.rootsCur >= len(s.roots) {
		s.rootsCur = 0
	}
	root := s.roots[s.rootsCur]
	s.rootsCur++
	return SearchMsg{Root: root, Hops: s.dist[root] + 1, Sender: s.self}, true
}
