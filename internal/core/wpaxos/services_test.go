package wpaxos

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/absmac/absmac/internal/amac"
)

func TestProposalNumOrdering(t *testing.T) {
	cases := []struct {
		a, b ProposalNum
		less bool
	}{
		{ProposalNum{1, 1}, ProposalNum{2, 1}, true},
		{ProposalNum{2, 1}, ProposalNum{1, 9}, false},
		{ProposalNum{1, 1}, ProposalNum{1, 2}, true},
		{ProposalNum{1, 2}, ProposalNum{1, 2}, false},
		{ProposalNum{}, ProposalNum{1, 1}, true},
	}
	for _, tc := range cases {
		if got := tc.a.Less(tc.b); got != tc.less {
			t.Errorf("%v < %v = %v, want %v", tc.a, tc.b, got, tc.less)
		}
	}
	if m := (ProposalNum{1, 3}).Max(ProposalNum{1, 5}); m != (ProposalNum{1, 5}) {
		t.Errorf("Max = %v", m)
	}
	if !(ProposalNum{}).IsZero() || (ProposalNum{1, 0}).IsZero() {
		t.Error("IsZero misbehaves")
	}
}

func TestMaxPrev(t *testing.T) {
	a := &Proposal{Num: ProposalNum{1, 1}, Val: 0}
	b := &Proposal{Num: ProposalNum{2, 1}, Val: 1}
	if maxPrev(nil, nil) != nil {
		t.Error("maxPrev(nil,nil) != nil")
	}
	if maxPrev(a, nil) != a || maxPrev(nil, b) != b {
		t.Error("maxPrev with one nil")
	}
	if maxPrev(a, b) != b || maxPrev(b, a) != b {
		t.Error("maxPrev picks wrong proposal")
	}
}

func TestChangeService(t *testing.T) {
	var s ChangeService
	if _, ok := s.Current(); ok {
		t.Fatal("fresh change service has queued message")
	}
	// Before any change, every timestamp is fresh — time 0 included.
	var fresh ChangeService
	if !fresh.Receive(ChangeMsg{T: 0, ID: 2}) {
		t.Fatal("first change at time 0 rejected")
	}
	s.OnChange(10, 4)
	if m, ok := s.Current(); !ok || m.T != 10 || m.ID != 4 {
		t.Fatalf("queued %v", m)
	}
	// Current is sticky: the newest change stays queued until superseded.
	if m, ok := s.Current(); !ok || m.T != 10 {
		t.Fatalf("sticky current %v", m)
	}
	for _, tc := range []struct {
		m     ChangeMsg
		fresh bool
	}{
		{ChangeMsg{T: 9, ID: 1}, false},  // stale timestamp
		{ChangeMsg{T: 10, ID: 1}, false}, // equal timestamp
		{ChangeMsg{T: 11, ID: 1}, true},
		{ChangeMsg{T: 11, ID: 7}, false}, // a duplicate of the new change
	} {
		if got := s.Receive(tc.m); got != tc.fresh {
			t.Fatalf("Receive(%+v) = %v, want %v", tc.m, got, tc.fresh)
		}
	}
	if m, _ := s.Current(); m != (ChangeMsg{T: 11, ID: 1}) {
		t.Fatalf("queued %+v after the fresh change", m)
	}
}

func TestTreeServiceBasics(t *testing.T) {
	var s treeService
	s.init(1)
	if s.distTo(1) != 0 || s.parentTo(1) != 1 {
		t.Fatal("self root not initialized")
	}
	if s.distTo(99) != -1 || s.parentTo(99) != amac.NoID {
		t.Fatal("unknown root should be infinite")
	}
	// Adopt a search for root 7 at 3 hops.
	if !s.receive(SearchMsg{Root: 7, Hops: 3, Sender: 4}, 7) {
		t.Fatal("fresh search rejected")
	}
	if s.distTo(7) != 3 || s.parentTo(7) != 4 {
		t.Fatalf("dist=%d parent=%d", s.distTo(7), s.parentTo(7))
	}
	// Worse estimate rejected, better adopted.
	if s.receive(SearchMsg{Root: 7, Hops: 5, Sender: 9}, 7) {
		t.Fatal("worse search accepted")
	}
	if !s.receive(SearchMsg{Root: 7, Hops: 1, Sender: 2}, 7) {
		t.Fatal("better search rejected")
	}
	if s.distTo(7) != 1 || s.parentTo(7) != 2 {
		t.Fatalf("after improvement: dist=%d parent=%d", s.distTo(7), s.parentTo(7))
	}
	// A search about the node itself never improves dist 0.
	if s.receive(SearchMsg{Root: 1, Hops: 2, Sender: 3}, 7) {
		t.Fatal("self-root search accepted")
	}
}

func TestTreeQueueReplacesDominated(t *testing.T) {
	var s treeService
	s.init(1)
	s.pop() // drain own search
	s.receive(SearchMsg{Root: 7, Hops: 3, Sender: 4}, 0)
	s.receive(SearchMsg{Root: 7, Hops: 1, Sender: 2}, 0)
	// Only one pending message for root 7 remains, the improved relay
	// (hops 2).
	m, ok := s.pop()
	if !ok || m.Root != 7 || m.Hops != 2 {
		t.Fatalf("queued message %+v, want root 7 hops 2", m)
	}
	// With the pending queue drained, pop turns sticky: it re-advertises
	// the best known distance per root, cycling (roots sorted: 1, 7).
	if m, ok = s.pop(); !ok || m.Root != 1 || m.Hops != 1 {
		t.Fatalf("sticky pop %+v, want root 1 hops 1", m)
	}
	if m, ok = s.pop(); !ok || m.Root != 7 || m.Hops != 2 {
		t.Fatalf("sticky pop %+v, want root 7 hops 2", m)
	}
	if m, ok = s.pop(); !ok || m.Root != 1 {
		t.Fatalf("sticky cycle %+v, want wrap to root 1", m)
	}
}

func TestTreeQueueLeaderPriority(t *testing.T) {
	var s treeService
	s.init(1)
	s.pop()
	s.receive(SearchMsg{Root: 5, Hops: 2, Sender: 4}, 9)
	s.receive(SearchMsg{Root: 6, Hops: 2, Sender: 4}, 9)
	s.receive(SearchMsg{Root: 9, Hops: 2, Sender: 4}, 9) // the leader's
	// The leader's message must pop first despite arriving last.
	if m, ok := s.pop(); !ok || m.Root != 9 {
		t.Fatalf("first pop %+v, want leader root 9", m)
	}
	// FIFO order among the rest.
	if m, ok := s.pop(); !ok || m.Root != 5 {
		t.Fatalf("second pop %+v, want root 5", m)
	}
	if m, ok := s.pop(); !ok || m.Root != 6 {
		t.Fatalf("third pop %+v, want root 6", m)
	}
}

func TestTreeQueueReprioritizeOnLeaderChange(t *testing.T) {
	var s treeService
	s.init(1)
	s.pop()
	s.receive(SearchMsg{Root: 5, Hops: 2, Sender: 4}, 5)
	s.receive(SearchMsg{Root: 8, Hops: 2, Sender: 4}, 5)
	s.prioritize(8) // leader changed to 8
	if m, ok := s.pop(); !ok || m.Root != 8 {
		t.Fatalf("pop %+v, want new leader root 8", m)
	}
}

func TestAcceptorPrepare(t *testing.T) {
	var a Acceptor
	prepare := func(num ProposalNum) ProposerMsg { return ProposerMsg{Kind: Prepare, Num: num} }
	for _, tc := range []struct {
		name      string
		num       ProposalNum
		positive  bool
		committed ProposalNum
	}{
		{"first prepare", ProposalNum{1, 3}, true, ProposalNum{}},
		// A smaller prepare is rejected with the committed number.
		{"smaller prepare", ProposalNum{1, 2}, false, ProposalNum{1, 3}},
		// Re-sending the same number is also rejected (not strictly larger).
		{"equal prepare", ProposalNum{1, 3}, false, ProposalNum{1, 3}},
		{"larger prepare", ProposalNum{2, 1}, true, ProposalNum{}},
	} {
		pos, prev, committed := a.Respond(prepare(tc.num))
		if pos != tc.positive || prev != nil || committed != tc.committed {
			t.Fatalf("%s: %v %v %v", tc.name, pos, prev, committed)
		}
	}
	if st := a.State(5); st.Origin != 5 || st.Promised != (ProposalNum{2, 1}) || st.Accepted != nil {
		t.Fatalf("state %+v", st)
	}
}

func TestAcceptorProposeAndPrev(t *testing.T) {
	var a Acceptor
	a.Respond(ProposerMsg{Kind: Prepare, Num: ProposalNum{1, 3}})
	pos, _, committed := a.Respond(ProposerMsg{Kind: Propose, Num: ProposalNum{1, 3}, Val: 1})
	if !pos || !committed.IsZero() {
		t.Fatalf("propose at promised number: %v %v", pos, committed)
	}
	// A later prepare reports the accepted proposal.
	pos, prev, _ := a.Respond(ProposerMsg{Kind: Prepare, Num: ProposalNum{2, 2}})
	if !pos || prev == nil || prev.Num != (ProposalNum{1, 3}) || prev.Val != 1 {
		t.Fatalf("prepare after accept: %v %+v", pos, prev)
	}
	// A propose below the promise is rejected.
	pos, _, committed = a.Respond(ProposerMsg{Kind: Propose, Num: ProposalNum{1, 9}, Val: 0})
	if pos || committed != (ProposalNum{2, 2}) {
		t.Fatalf("stale propose: %v %v", pos, committed)
	}
}

func TestChosenWatch(t *testing.T) {
	num := ProposalNum{2, 7}
	// A step learns the value (acceptor 0), records an acceptance without
	// it, or (carry) an acceptance carrying it.
	type step struct {
		acceptor amac.NodeID
		carry    bool
		chosen   bool
	}
	for _, tc := range []struct {
		name  string
		n     int
		steps []step
	}{
		// The flooding variant can count a majority of accepts before it
		// sees the propose: it decides when the value arrives, not before.
		{"majority before value", 5, []step{{1, false, false}, {2, false, false}, {3, false, false}, {0, false, true}}},
		{"value first", 3, []step{{0, false, false}, {1, false, false}, {2, false, true}, {3, false, true}}},
		// Exactly half is not a majority.
		{"no decide at n/2", 4, []step{{0, false, false}, {1, false, false}, {2, false, false}, {3, false, true}}},
		// A repeated acceptor neither counts nor reports.
		{"repeated acceptor", 3, []step{{0, false, false}, {1, false, false}, {1, false, false}, {2, false, true}, {2, false, false}}},
		{"acceptances carry the value", 3, []step{{1, true, false}, {1, true, false}, {2, true, true}}},
	} {
		w := NewChosenWatch(tc.n)
		// Accepts of another number never count toward num.
		w.AcceptProposal(Proposal{Num: ProposalNum{1, 7}, Val: 1}, 9)
		for i, st := range tc.steps {
			var v amac.Value
			var chosen bool
			switch {
			case st.acceptor == 0:
				v, chosen = w.Learn(num, 1)
			case st.carry:
				v, chosen = w.AcceptProposal(Proposal{Num: num, Val: 1}, st.acceptor)
			default:
				v, chosen = w.Accept(num, st.acceptor)
			}
			if chosen != st.chosen || (chosen && v != 1) {
				t.Fatalf("%s: step %d reported (%d, %v), want chosen=%v", tc.name, i, v, chosen, st.chosen)
			}
		}
	}
}

func TestPropQueue(t *testing.T) {
	prep := func(tag int64) ProposerMsg { return ProposerMsg{Kind: Prepare, Num: ProposalNum{tag, 1}} }
	prop := func(tag int64) ProposerMsg { return ProposerMsg{Kind: Propose, Num: ProposalNum{tag, 1}, Val: 1} }
	var q PropQueue
	if _, ok, _ := q.Next(); ok {
		t.Fatal("empty queue yields a proposition")
	}
	for _, tc := range []struct {
		name       string
		offer      ProposerMsg
		want       ProposerMsg
		retransmit bool // whether the send after the offer is a retransmission
	}{
		{"first proposition", prep(2), prep(2), false},
		{"older number ignored", prop(1), prep(2), true},
		{"equal prepare ignored", prep(2), prep(2), true},
		{"propose replaces prepare of same number", prop(2), prop(2), false},
		{"prepare never replaces propose of same number", prep(2), prop(2), true},
		{"equal propose ignored", prop(2), prop(2), true},
		{"larger number replaces", prep(3), prep(3), false},
	} {
		q.Offer(tc.offer)
		m, ok, again := q.Next()
		if !ok || m != tc.want || again != tc.retransmit {
			t.Fatalf("%s: Next = %+v, %v, retransmit %v; want %+v, retransmit %v", tc.name, m, ok, again, tc.want, tc.retransmit)
		}
	}
	// Replace takes the slot whatever is queued, as a first send.
	q.Replace(prop(1))
	if m, _, again := q.Next(); m != prop(1) || again {
		t.Fatalf("after Replace: %+v retransmit %v", m, again)
	}
}

func TestProposer(t *testing.T) {
	const self, other amac.NodeID = 4, 9
	prepare := func(tag int64) ProposerMsg { return ProposerMsg{Kind: Prepare, Num: ProposalNum{tag, self}} }
	for _, tc := range []struct {
		name    string
		omega   amac.NodeID
		retries int   // Retry calls after Generate
		started []int // tags of the numbers Retry starts
	}{
		// Two numbers per change notification: Generate uses one, a
		// single retry the other, and the next retry goes idle.
		{"budget", self, 2, []int{2}},
		{"not leader", other, 1, nil},
	} {
		var p Proposer
		if m := p.Generate(self); m != prepare(1) || !p.Awaits(m.Proposition()) {
			t.Fatalf("%s: Generate = %+v", tc.name, m)
		}
		var started []int
		for i := 0; i < tc.retries; i++ {
			if m, ok := p.Retry(self, tc.omega); ok {
				started = append(started, int(m.Num.Tag))
				if !p.Awaits(m.Proposition()) {
					t.Fatalf("%s: retry %d does not await its prepare", tc.name, i)
				}
			}
		}
		if fmt.Sprint(started) != fmt.Sprint(tc.started) {
			t.Fatalf("%s: retries started tags %v, want %v", tc.name, started, tc.started)
		}
		// The proposer ended idle: nothing counts, and it is numbered zero.
		if p.Awaits(prepare(1).Proposition()) || p.Awaits(prepare(2).Proposition()) || !p.num.IsZero() {
			t.Fatalf("%s: proposer not idle: %+v", tc.name, p)
		}
		// A change notification hands out a fresh budget.
		if m := p.Generate(self); m.Num.Tag != int64(len(tc.started)+2) {
			t.Fatalf("%s: Generate after idle = %+v", tc.name, m)
		}
	}

	// Tags seen anywhere out-number the next proposal; the propose phase
	// adopts the highest previous proposal's value, else the input.
	var p Proposer
	p.SeeTag(7)
	p.SeeTag(3)
	m := p.Generate(self)
	if m != prepare(8) || p.MaxTagUsed() != 8 {
		t.Fatalf("Generate after SeeTag = %+v, MaxTagUsed %d", m, p.MaxTagUsed())
	}
	if got := p.BeginPropose(0); got != (ProposerMsg{Kind: Propose, Num: m.Num, Val: 0}) || p.Value() != 0 {
		t.Fatalf("propose without prev = %+v", got)
	}
	p.Generate(self)
	p.NotePrev(&Proposal{Num: ProposalNum{2, 1}, Val: 1})
	p.NotePrev(&Proposal{Num: ProposalNum{1, 5}, Val: 0})
	p.NotePrev(nil)
	if got := p.BeginPropose(0); got.Val != 1 || !p.Awaits(got.Proposition()) || p.Awaits(prepare(9).Proposition()) {
		t.Fatalf("propose with prev = %+v", got)
	}
}

func TestCountAudit(t *testing.T) {
	a := NewCountAudit()
	p := Proposition{Kind: Prepare, Num: ProposalNum{1, 2}}
	a.addGenerated(p)
	a.addGenerated(p)
	a.addCounted(p, 2)
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("balanced audit flagged: %v", v)
	}
	a.addCounted(p, 1)
	if v := a.Violations(); len(v) != 1 || v[0] != p {
		t.Fatalf("overcount not flagged: %v", v)
	}
	if a.Propositions() != 1 {
		t.Fatalf("propositions = %d", a.Propositions())
	}
	// A nil audit is a no-op everywhere.
	var nilAudit *CountAudit
	nilAudit.addGenerated(p)
	nilAudit.addCounted(p, 1)
}

func TestCombinedIDCount(t *testing.T) {
	var c Combined
	if c.IDCount() != 0 {
		t.Fatalf("empty combined counts %d ids", c.IDCount())
	}
	full := Combined{
		Leader:   &LeaderMsg{ID: 1},
		Change:   &ChangeMsg{T: 1, ID: 2},
		Search:   &SearchMsg{Root: 3, Hops: 1, Sender: 4},
		Proposer: &ProposerMsg{Kind: Prepare, Num: ProposalNum{1, 5}},
		Response: &ResponseMsg{
			Dest: 6, Prop: Proposition{Kind: Prepare, Num: ProposalNum{1, 5}},
			Prev:      &Proposal{Num: ProposalNum{1, 2}, Val: 1},
			Committed: ProposalNum{2, 2},
		},
		State: &StateMsg{
			Origin:   7,
			Promised: ProposalNum{1, 5},
			Accepted: &Proposal{Num: ProposalNum{1, 2}, Val: 1},
		},
		Decide: &DecideMsg{Val: 1},
	}
	if got := full.IDCount(); got != amac.MaxMessageIDs {
		t.Fatalf("full combined counts %d ids, want the documented max %d", got, amac.MaxMessageIDs)
	}
}

func TestKindStrings(t *testing.T) {
	if Prepare.String() != "prepare" || Propose.String() != "propose" {
		t.Fatal("PropKind strings")
	}
	if PropKind(9).String() != "PropKind(9)" {
		t.Fatal("unknown PropKind string")
	}
	p := Proposition{Kind: Propose, Num: ProposalNum{3, 4}}
	if p.String() != "propose(3,4)" {
		t.Fatalf("proposition string %q", p.String())
	}
}

func TestProposalNumTotalOrderProperty(t *testing.T) {
	// Less must be a strict total order: irreflexive, antisymmetric,
	// transitive, and total; Max must pick the Less-larger operand.
	gen := func(a, b int8, c, d int16) (ProposalNum, ProposalNum) {
		return ProposalNum{Tag: int64(a), ID: amac.NodeID(c)},
			ProposalNum{Tag: int64(b), ID: amac.NodeID(d)}
	}
	f := func(a, b int8, c, d int16) bool {
		p, q := gen(a, b, c, d)
		if p.Less(p) || q.Less(q) {
			return false
		}
		if p == q {
			return !p.Less(q) && !q.Less(p)
		}
		if p.Less(q) == q.Less(p) {
			return false // exactly one must hold for distinct values
		}
		m := p.Max(q)
		if p.Less(q) {
			return m == q
		}
		return m == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestProposalNumTransitivityProperty(t *testing.T) {
	f := func(t1, t2, t3 int8, i1, i2, i3 int16) bool {
		a := ProposalNum{Tag: int64(t1), ID: amac.NodeID(i1)}
		b := ProposalNum{Tag: int64(t2), ID: amac.NodeID(i2)}
		c := ProposalNum{Tag: int64(t3), ID: amac.NodeID(i3)}
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
