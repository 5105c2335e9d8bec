package sim

import (
	"math/rand"
	"testing"
)

// refHeap is the pre-calendar event queue, kept as the calendar ring's
// oracle: a quaternary min-heap of slab indices in the model's event
// order — time, then deliveries before acks, then insertion sequence,
// which the heap stamps itself. Its slab only grows; reset empties it.
type refHeap struct {
	slab  []refEvent
	heap  []int32
	nexts int64
}

// refEvent is a queued event plus the heap's insertion stamp.
type refEvent struct {
	event
	seq int64
}

func (q *refHeap) len() int { return len(q.heap) }

func (q *refHeap) reset() {
	q.slab = q.slab[:0]
	q.heap = q.heap[:0]
	q.nexts = 0
}

func (q *refHeap) push(ev event) {
	q.slab = append(q.slab, refEvent{event: ev, seq: q.nexts})
	q.nexts++
	q.heapPush(int32(len(q.slab) - 1))
}

func (q *refHeap) pop() event { return q.slab[q.heapPop()].event }

// less is the model's event order: time, then deliveries before acks (the
// paper's synchronous scheduler delivers every co-timed message before any
// co-timed ack), then deterministically by insertion sequence.
func (q *refHeap) less(a, b int32) bool {
	ea, eb := &q.slab[a], &q.slab[b]
	if ea.time != eb.time {
		return ea.time < eb.time
	}
	if ea.kind != eb.kind {
		return ea.kind == EventDeliver
	}
	return ea.seq < eb.seq
}

func (q *refHeap) heapPush(idx int32) {
	q.heap = append(q.heap, idx)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(q.heap[i], q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *refHeap) heapPop() int32 {
	top := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return top
}

func (q *refHeap) siftDown(i int) {
	n := len(q.heap)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(q.heap[c], q.heap[min]) {
				min = c
			}
		}
		if !q.less(q.heap[min], q.heap[i]) {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}

// TestQueueMatchesReferenceHeap drives the calendar queue and the
// reference heap side by side over randomized runs: each run re-inits the
// queue (after a drain, possibly of leftover events) for a random Fack
// from 1 to 10^5, then interleaves pops with bursts of pushes. Every push
// lands in (cur, cur+Fack], cur being the last popped time — the model's
// horizon — and bursts pile many deliveries and acks onto the same
// instant, so both tie-break rules (deliveries first, then insertion
// order) are exercised at every bound. Every pop must return the heap's
// event.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCA1E))
	facks := []int64{1, 2, 3, 4, 7, 8, 63, 64, 65, 4095, 4096, 5000, 65536, 100000}
	runs := 120
	if testing.Short() {
		runs = 30
	}
	var q eventQueue
	var ref refHeap
	id := 0
	for run := 0; run < runs; run++ {
		fack := facks[run%len(facks)]
		if run%3 == 2 {
			fack = 1 + rng.Int63n(100000)
		}
		q.drain()
		q.init(fack)
		ref.reset()
		cur := int64(0)
		pop := func(op int) {
			got, want := q.pop(), ref.pop()
			if got.time != want.time || got.kind != want.kind || got.node != want.node {
				t.Fatalf("run %d (Fack %d) op %d: queue popped t=%d %v #%d, reference heap t=%d %v #%d",
					run, fack, op, got.time, got.kind, got.node, want.time, want.kind, want.node)
			}
			cur = got.time
		}
		ops := 50 + rng.Intn(1500)
		for op := 0; op < ops; op++ {
			if q.len() != ref.len() {
				t.Fatalf("run %d (Fack %d) op %d: queue holds %d events, reference heap %d", run, fack, op, q.len(), ref.len())
			}
			if q.len() > 0 && rng.Intn(3) == 0 {
				pop(op)
				continue
			}
			// Near offsets collide constantly; the far edge of the
			// horizon and uniform offsets spread events over the ring.
			var at int64
			switch rng.Intn(4) {
			case 0:
				at = cur + fack
			case 1:
				at = cur + 1 + rng.Int63n(fack)
			default:
				at = cur + 1 + rng.Int63n(min(fack, 3))
			}
			for b := 1 + rng.Intn(8); b > 0; b-- {
				ev := event{time: at, kind: EventDeliver, node: id}
				if rng.Intn(3) == 0 {
					ev.kind = EventAck
				}
				id++
				q.push(ev)
				ref.push(ev)
			}
		}
		// Half the runs pop to empty; the rest leave events queued for
		// the next run's drain and re-init to discard.
		if run%2 == 0 {
			for op := ops; q.len() > 0; op++ {
				pop(op)
			}
			if ref.len() != 0 {
				t.Fatalf("run %d (Fack %d): queue empty, reference heap holds %d events", run, fack, ref.len())
			}
		}
	}
}
