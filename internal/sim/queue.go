package sim

import "math/bits"

// eventQueue is the engine's pending-event queue: a bounded-horizon
// calendar queue over a dense value slab of events.
//
// The model makes the hot path independent of the queue's size.
// validatePlan admits only plans whose deliveries and ack land in
// (Now, Now+Fack], so at any instant every queued event lives within one
// Fack window of the clock — the queue is a bounded-horizon scheduler,
// which is exactly the regime where a calendar (timing-wheel) structure
// beats a heap: a ring of per-time buckets spanning the window, push =
// append to a bucket FIFO, pop = advance the clock cursor to the next
// nonempty bucket (found by a bitmap scan that skips 64 empty buckets
// per word, never past one turn of the ring) and take its head. No
// sifting, no O(log q) — a 36k-event backlog on expander:4096 costs the
// same per operation as an empty queue.
//
// The ring is sized to the smallest power of two above the scheduler's
// Fack, so it always covers the whole horizon and no event ever falls
// outside it; MaxFack bounds that size (2^21 buckets, 32 MiB of bucket
// headers at the limit). Its memory is allocated once per engine and
// reused by every later Reset with an equal or smaller horizon.
//
// The pop order is the model's event order: time, then deliveries before
// acks (the paper's synchronous scheduler delivers every co-timed message
// before any co-timed ack), then insertion order. One FIFO chain per
// (bucket, kind) yields exactly that: the cursor visits times in order,
// and within a time the deliver chain drains before the ack chain, each
// in insertion order. It is byte-identical to the quaternary heap this
// queue replaced, which survives as the oracle of queue_test.go; the
// execution-digest goldens of queuediff_test.go, recorded by that heap,
// the golden grid JSON, both committed replay artifacts and the schedule
// fingerprint tests pin it end to end.
//
// Events live in one []event indexed by int32, free slots chained through
// the intrusive next link. Push recycles a slot or appends (growing the
// slab amortizes to one allocation per doubling), pop returns the event
// by value and frees the slot immediately — the engine never holds a
// reference into the slab across algorithm callbacks, which may push and
// grow it.
type eventQueue struct {
	// slab is the dense event store; free heads the chain of recycled
	// slots threaded through event.next. count is the queue's size.
	slab  []event
	free  int32
	count int

	// The calendar ring: span buckets (a power of two, so time maps to a
	// bucket by mask) covering absolute times [cur, cur+span). cur is the
	// time of the last pop — no queued event is earlier. bits marks
	// nonempty buckets, one bit per bucket, so pop finds the next event
	// time with a word scan.
	span    int64
	mask    int64
	cur     int64
	buckets []bucket
	bits    []uint64
}

// bucket holds two intrusive FIFO chains of slab indices: chain 0 for
// deliveries, chain 1 for acks, matching the model's deliveries-first
// order within a time step.
type bucket struct {
	head [2]int32
	tail [2]int32
}

// nilEvent is the slab's nil index (chain terminators, empty free list).
const nilEvent int32 = -1

// emptyBucket is a bucket with both chains empty.
var emptyBucket = bucket{
	head: [2]int32{nilEvent, nilEvent},
	tail: [2]int32{nilEvent, nilEvent},
}

// init re-arms the queue for a scheduler horizon of fack: the ring spans
// the smallest power of two above fack, so every admissible event — at
// most fack past the cursor — has a bucket. The queue must be empty
// (Reset drains it first); the slab and free chain persist untouched.
//
// Every bucket of the backing array is empty except those marked in
// bits, which a run stopped early left behind, so re-arming resets just
// those: one pass over the bitmap, not over a ring of up to 2^21 buckets.
func (q *eventQueue) init(fack int64) {
	for wi, w := range q.bits {
		for ; w != 0; w &= w - 1 {
			q.buckets[wi<<6+bits.TrailingZeros64(w)] = emptyBucket
		}
		q.bits[wi] = 0
	}
	span := int64(1)
	for span <= fack {
		span <<= 1
	}
	q.span = span
	q.mask = span - 1
	q.cur = 0
	words := int((span + 63) >> 6)
	if int64(cap(q.buckets)) >= span {
		q.buckets = q.buckets[:span]
		q.bits = q.bits[:words]
	} else {
		q.buckets = make([]bucket, span)
		q.bits = make([]uint64, words)
		for i := range q.buckets {
			q.buckets[i] = emptyBucket
		}
	}
}

func (q *eventQueue) len() int { return q.count }

// push enqueues ev in a recycled slab slot, growing the slab when the free
// chain is empty.
func (q *eventQueue) push(ev event) {
	idx := q.free
	if idx != nilEvent {
		q.free = q.slab[idx].next
		q.slab[idx] = ev
	} else {
		q.slab = append(q.slab, ev)
		idx = int32(len(q.slab) - 1)
	}
	q.slab[idx].next = nilEvent
	q.link(idx, ev.time, ev.kind)
	q.count++
}

// pop removes and returns the minimum event by value, recycling its slab
// slot immediately (the message reference is cleared so pooled slots do
// not retain algorithm payloads). It panics on an empty queue (the
// engine's run loop checks len first).
func (q *eventQueue) pop() event {
	q.cur = q.nextBucketTime()
	idx := q.unlinkMin(q.cur)
	ev := q.slab[idx]
	q.slab[idx].msg = nil
	q.slab[idx].next = q.free
	q.free = idx
	q.count--
	ev.next = nilEvent
	return ev
}

// drain empties the queue in one pass over the slab, rebuilding the free
// chain over every slot and dropping all message references — bucket
// order is irrelevant to a recycling pass.
func (q *eventQueue) drain() {
	for i := range q.slab {
		q.slab[i].msg = nil
		q.slab[i].next = int32(i) - 1
	}
	q.free = int32(len(q.slab)) - 1
	q.count = 0
	// The ring's nonempty buckets are reset by init, which Reset calls
	// next.
}

// link appends slab index idx to the FIFO chain for (time t, kind) and
// marks the bucket nonempty.
func (q *eventQueue) link(idx int32, t int64, kind EventKind) {
	bi := t & q.mask
	b := &q.buckets[bi]
	k := 0
	if kind != EventDeliver {
		k = 1
	}
	if tail := b.tail[k]; tail != nilEvent {
		q.slab[tail].next = idx
	} else {
		b.head[k] = idx
	}
	b.tail[k] = idx
	q.bits[bi>>6] |= 1 << uint(bi&63)
}

// unlinkMin removes and returns the head of bucket t's deliver chain, or
// its ack chain when no deliveries remain — the model's within-time order.
func (q *eventQueue) unlinkMin(t int64) int32 {
	bi := t & q.mask
	b := &q.buckets[bi]
	k := 0
	if b.head[0] == nilEvent {
		k = 1
	}
	idx := b.head[k]
	b.head[k] = q.slab[idx].next
	if b.head[k] == nilEvent {
		b.tail[k] = nilEvent
		if b.head[1-k] == nilEvent {
			q.bits[bi>>6] &^= 1 << uint(bi&63)
		}
	}
	return idx
}

// nextBucketTime returns the absolute time of the earliest nonempty
// bucket at or after cur — a circular bitmap scan from the cursor's
// bucket, one word compare per 64 buckets. Must only be called on a
// nonempty queue.
func (q *eventQueue) nextBucketTime() int64 {
	start := q.cur & q.mask
	wi := int(start >> 6)
	if w := q.bits[wi] & (^uint64(0) << uint(start&63)); w != 0 {
		b := int64(wi<<6) + int64(bits.TrailingZeros64(w))
		return q.cur + ((b - start) & q.mask)
	}
	words := len(q.bits)
	for i := 1; i <= words; i++ {
		j := wi + i
		if j >= words {
			j -= words
		}
		if w := q.bits[j]; w != 0 {
			b := int64(j<<6) + int64(bits.TrailingZeros64(w))
			return q.cur + ((b - start) & q.mask)
		}
	}
	panic("sim: pop from an empty event queue")
}
