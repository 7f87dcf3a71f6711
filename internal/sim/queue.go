package sim

import (
	"fmt"
	"math"
)

// maxEvents is the event budget of a run: a guard against runaway event
// loops far above any real replay.
const maxEvents = 10_000_000

// Event is one pending event: a caller-defined kind and argument (a
// module, VM or other index) due at Time. Records are 24 bytes and move
// through the heap by value.
type Event struct {
	Time float64
	seq  int64
	Kind uint8
	Arg  int32
}

// Queue is the discrete-event core shared by the Replayer and the
// testbed: a virtual clock over a binary min-heap of typed events. Events
// pop in (time, seq) order, where seq counts Schedule calls, so
// simultaneous events run FIFO and every trace is deterministic. Pushing
// and popping move records, never pointers, so a queue reused across
// runs allocates nothing once its heap has grown to the high-water mark.
//
// Events scheduled with zero delay skip the heap: they join a FIFO lane,
// and Next pops the lesser of the lane's head and the heap's top by
// (time, seq). The order is the heap-only order. A lane event is due at
// the clock's time when it is scheduled, the clock never runs backwards
// and seq only grows, so the lane is sorted by (time, seq) on its own,
// and the lesser of two sorted heads is the least pending event.
//
// The zero value is an empty queue at time 0.
//
// medcc:scratch
type Queue struct {
	heap []Event
	// lane holds the zero-delay events, FIFO from laneHead; every one
	// is due at the current time.
	lane      []Event
	laneHead  int
	seq       int64
	processed int64
	now       float64

	// badDelay is the first invalid delay passed to Schedule; once set,
	// the run is failed and Next reports it.
	badDelay float64
	bad      bool
}

// Reset empties the queue and rewinds the clock to 0, keeping the heap's
// and the lane's storage.
func (q *Queue) Reset() {
	q.heap = q.heap[:0]
	q.lane, q.laneHead = q.lane[:0], 0
	q.seq, q.processed, q.now = 0, 0, 0
	q.badDelay, q.bad = 0, false
}

// Now returns the current virtual time: the time of the last event Next
// returned.
func (q *Queue) Now() float64 { return q.now }

// Processed returns the number of events Next has handed out since the
// last Reset.
func (q *Queue) Processed() int64 { return q.processed }

// Schedule enqueues an event of the given kind and argument, due delay
// after Now. An invalid delay (negative, NaN or infinite) enqueues
// nothing and fails the run: the next call to Next returns the error.
func (q *Queue) Schedule(delay float64, kind uint8, arg int32) {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		if !q.bad {
			q.badDelay, q.bad = delay, true
		}
		return
	}
	q.seq++
	e := Event{Time: q.now + delay, seq: q.seq, Kind: kind, Arg: arg}
	if delay == 0 {
		q.pushLane(e)
		return
	}
	q.push(e)
}

// Next pops the earliest pending event and advances the clock to it. ok
// is false once the queue has drained. err is non-nil, and ok false, when
// the run has failed: a Schedule call got an invalid delay, the run
// exhausted its budget of 10 million events, or the clock would run
// backwards.
func (q *Queue) Next() (e Event, ok bool, err error) {
	if q.bad {
		return Event{}, false, fmt.Errorf("sim: invalid delay %v", q.badDelay)
	}
	laneLen := len(q.lane) - q.laneHead
	if len(q.heap) == 0 && laneLen == 0 {
		return Event{}, false, nil
	}
	if q.processed >= maxEvents {
		return Event{}, false, fmt.Errorf("sim: event budget %d exhausted at t=%v", int64(maxEvents), q.now)
	}
	if laneLen > 0 && (len(q.heap) == 0 || !eventLess(q.heap[0], q.lane[q.laneHead])) {
		e = q.popLane()
	} else {
		e = q.pop()
	}
	if e.Time < q.now {
		return Event{}, false, fmt.Errorf("sim: time went backwards: %v -> %v", q.now, e.Time)
	}
	q.now = e.Time
	q.processed++
	return e, true, nil
}

// pushLane appends e to the zero-delay lane. Once the popped prefix is
// at least half the slice, the pending events move down first, so a
// lane that never empties still holds at most twice its pending events.
func (q *Queue) pushLane(e Event) {
	if q.laneHead > 0 && 2*q.laneHead >= len(q.lane) {
		n := copy(q.lane, q.lane[q.laneHead:])
		q.lane, q.laneHead = q.lane[:n], 0
	}
	q.lane = append(q.lane, e)
}

// popLane removes and returns the lane's head.
func (q *Queue) popLane() Event {
	e := q.lane[q.laneHead]
	q.laneHead++
	return e
}

// push adds e to the heap and sifts it up.
func (q *Queue) push(e Event) {
	q.heap = append(q.heap, e)
	h := q.heap
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !eventLess(h[c], h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
}

// pop removes and returns the heap's minimum, sifting the last record
// down from the root.
func (q *Queue) pop() Event {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.heap = h[:last]
	h = q.heap
	p := 0
	for {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && eventLess(h[c+1], h[c]) {
			c++
		}
		if !eventLess(h[c], h[p]) {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	return top
}

// medcc:floateq-exact — (time, seq) ordering must be bit-exact; epsilon
// would reorder simultaneous events and change traces.
func eventLess(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}
