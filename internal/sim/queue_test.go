package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drain pops every event of q, calling fn on each, and returns the final
// clock and the run's error.
func drain(q *Queue, fn func(Event)) (float64, error) {
	for {
		e, ok, err := q.Next()
		if err != nil {
			return q.Now(), err
		}
		if !ok {
			return q.Now(), nil
		}
		fn(e)
	}
}

func TestSimulationOrdersEvents(t *testing.T) {
	var q Queue
	q.Schedule(3, 0, 3)
	q.Schedule(1, 0, 1)
	q.Schedule(2, 0, 2)
	var order []int32
	end, err := drain(&q, func(e Event) { order = append(order, e.Arg) })
	if err != nil {
		t.Fatal(err)
	}
	if end != 3 {
		t.Fatalf("end time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSimulationFIFOAmongSimultaneous(t *testing.T) {
	var q Queue
	for i := int32(0); i < 5; i++ {
		q.Schedule(1, uint8(i), i)
	}
	var order []int32
	if _, err := drain(&q, func(e Event) {
		if int32(e.Kind) != e.Arg {
			t.Fatalf("event kind %d carries arg %d", e.Kind, e.Arg)
		}
		order = append(order, e.Arg)
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != int32(i) {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestSimulationNestedScheduling(t *testing.T) {
	var q Queue
	var hits []float64
	q.Schedule(1, 0, 0)
	end, err := drain(&q, func(e Event) {
		hits = append(hits, q.Now())
		if e.Arg == 0 {
			q.Schedule(1.5, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != 2.5 || len(hits) != 2 || hits[1] != 2.5 {
		t.Fatalf("end=%v hits=%v", end, hits)
	}
}

func TestSimulationRejectsBadDelay(t *testing.T) {
	var q Queue
	for _, d := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		q.Reset()
		q.Schedule(1, 0, 0)
		q.Schedule(d, 0, 1)
		q.Schedule(2, 0, 2)
		n := 0
		if _, err := drain(&q, func(Event) { n++ }); err == nil {
			t.Errorf("delay %v accepted", d)
		}
		if n != 0 {
			t.Errorf("delay %v: %d events ran after the run failed", d, n)
		}
	}
	// Reset clears the failure.
	q.Reset()
	q.Schedule(0, 0, 0)
	if _, err := drain(&q, func(Event) {}); err != nil || q.Processed() != 1 {
		t.Fatalf("after Reset: processed %d, err %v", q.Processed(), err)
	}
}

func TestSimulationEventBudget(t *testing.T) {
	var q Queue
	q.Schedule(0, 0, 0)
	if _, err := drain(&q, func(Event) { q.Schedule(1, 0, 0) }); err == nil {
		t.Fatal("runaway loop not caught")
	}
	if q.Processed() != maxEvents {
		t.Fatalf("processed = %d", q.Processed())
	}
}

func TestSimulationEmptyRun(t *testing.T) {
	var q Queue
	end, err := drain(&q, func(Event) { t.Fatal("event from an empty queue") })
	if err != nil || end != 0 {
		t.Fatalf("empty run: %v, %v", end, err)
	}
}

// refQueue is the single-heap queue: every event, whatever its delay,
// goes through the binary heap. TestQueueLaneMatchesHeap and
// FuzzQueueLane hold Queue, whose zero-delay events take the lane, to
// it.
type refQueue struct {
	heap      []Event
	seq       int64
	processed int64
	now       float64
	badDelay  float64
	bad       bool
}

func (q *refQueue) Schedule(delay float64, kind uint8, arg int32) {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		if !q.bad {
			q.badDelay, q.bad = delay, true
		}
		return
	}
	q.seq++
	q.push(Event{Time: q.now + delay, seq: q.seq, Kind: kind, Arg: arg})
}

func (q *refQueue) Next() (e Event, ok bool, err error) {
	if q.bad {
		return Event{}, false, fmt.Errorf("sim: invalid delay %v", q.badDelay)
	}
	if len(q.heap) == 0 {
		return Event{}, false, nil
	}
	if q.processed >= maxEvents {
		return Event{}, false, fmt.Errorf("sim: event budget %d exhausted at t=%v", int64(maxEvents), q.now)
	}
	e = q.pop()
	if e.Time < q.now {
		return Event{}, false, fmt.Errorf("sim: time went backwards: %v -> %v", q.now, e.Time)
	}
	q.now = e.Time
	q.processed++
	return e, true, nil
}

func (q *refQueue) push(e Event) {
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

func (q *refQueue) pop() Event {
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

// queueOp is one step of a queue program: a Next call, or a Schedule
// call with the given delay, kind and argument.
type queueOp struct {
	next  bool
	delay float64
	kind  uint8
	arg   int32
}

// laneDelays are the delay classes queue programs draw from: zero and
// negative zero (the lane), small integers (collisions with heap events
// already pending at the same time, from smaller seqs), delays a large
// clock absorbs (now + d == now, so a heap event is due now), a large
// jump that makes such clocks, and the invalid delays.
var laneDelays = [...]float64{
	0, math.Copysign(0, -1), 1, 2, 3, 0.5, 5e-324, 1e-300, 1e17,
	-1, math.NaN(), math.Inf(1),
}

// checkQueueProgram runs ops on a Queue and a refQueue side by side and
// fails on the first Next whose event (Float64bits of the time, kind,
// argument), ok flag or error differs, or whose Processed count or
// clock differs afterwards. After the program both queues are drained
// the same way.
func checkQueueProgram(t *testing.T, ops []queueOp) {
	t.Helper()
	var q Queue
	var ref refQueue
	next := func(step int) bool {
		e, ok, err := q.Next()
		we, wok, werr := ref.Next()
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("step %d: Next error %v, heap-only queue %v", step, err, werr)
		}
		if ok != wok || math.Float64bits(e.Time) != math.Float64bits(we.Time) || e.Kind != we.Kind || e.Arg != we.Arg {
			t.Fatalf("step %d: Next = (t=%v kind=%d arg=%d ok=%v), heap-only queue (t=%v kind=%d arg=%d ok=%v)",
				step, e.Time, e.Kind, e.Arg, ok, we.Time, we.Kind, we.Arg, wok)
		}
		if q.Processed() != ref.processed || math.Float64bits(q.Now()) != math.Float64bits(ref.now) {
			t.Fatalf("step %d: processed %d at t=%v, heap-only queue %d at t=%v",
				step, q.Processed(), q.Now(), ref.processed, ref.now)
		}
		return ok
	}
	for step, op := range ops {
		if op.next {
			next(step)
			continue
		}
		q.Schedule(op.delay, op.kind, op.arg)
		ref.Schedule(op.delay, op.kind, op.arg)
	}
	for step := len(ops); next(step); step++ {
	}
}

// randomQueueProgram draws n ops: Next about a third of the time, and
// otherwise Schedule with a delay from laneDelays (invalid ones rarely)
// or a random one.
func randomQueueProgram(rng *rand.Rand, n int) []queueOp {
	ops := make([]queueOp, n)
	for i := range ops {
		op := &ops[i]
		op.kind, op.arg = uint8(rng.Intn(4)), int32(i)
		switch r := rng.Intn(60); {
		case r < 20:
			op.next = true
		case r < 30:
			op.delay = rng.Float64() * 4
		case r < 31:
			op.delay = laneDelays[len(laneDelays)-3+rng.Intn(3)]
		default:
			op.delay = laneDelays[rng.Intn(len(laneDelays)-3)]
		}
	}
	return ops
}

// TestQueueLaneMatchesHeap holds the zero-delay lane to the single-heap
// queue it replaced: random programs of Schedule and Next calls must pop
// the same events in the same order, count the same processed events
// and fail with the same errors, including the invalid-delay and
// event-budget ones.
func TestQueueLaneMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for k := 0; k < 2000; k++ {
		checkQueueProgram(t, randomQueueProgram(rng, 1+rng.Intn(200)))
	}

	// Runaway loops exhaust the event budget: one that only schedules
	// zero delays and one that alternates zero and positive ones. Each
	// Next schedules one follow-up, so the pending count stays at the
	// seeded 3 while the budget drains. The race detector has nothing to
	// find in these 40 million single-goroutine calls, only time to add.
	if testing.Short() || raceEnabled {
		return
	}
	for _, delays := range [][]float64{{0}, {0, 1}} {
		var q Queue
		var ref refQueue
		for i := int32(0); i < 3; i++ {
			q.Schedule(delays[0], 0, i)
			ref.Schedule(delays[0], 0, i)
		}
		var err, werr error
		for i := 0; ; i++ {
			var ok, wok bool
			var e, we Event
			e, ok, err = q.Next()
			we, wok, werr = ref.Next()
			if ok != wok || e.Arg != we.Arg || math.Float64bits(e.Time) != math.Float64bits(we.Time) {
				t.Fatalf("delays %v: event %d = (%v, %d, %v), heap-only queue (%v, %d, %v)",
					delays, i, e.Time, e.Arg, ok, we.Time, we.Arg, wok)
			}
			if !ok {
				break
			}
			d := delays[i%len(delays)]
			q.Schedule(d, 0, e.Arg)
			ref.Schedule(d, 0, we.Arg)
		}
		if err == nil || werr == nil || err.Error() != werr.Error() || q.Processed() != ref.processed {
			t.Fatalf("delays %v: %v after %d events, heap-only queue %v after %d",
				delays, err, q.Processed(), werr, ref.processed)
		}
		if len(q.lane) > 8 {
			t.Errorf("delays %v: lane storage grew to %d for 3 pending events", delays, len(q.lane))
		}
	}
}

// FuzzQueueLane decodes arbitrary bytes into a queue program, two bytes
// per op, and checks it against the single-heap queue. The first byte's
// low five bits pick the op: a quarter of the values call Next, twelve
// pick a delay class of laneDelays, and the rest schedule a delay of the
// second byte in sixteenths. Its top three bits are the kind, and the
// second byte is the argument.
func FuzzQueueLane(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 8, 1, 0, 0, 0, 0})
	f.Add([]byte{10, 9, 8, 3, 9, 2, 20, 7, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{16, 0, 10, 1, 12, 2, 0, 0, 14, 3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]queueOp, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			b, c := data[i], data[i+1]
			op := queueOp{kind: b >> 5, arg: int32(c)}
			switch sel := int(b & 31); {
			case sel < 8:
				op.next = true
			case sel < 8+len(laneDelays):
				op.delay = laneDelays[sel-8]
			default:
				op.delay = float64(c) / 16
			}
			ops = append(ops, op)
		}
		checkQueueProgram(t, ops)
	})
}
