package sim

import (
	"math"
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
