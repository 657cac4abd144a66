package vclock

import (
	"testing"

	"advnet/internal/mathx"
)

func TestQueueOrdersByTimeThenInsertion(t *testing.T) {
	var q Queue
	q.Schedule(Event{At: 2, Seq: 1})
	q.Schedule(Event{At: 1, Seq: 2})
	q.Schedule(Event{At: 1, Seq: 3}) // same instant, scheduled later
	q.Schedule(Event{At: 0.5, Seq: 4})

	want := []int64{4, 2, 3, 1}
	for i, w := range want {
		ev, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d: queue empty", i)
		}
		if ev.Seq != w {
			t.Fatalf("pop %d: got seq %d, want %d", i, ev.Seq, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

func TestQueueMatchesReferenceOrdering(t *testing.T) {
	// Random schedule/pop interleavings drain in the exact (At, id) order a
	// straight sort would produce.
	rng := mathx.NewRNG(11)
	var q Queue
	type ref struct {
		at float64
		id int
	}
	var pending []ref
	next := 0
	popMin := func() ref {
		mi := 0
		for i, r := range pending {
			if r.at < pending[mi].at || (r.at == pending[mi].at && r.id < pending[mi].id) {
				mi = i
			}
		}
		r := pending[mi]
		pending = append(pending[:mi], pending[mi+1:]...)
		return r
	}
	for step := 0; step < 2000; step++ {
		if len(pending) == 0 || rng.Float64() < 0.6 {
			at := float64(rng.Intn(50)) * 0.25 // coarse grid forces ties
			q.Schedule(Event{At: at, Seq: int64(next)})
			pending = append(pending, ref{at: at, id: next})
			next++
			continue
		}
		ev, ok := q.Pop()
		if !ok {
			t.Fatal("queue empty while reference has pending events")
		}
		want := popMin()
		if ev.At != want.at || ev.Seq != int64(want.id) {
			t.Fatalf("step %d: popped (at=%v seq=%d), want (at=%v seq=%d)",
				step, ev.At, ev.Seq, want.at, want.id)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty queue succeeded")
	}
	q.Schedule(Event{At: 3, Seq: 1})
	q.Schedule(Event{At: 1, Seq: 2})
	if ev, ok := q.Peek(); !ok || ev.Seq != 2 || q.Len() != 2 {
		t.Fatalf("peek got (%v,%v) with %d pending, want the t=1 event and 2", ev, ok, q.Len())
	}
	if ev, ok := q.Pop(); !ok || ev.Seq != 2 {
		t.Fatalf("pop got (%v,%v), want the peeked t=1 event", ev, ok)
	}
	if at, ok := q.PeekAt(); !ok || at != 3 {
		t.Fatalf("peek got (%v,%v), want 3", at, ok)
	}
}

// TestStampedEventsOrderLikeScheduled: stamping an event with one queue and
// pushing it into another gives it exactly the place Schedule would have
// given it. Events are scheduled on a coarse time grid, which forces ties,
// and each goes either through Schedule on the stamping queue or through
// Stamp into a second queue; popping the earlier of the two heads by Before
// drains them in the order one queue scheduling everything does.
func TestStampedEventsOrderLikeScheduled(t *testing.T) {
	rng := mathx.NewRNG(12)
	var ref, p, q Queue
	popSplit := func() Event {
		a, okA := p.Peek()
		b, okB := q.Peek()
		if !okB || okA && a.Before(&b) {
			ev, _ := p.Pop()
			return ev
		}
		ev, _ := q.Pop()
		return ev
	}
	for step, next := 0, int64(0); step < 4000; step++ {
		if ref.Len() == 0 || rng.Float64() < 0.6 {
			ev := Event{At: float64(rng.Intn(20)) * 0.5, Seq: next}
			next++
			ref.Schedule(ev)
			if rng.Float64() < 0.5 {
				p.Schedule(ev)
			} else {
				q.Push(p.Stamp(ev))
			}
			continue
		}
		want, _ := ref.Pop()
		if got := popSplit(); got.At != want.At || got.Seq != want.Seq {
			t.Fatalf("step %d: split queues popped (at=%v seq=%d), one queue (at=%v seq=%d)",
				step, got.At, got.Seq, want.At, want.Seq)
		}
	}
}

func TestQueueGrowPreallocatesNoSteadyStateAllocs(t *testing.T) {
	var q Queue
	q.Grow(64)
	for i := 0; i < 32; i++ {
		q.Schedule(Event{At: float64(i)})
	}
	allocs := testing.AllocsPerRun(100, func() {
		ev, _ := q.Pop()
		q.Schedule(Event{At: ev.At + 100})
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/pop allocated %v times per op", allocs)
	}
}
