// Package vclock is the single event-driven virtual-clock substrate shared
// by every simulator in this repository. Historically the abr chunk clock
// (Session time advanced per chunk download) and the netem packet clock
// (an event heap of send/dequeue/ack/RTO events) were two unrelated
// timelines; vclock unifies them behind one scheduler contract so that
// components composed on one clock — e.g. the swarm layer multiplexing chunk
// wake-ups over a packet-granularity netem bottleneck — interleave their
// events deterministically.
//
// The contract is Queue, a deterministic pending-event heap. Events are
// ordered by (At, insertion id): simultaneous events fire in the order they
// were scheduled, independent of heap internals, which is what makes every
// run bit-for-bit reproducible. netem.Emulator and swarm.Group each own one.
//
// Queue deliberately avoids container/heap: pushing an event through an
// `any` parameter boxes the struct and allocates, and the swarm hot loop is
// pinned at zero allocations per event. The sift code below operates on the
// typed slice directly.
package vclock

// Event is one scheduled occurrence on a virtual timeline. Kind, Actor and
// Seq are owner-defined payload: netem stores its event kind and packet
// sequence, the swarm stores the client index of a wake-up.
type Event struct {
	At    float64 // virtual time the event fires
	Kind  int32   // owner-defined discriminator
	Actor int32   // owner-defined actor/flow/client index
	Seq   int64   // owner-defined payload (packet seq, encoded flow+seq, …)

	id int64 // insertion order, the deterministic tiebreaker
}

// Before reports whether a fires before b: earlier At, or the same At and
// an earlier stamp. Over events stamped by one queue it is a strict total
// order. It takes pointers because an Event is too large to compare by
// value without copying both.
func (a *Event) Before(b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.id < b.id
}

// Queue is a min-heap of events ordered by Before. The zero value is ready
// to use. Every stamp is distinct, so (At, id) is a strict total order: no
// two pending events compare equal, and the pop order is fully determined by
// the events, never by the heap's internal layout. Not safe for concurrent
// use — a queue belongs to exactly one virtual clock.
type Queue struct {
	h      []Event
	nextID int64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Grow pre-allocates capacity for at least n pending events so that
// steady-state Schedule calls never reallocate.
func (q *Queue) Grow(n int) {
	if cap(q.h) < n {
		h := make([]Event, len(q.h), n)
		copy(h, q.h)
		q.h = h
	}
}

// Schedule adds an event to the timeline. Events scheduled later sort after
// earlier ones at the same instant. It is Push(Stamp(ev)), written out so
// that the swarm's hot path stays one call.
func (q *Queue) Schedule(ev Event) {
	q.nextID++
	ev.id = q.nextID
	q.h = append(q.h, ev)
	q.up(len(q.h) - 1)
}

// Stamp returns ev with the insertion id Schedule would give it now, and
// consumes that id. Pushing the stamped event into another queue keeps it in
// this queue's order: of two events stamped here, the later-stamped sorts
// after the other at the same instant, whichever queue holds each.
func (q *Queue) Stamp(ev Event) Event {
	q.nextID++
	ev.id = q.nextID
	return ev
}

// Push adds an event that Stamp has already stamped, keeping its id.
func (q *Queue) Push(ev Event) {
	q.h = append(q.h, ev)
	q.up(len(q.h) - 1)
}

// Peek returns the earliest pending event without removing it.
func (q *Queue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// PeekAt returns the firing time of the earliest pending event.
func (q *Queue) PeekAt() (float64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

// Pop removes and returns the earliest pending event.
func (q *Queue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	ev := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return ev, true
}

func (q *Queue) less(i, j int) bool { return q.h[i].Before(&q.h[j]) }

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			return
		}
		q.h[i], q.h[m] = q.h[m], q.h[i]
		i = m
	}
}
