package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since simulation
// start.
type Time = int64

// Common durations in nanoseconds.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// A handler runs one typed event. The per-frame steps — link arrival
// (Endpoint), pipeline traversal (Switch) and host receive cost
// (Host) — queue a (handler, frame, port) record instead of a fresh
// closure, so the steady state allocates nothing per event.
type handler interface {
	fire(frame []byte, port int)
}

// thunk adapts an At/After callback to handler. A func value is one
// pointer, so storing it in the interface does not allocate.
type thunk func()

func (f thunk) fire([]byte, int) { f() }

// payload is what a queued event runs.
type payload struct {
	h     handler
	frame []byte
	port  int
}

// key is one queued event: its timestamp and the slab slot holding its
// payload.
type key struct {
	at   Time
	slot int32
}

// queue is the event queue: a radix heap of compact keys over a payload
// slab with a free list. It pops in (time, push order): the simulator's
// (at, seq) order, seq being the push count.
//
// Event times never run backwards — nothing is scheduled before now,
// and now is the time of the last event run — so every queued key is
// at or after last, the time at the front. A key whose time first
// differs from last at bit b waits in buckets[b]; one at exactly last
// waits in front. Pushing is an append. When front runs dry, the
// lowest non-empty bucket is split around its earliest time, which
// becomes the new last: each of its keys drops to a lower bucket or to
// front, so a key moves at most once per bit and no compare ever sifts
// a heap. Every bucket, front included, stays in push order without a
// sequence number or a sort: pushes append, and a split moves keys, in
// order, only into buckets that are empty (all lie below the lowest
// non-empty one).
type queue struct {
	last     Time
	n        int
	front    []key // keys at last, in push order; front[head:] still queued
	head     int
	nonEmpty uint64 // bit b set while buckets[b] holds keys
	buckets  [64][]key
	slab     []payload
	free     []int32
}

// push queues p at time at, which must not precede the last key popped.
//
//zipline:noalloc
func (q *queue) push(at Time, p payload) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = p
	} else {
		slot = int32(len(q.slab))
		//ziplint:allow noalloc amortised growth to the peak pending count; a warm queue reuses freed slots
		q.slab = append(q.slab, p)
	}
	q.n++
	q.file(key{at: at, slot: slot})
}

// file appends k to front or to its bucket relative to last.
func (q *queue) file(k key) {
	x := uint64(k.at ^ q.last)
	if x == 0 {
		//ziplint:allow noalloc amortised growth to the peak pending count; a warm queue reuses its capacity
		q.front = append(q.front, k)
		return
	}
	b := bits.Len64(x) - 1
	//ziplint:allow noalloc amortised growth to the peak pending count; a warm queue reuses its capacity
	q.buckets[b] = append(q.buckets[b], k)
	q.nonEmpty |= 1 << b
}

// due reports whether the earliest queued key is at or before limit,
// bringing it to front[head] if so. A key later than limit leaves the
// queue untouched, so last never passes the simulator's clock.
func (q *queue) due(limit Time) bool {
	if q.head < len(q.front) {
		return q.last <= limit
	}
	if q.nonEmpty == 0 {
		return false
	}
	b := bits.TrailingZeros64(q.nonEmpty)
	src := q.buckets[b]
	first := src[0].at
	for _, k := range src[1:] {
		first = min(first, k.at)
	}
	if first > limit {
		return false
	}
	q.front, q.head = q.front[:0], 0
	q.last = first
	q.buckets[b] = src[:0]
	q.nonEmpty &^= 1 << b
	for _, k := range src {
		q.file(k) // lands below b: k agrees with first above bit b
	}
	return true
}

// pop removes the earliest event and returns its time and payload.
// The slab slot is zeroed before reuse, so the event's frame and
// closure go to the GC.
//
//zipline:noalloc
func (q *queue) pop() (Time, payload) {
	q.due(math.MaxInt64)
	k := q.front[q.head]
	q.head++
	q.n--
	p := q.slab[k.slot]
	q.slab[k.slot] = payload{}
	//ziplint:allow noalloc amortised growth to the peak pending count; a warm queue reuses its capacity
	q.free = append(q.free, k.slot)
	return k.at, p
}

// Sim is the event loop: one queue executing events in (timestamp,
// scheduling sequence) order. Not safe for concurrent use: the
// simulation is single-threaded by design (determinism). The order is
// a total order fixed by when events were scheduled, so reports are
// byte-stable across engine versions for a given seed.
type Sim struct {
	now Time
	q   queue
	seq uint64
	rng *rand.Rand
}

// NewSim creates a simulator whose jitter sources derive from seed.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand exposes the simulation's seeded random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn at absolute time t (not before now).
func (s *Sim) At(t Time, fn func()) { s.schedule(t, payload{h: thunk(fn)}) }

// After schedules fn d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) { s.At(s.after(d), fn) }

// after converts a delay to an absolute time.
func (s *Sim) after(d Time) Time {
	if d < 0 {
		panic("netsim: negative delay")
	}
	return s.now + d
}

// schedule queues a typed event at absolute time t (not before now).
func (s *Sim) schedule(t Time, p payload) {
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling into the past (%d < %d)", t, s.now))
	}
	s.seq++
	s.q.push(t, p)
}

// Jitter returns a duration drawn uniformly from
// [d·(1−frac), d·(1+frac)], the simulator's model of measurement
// noise.
func (s *Sim) Jitter(d Time, frac float64) Time {
	if d == 0 || frac == 0 {
		return d
	}
	lo := float64(d) * (1 - frac)
	hi := float64(d) * (1 + frac)
	return Time(lo + s.rng.Float64()*(hi-lo))
}

// step runs the earliest queued event.
func (s *Sim) step() {
	at, p := s.q.pop()
	s.now = at
	p.h.fire(p.frame, p.port)
}

// Run executes events until the queue drains.
func (s *Sim) Run() {
	for s.q.n > 0 {
		s.step()
	}
}

// RunUntil executes events with timestamps ≤ deadline, then advances
// the clock to the deadline. Later events stay queued.
func (s *Sim) RunUntil(deadline Time) {
	for s.q.due(deadline) {
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return s.q.n }

// Scheduled reports the total number of events scheduled since the
// simulator was created — the denominator for events-per-second
// wall-clock measurements of the engine itself.
func (s *Sim) Scheduled() uint64 { return s.seq }
