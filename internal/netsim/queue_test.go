package netsim

import (
	"math/rand"
	"sort"
	"testing"

	"zipline/internal/packet"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

// orderModel is the reference scheduler: every pending event in a plain
// slice, the next one found by a linear scan for the least (at, seq).
type orderModel struct {
	now     Time
	seq     uint64
	pending []modelEvent
}

type modelEvent struct {
	at  Time
	seq uint64
	id  int
}

func (m *orderModel) schedule(at Time, id int) {
	m.seq++
	m.pending = append(m.pending, modelEvent{at, m.seq, id})
}

// next removes and returns the least pending event by (at, seq).
func (m *orderModel) next() modelEvent {
	best := 0
	for i, e := range m.pending[1:] {
		b := m.pending[best]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			best = i + 1
		}
	}
	e := m.pending[best]
	m.pending = append(m.pending[:best], m.pending[best+1:]...)
	m.now = e.at
	return e
}

// runUntil runs events due by deadline, then advances the clock to it.
func (m *orderModel) runUntil(deadline Time, run func()) {
	for len(m.pending) > 0 {
		least := m.pending[0].at
		for _, e := range m.pending {
			least = min(least, e.at)
		}
		if least > deadline {
			break
		}
		run()
	}
	m.now = max(m.now, deadline)
}

// splitmix is a cheap stateless mixer for per-event pseudo-randomness.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// recorder is a typed event for the model test: it logs its id and
// runs the same follow-up schedule as the closure events.
type recorder struct {
	run func(id int)
}

func (r recorder) fire(_ []byte, port int) { r.run(port) }

// TestQueueOrderModel drives a seeded mix of At, After and typed
// events through the simulator and through orderModel, applying every
// operation to both: many events share a timestamp, running events
// schedule more, and RunUntil deadlines land on event times, between
// them and before the clock. The executed id sequence, the clock, Pending and
// Scheduled must agree after every step.
func TestQueueOrderModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(seed)
		m := &orderModel{}
		var got, want []int
		nextID := 0

		// children derives an event's follow-ups from its id alone, so
		// the simulator and the model schedule identical work provided
		// they run the same events in the same order.
		children := func(id int) (delays []Time) {
			h := splitmix(uint64(id)<<8 | uint64(seed))
			for n := h % 4; n > 0 && id < 4000; n-- {
				h = splitmix(h)
				delays = append(delays, Time(h%3)*Time(h>>8%40))
			}
			return delays
		}
		var schedSim func(at Time, id int, kind int)
		runSim := func(id int) {
			got = append(got, id)
			for _, d := range children(id) {
				nextID++
				schedSim(s.Now()+d, nextID, nextID%3)
			}
		}
		schedSim = func(at Time, id int, kind int) {
			switch kind {
			case 0:
				s.At(at, func() { runSim(id) })
			case 1:
				s.After(at-s.Now(), func() { runSim(id) })
			default:
				s.schedule(at, payload{h: recorder{runSim}, port: id})
			}
		}
		modelID := 0
		runModel := func() {
			e := m.next()
			want = append(want, e.id)
			for _, d := range children(e.id) {
				modelID++
				m.schedule(m.now+d, modelID)
			}
		}

		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0: // schedule from outside any event, often at equal times
				at := s.Now() + Time(rng.Intn(5))*10
				nextID++
				modelID++
				schedSim(at, nextID, rng.Intn(3))
				m.schedule(at, modelID)
			case 1: // deadline between event times (or past them all)
				deadline := s.Now() + Time(rng.Intn(60))
				s.RunUntil(deadline)
				m.runUntil(deadline, runModel)
			case 2: // deadline already past: runs nothing
				deadline := s.Now() - 1 - Time(rng.Intn(20))
				s.RunUntil(deadline)
				m.runUntil(deadline, runModel)
			default: // deadline exactly on a pending event's time
				if len(m.pending) == 0 {
					continue
				}
				deadline := m.pending[rng.Intn(len(m.pending))].at
				s.RunUntil(deadline)
				m.runUntil(deadline, runModel)
			}
			if s.Now() != m.now || s.Pending() != len(m.pending) || s.Scheduled() != m.seq {
				t.Fatalf("seed %d op %d: sim now=%d pending=%d scheduled=%d, model now=%d pending=%d scheduled=%d",
					seed, op, s.Now(), s.Pending(), s.Scheduled(), m.now, len(m.pending), m.seq)
			}
		}
		s.Run()
		for len(m.pending) > 0 {
			runModel()
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: ran %d events, model %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d is id %d, model %d", seed, i, got[i], want[i])
			}
		}
		if len(got) < 500 {
			t.Fatalf("seed %d: only %d events; the mix is too thin", seed, len(got))
		}
	}
}

// TestQueueSortedOrder pushes events straight into the queue — heavy
// timestamp ties near the last pop and far-future times that sit in
// the high buckets — and checks every pop comes out in (time, push
// order), with freed slots zeroed.
func TestQueueSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q queue
	var keys []modelEvent
	var now Time
	var seq uint64
	frame := []byte{1}
	check := func(round int) {
		at, p := q.pop()
		if at != keys[0].at || uint64(p.port) != keys[0].seq {
			t.Fatalf("round %d: popped (%d, %d), want (%d, %d)", round, at, p.port, keys[0].at, keys[0].seq)
		}
		now = at
		keys = keys[1:]
	}
	for round := 0; round < 300; round++ {
		for n := rng.Intn(64); n > 0; n-- {
			seq++
			at := now + Time(rng.Intn(16))
			if rng.Intn(4) == 0 {
				at = now + rng.Int63n(1<<40)
			}
			keys = append(keys, modelEvent{at: at, seq: seq})
			q.push(at, payload{h: thunk(func() {}), frame: frame, port: int(seq)})
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i].at < keys[j].at || (keys[i].at == keys[j].at && keys[i].seq < keys[j].seq)
		})
		for n := rng.Intn(len(keys) + 1); n > 0; n-- {
			check(round)
		}
		if q.n != len(keys) {
			t.Fatalf("round %d: queue holds %d, want %d", round, q.n, len(keys))
		}
	}
	for len(keys) > 0 {
		check(-1)
	}
	for _, slot := range q.free {
		if q.slab[slot].h != nil || q.slab[slot].frame != nil {
			t.Fatalf("freed slot %d still holds its payload", slot)
		}
	}
	if len(q.free) != len(q.slab) {
		t.Fatalf("drained queue: %d of %d slots free", len(q.free), len(q.slab))
	}
}

// TestFrameHopsZeroAllocs pins the steady state of the per-frame
// events: once the queue is warm, one frame host → link → switch
// (forwarding) → link → host schedules its link arrivals, pipeline
// traversal and receive cost without allocating.
func TestFrameHopsZeroAllocs(t *testing.T) {
	prog, err := zswitch.New(zswitch.Config{
		Roles:   map[tofino.Port]zswitch.Role{0: zswitch.RoleForward, 1: zswitch.RoleForward},
		PortMap: map[tofino.Port]tofino.Port{0: 1, 1: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(1)
	ha, _, hb := buildHostSwitchHost(t, s, prog, HostConfig{})
	frame := packet.Frame(packet.Header{EtherType: packet.EtherTypeRaw}, make([]byte, 64))
	hop := func() {
		ha.NIC().Send(frame)
		s.Run()
	}
	for i := 0; i < 16; i++ {
		hop() // warm the queue and the switch's emit scratch
	}
	if a := testing.AllocsPerRun(200, hop); a != 0 {
		t.Fatalf("one frame across two links and a switch allocates %.1f times, want 0", a)
	}
	if got := hb.Rx().Frames; got != 16+201 {
		t.Fatalf("sink received %d frames, want %d", got, 16+201)
	}
}

// BenchmarkQueueHold is the classic hold model at the fabric-churn
// queue depth: each operation pops the earliest of ~1,400 pending
// events and queues one replacement up to 2 µs later.
func BenchmarkQueueHold(b *testing.B) {
	const depth = 1400
	rng := rand.New(rand.NewSource(1))
	delays := make([]Time, 4096)
	for i := range delays {
		delays[i] = Time(rng.Intn(2000))
	}
	var q queue
	for i := 0; i < depth; i++ {
		q.push(delays[i%len(delays)], payload{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, _ := q.pop()
		q.push(at+delays[i%len(delays)], payload{})
	}
}
