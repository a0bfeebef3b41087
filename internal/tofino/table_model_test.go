package tofino

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// modelEntry is one entry of the reference model.
type modelEntry struct {
	act     string
	lastHit int64
}

// runTableModel interprets prog as a stream of table operations and
// checks every result against a map[string] model of the table. The
// first three bytes pick the geometry — capacity 1..64, 0..16 action
// bits, idle timeout 0..7 ns — and the rest are ops, each an opcode
// byte (low bits: which op; top two bits: how far the clock moves)
// followed by a one-byte key and, for installs, the action data. Keys
// are one byte drawn from about twice the capacity, so tables fill,
// replace at capacity, and collide in the index, and deletes run
// backward shifts through real probe chains.
func runTableModel(t testing.TB, prog []byte) {
	if len(prog) < 3 {
		return
	}
	spec := TableSpec{
		Name:          "m",
		KeyBits:       8,
		ActionBits:    int(prog[1] % 17),
		Capacity:      1 + int(prog[0]%64),
		IdleTimeoutNs: int64(prog[2] % 8),
	}
	tp := &tableProg{spec: spec}
	pl, err := Load(Config{}, tp)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := pl.Table("m")
	actLen := (spec.ActionBits + 7) / 8
	model := map[string]modelEntry{}

	r := prog[3:]
	next := func() byte {
		if len(r) == 0 {
			return 0
		}
		b := r[0]
		r = r[1:]
		return b
	}
	var now int64
	for step := 0; len(r) > 0; step++ {
		op := next()
		now += int64(op >> 6)
		key := []byte{next() % byte(2*spec.Capacity+2)}
		e, present := model[string(key)]
		switch op % 10 {
		case 0, 1: // Install, new or replace
			act := make([]byte, actLen)
			for i := range act {
				act[i] = next()
			}
			err := tbl.Install(key, act, now)
			if !present && len(model) >= spec.Capacity {
				if err == nil {
					t.Fatalf("step %d: install of %x into a full table accepted", step, key)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: install of %x: %v", step, key, err)
			}
			model[string(key)] = modelEntry{act: string(act), lastHit: now}
		case 2: // wrong widths are rejected and never match
			if tbl.Install(append(key, 0), make([]byte, actLen), now) == nil {
				t.Fatalf("step %d: 2-byte key accepted", step)
			}
			if tbl.Install(key, make([]byte, actLen+1), now) == nil {
				t.Fatalf("step %d: %d-byte action accepted, want %d", step, actLen+1, actLen)
			}
			ctx := Ctx{p: pl, now: now}
			if _, hit := ctx.ApplyBytes(tp.h, nil); hit {
				t.Fatalf("step %d: empty key matched", step)
			}
		case 3: // Delete
			if got := tbl.Delete(key); got != present {
				t.Fatalf("step %d: Delete(%x) = %v, model %v", step, key, got, present)
			}
			delete(model, string(key))
		case 4: // ApplyBytes: data-plane hit or miss
			ctx := Ctx{p: pl, now: now}
			act, hit := ctx.ApplyBytes(tp.h, key)
			if hit != present || (hit && string(act) != e.act) {
				t.Fatalf("step %d: ApplyBytes(%x) = %x,%v, model %x,%v", step, key, act, hit, e.act, present)
			}
			if hit {
				model[string(key)] = modelEntry{act: e.act, lastHit: now}
			}
		case 5: // Get: no refresh
			act, ok := tbl.Get(key)
			if ok != present || (ok && string(act) != e.act) {
				t.Fatalf("step %d: Get(%x) = %x,%v, model %x,%v", step, key, act, ok, e.act, present)
			}
		case 6: // IdleTime
			idle, ok := tbl.IdleTime(key, now)
			if ok != present || (ok && idle != now-e.lastHit) {
				t.Fatalf("step %d: IdleTime(%x) = %d,%v, model %d,%v", step, key, idle, ok, now-e.lastHit, present)
			}
		case 7: // Clear, rarely, so tables get the chance to fill
			if key[0]%8 != 0 {
				break
			}
			if n := tbl.Clear(); n != len(model) {
				t.Fatalf("step %d: Clear dropped %d, model %d", step, n, len(model))
			}
			clear(model)
		case 8: // ExpiredKeys
			var want []string
			if spec.IdleTimeoutNs > 0 {
				for k, me := range model {
					if now-me.lastHit >= spec.IdleTimeoutNs {
						want = append(want, k)
					}
				}
				slices.Sort(want)
			}
			if got := tbl.ExpiredKeys(now); !slices.Equal(got, want) {
				t.Fatalf("step %d: ExpiredKeys = %x, model %x", step, got, want)
			}
		case 9: // LeastRecentlyHit
			var wantKey string
			var wantAt int64
			first := true
			for k, me := range model {
				if first || me.lastHit < wantAt || (me.lastHit == wantAt && k < wantKey) {
					wantKey, wantAt, first = k, me.lastHit, false
				}
			}
			gotKey, gotAt, ok := tbl.LeastRecentlyHit()
			if ok != !first || gotKey != wantKey || gotAt != wantAt {
				t.Fatalf("step %d: LeastRecentlyHit = %x@%d,%v, model %x@%d,%v",
					step, gotKey, gotAt, ok, wantKey, wantAt, !first)
			}
		}
		if tbl.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, tbl.Len(), len(model))
		}
	}
}

// TestTableModel runs seeded op streams over every capacity 1..64.
func TestTableModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for capacity := 1; capacity <= 64; capacity++ {
		for _, actBits := range []byte{0, 7, 15} {
			prog := make([]byte, 3+3*40*capacity)
			rng.Read(prog)
			prog[0], prog[1], prog[2] = byte(capacity-1), actBits, byte(1+capacity%7)
			runTableModel(t, prog)
		}
	}
}

// TestTableFullAndWidths pins the hardware limits directly: a full
// table rejects a new key but still replaces an existing one, a
// vacated slot takes the next key, and keys or actions of the wrong
// width are refused.
func TestTableFullAndWidths(t *testing.T) {
	tbl, err := newTable(TableSpec{Name: "t", KeyBits: 12, ActionBits: 9, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.KeyBytes() != 2 || tbl.ActionBytes() != 2 {
		t.Fatalf("widths = %d/%d bytes, want 2/2", tbl.KeyBytes(), tbl.ActionBytes())
	}
	for _, bad := range [][2][]byte{
		{{1}, {0, 1}},
		{{1, 2, 3}, {0, 1}},
		{{1, 2}, {1}},
		{{1, 2}, nil},
		{{1, 2}, {0, 1, 2}},
	} {
		if tbl.Install(bad[0], bad[1], 0) == nil {
			t.Fatalf("Install(%x, %x) accepted", bad[0], bad[1])
		}
	}
	if tbl.Len() != 0 {
		t.Fatalf("rejected installs left %d entries", tbl.Len())
	}
	a, b, c := []byte{0, 'a'}, []byte{0, 'b'}, []byte{0, 'c'}
	for _, key := range [][]byte{a, b} {
		if err := tbl.Install(key, []byte{0, key[1]}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Install(c, []byte{0, 1}, 0) == nil {
		t.Fatal("install into a full table accepted")
	}
	if err := tbl.Install(b, []byte{1, 1}, 5); err != nil {
		t.Fatalf("replace at capacity: %v", err)
	}
	if act, _ := tbl.Get(b); !bytes.Equal(act, []byte{1, 1}) {
		t.Fatalf("replaced action = %x", act)
	}
	if !tbl.Delete(a) {
		t.Fatal("Delete missed")
	}
	if err := tbl.Install(c, []byte{0, 'c'}, 6); err != nil {
		t.Fatalf("install into a vacated slot: %v", err)
	}
	if _, ok := tbl.Get(a); ok {
		t.Fatal("deleted key still matches")
	}
	if act, ok := tbl.Get(c); !ok || act[1] != 'c' {
		t.Fatalf("Get(c) = %x,%v", act, ok)
	}
}

func FuzzTableModel(f *testing.F) {
	f.Add([]byte{0, 8, 1, 0, 1, 7, 4, 1, 3, 1, 4, 1, 8, 0, 9, 0})
	f.Add([]byte{3, 16, 3, 0, 1, 1, 2, 0, 2, 3, 4, 1, 9, 2, 3, 1, 4, 2, 6, 1, 8, 0})
	rng := rand.New(rand.NewSource(2))
	for _, capacity := range []byte{1, 2, 5, 16, 63} {
		prog := make([]byte, 3+200)
		rng.Read(prog)
		prog[0] = capacity - 1
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runTableModel(t, prog) })
}
