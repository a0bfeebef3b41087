package gd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"zipline/internal/bitvec"
)

// refDict is the reference model of Dictionary: a frozen key list, a
// key→id map and a recency slice, front = most recently used.
type refDict struct {
	capacity int
	frozen   []string
	ids      map[string]uint32
	order    []string
	freed    []uint32
	next     uint32
}

func newRefDict(capacity int, frozen []string) *refDict {
	return &refDict{capacity: capacity, frozen: frozen, ids: map[string]uint32{}, next: uint32(len(frozen))}
}

func (r *refDict) touch(k string) {
	i := slices.Index(r.order, k)
	r.order = append([]string{k}, slices.Delete(r.order, i, i+1)...)
}

func (r *refDict) lookup(k string) (uint32, bool) {
	if i := slices.Index(r.frozen, k); i >= 0 {
		return uint32(i), true
	}
	id, ok := r.ids[k]
	if ok {
		r.touch(k)
	}
	return id, ok
}

func (r *refDict) lookupIDTouch(id uint32) (string, bool) {
	if int(id) < len(r.frozen) {
		return r.frozen[id], true
	}
	for k, kid := range r.ids {
		if kid == id {
			r.touch(k)
			return k, true
		}
	}
	return "", false
}

func (r *refDict) insert(k string) (id uint32, evicted string) {
	if id, ok := r.lookup(k); ok {
		return id, ""
	}
	switch {
	case len(r.freed) > 0:
		id, r.freed = r.freed[len(r.freed)-1], r.freed[:len(r.freed)-1]
	case int(r.next) < r.capacity:
		id, r.next = r.next, r.next+1
	default:
		evicted, r.order = r.order[len(r.order)-1], r.order[:len(r.order)-1]
		id = r.ids[evicted]
		delete(r.ids, evicted)
	}
	r.ids[k] = id
	r.order = append([]string{k}, r.order...)
	return id, evicted
}

func (r *refDict) remove(k string) bool {
	id, ok := r.ids[k]
	if ok {
		delete(r.ids, k)
		r.order = slices.DeleteFunc(r.order, func(o string) bool { return o == k })
		r.freed = append(r.freed, id)
	}
	return ok
}

func (r *refDict) reset() {
	clear(r.ids)
	r.order, r.freed, r.next = nil, nil, uint32(len(r.frozen))
}

// TestDictionaryMatchesModel drives Dictionary and refDict through the
// same seeded operation sequences, with and without a frozen prefix,
// and compares every result: ids, hits, evicted bases, Len, and the
// full id→basis table.
func TestDictionaryMatchesModel(t *testing.T) {
	const nbits = 13 // not a byte multiple, so padding bits are in play
	for idBits := 2; idBits <= 4; idBits++ {
		for _, nfrozen := range []int{0, 1, 1 << (idBits - 1)} {
			for seed := int64(0); seed < 8; seed++ {
				t.Run(fmt.Sprintf("id%d/frozen%d/seed%d", idBits, nfrozen, seed), func(t *testing.T) {
					checkDictionaryModel(t, idBits, nfrozen, nbits, seed)
				})
			}
		}
	}
}

func checkDictionaryModel(t *testing.T, idBits, nfrozen, nbits int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// A pool about three times the id space, so hits, misses and
	// evictions all happen.
	pool := make([]*bitvec.Vector, 3<<idBits)
	for i := range pool {
		pool[i] = bitvec.FromUint(uint64(i)*2654435761, nbits)
	}
	var d *Dictionary
	ref := newRefDict(1<<idBits, nil)
	if nfrozen > 0 {
		d = NewDictionaryFrozen(idBits, NewFrozen(pool[:nfrozen]))
		for _, b := range pool[:nfrozen] {
			ref.frozen = append(ref.frozen, b.Key())
		}
		ref.next = uint32(nfrozen)
	} else {
		d = NewDictionary(idBits)
	}
	for step := 0; step < 2000; step++ {
		b := pool[rng.Intn(len(pool))]
		k := b.Key()
		var op string
		switch r := rng.Intn(100); {
		case r < 35:
			op = "Lookup"
			id, ok := d.Lookup(b)
			wid, wok := ref.lookup(k)
			if ok != wok || (ok && id != wid) {
				t.Fatalf("step %d Lookup: %d,%v, model %d,%v", step, id, ok, wid, wok)
			}
		case r < 70:
			op = "Insert"
			id, ev := d.Insert(b)
			wid, wev := ref.insert(k)
			if id != wid || (ev == nil) != (wev == "") || (ev != nil && ev.Key() != wev) {
				t.Fatalf("step %d Insert: id %d evicted %v, model id %d evicted %q", step, id, ev, wid, wev)
			}
		case r < 88:
			op = "LookupIDTouch"
			id := uint32(rng.Intn(1<<idBits + 2))
			got, ok := d.LookupIDTouch(id)
			want, wok := ref.lookupIDTouch(id)
			if ok != wok || (ok && got.Key() != want) {
				t.Fatalf("step %d LookupIDTouch(%d): %v,%v, model %v", step, id, got, ok, wok)
			}
		case r < 98:
			op = "Remove"
			if ok, wok := d.Remove(b), ref.remove(k); ok != wok {
				t.Fatalf("step %d Remove: %v, model %v", step, ok, wok)
			}
		default:
			op = "Reset"
			d.Reset()
			ref.reset()
		}
		if d.Len() != len(ref.ids) {
			t.Fatalf("step %d %s: Len %d, model %d", step, op, d.Len(), len(ref.ids))
		}
		for id := uint32(0); id < uint32(1<<idBits); id++ {
			got, ok := d.LookupID(id)
			var want string
			wok := int(id) < len(ref.frozen)
			if wok {
				want = ref.frozen[id]
			}
			for key, kid := range ref.ids {
				if kid == id {
					want, wok = key, true
				}
			}
			if ok != wok || (ok && got.Key() != want) {
				t.Fatalf("step %d %s: LookupID(%d) = %v,%v, model ok=%v", step, op, id, got, ok, wok)
			}
		}
	}
}

// TestDictionaryIndexSurvivesChurn keeps many more bases than the
// index's first size flowing through a small id space, so the index
// grows and its backward-shift deletion runs on long probe chains.
func TestDictionaryIndexSurvivesChurn(t *testing.T) {
	d := NewDictionary(10)
	rng := rand.New(rand.NewSource(41))
	live := map[string]uint32{}
	for i := 0; i < 20000; i++ {
		b := bitvec.FromUint(rng.Uint64()%4096, 247)
		if rng.Intn(5) == 0 {
			if d.Remove(b) {
				delete(live, b.Key())
			}
			continue
		}
		id, ev := d.Insert(b)
		if ev != nil {
			delete(live, ev.Key())
		}
		live[b.Key()] = id
	}
	if d.Len() != len(live) {
		t.Fatalf("Len %d, want %d", d.Len(), len(live))
	}
	for k, id := range live {
		got, ok := d.LookupID(id)
		if !ok || got.Key() != k {
			t.Fatalf("id %d lost its basis", id)
		}
		if gid, ok := d.Lookup(got); !ok || gid != id {
			t.Fatalf("basis of id %d does not look up", id)
		}
	}
}

func TestDictionaryResetKeepsStorage(t *testing.T) {
	d := NewDictionary(8)
	bases := make([]*bitvec.Vector, 200)
	for i := range bases {
		bases[i] = bitvec.FromUint(uint64(i)*7919, 247)
	}
	fill := func() {
		d.Reset()
		for _, b := range bases {
			d.Insert(b)
		}
		for i := range bases {
			if _, ok := d.LookupIDTouch(uint32(i)); !ok {
				t.Fatal("id lost")
			}
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(20, fill); allocs != 0 {
		t.Fatalf("Reset+refill = %v allocs/op, want 0", allocs)
	}
}

func TestDictionaryRejectsMixedLengths(t *testing.T) {
	d := NewDictionary(4)
	d.Insert(bitvec.New(10))
	if _, ok := d.Lookup(bitvec.New(11)); ok {
		t.Fatal("lookup of a different length hit")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inserting a different length did not panic")
		}
	}()
	d.Insert(bitvec.New(11))
}
