package gd

import (
	"fmt"
	"hash/maphash"

	"zipline/internal/bitvec"
	"zipline/internal/slotindex"
)

// Dictionary maps bases to short identifiers with LRU replacement,
// mirroring the basis↔ID tables that ZipLine's control plane manages
// in the switches (paper §5): a fixed pool of 2^t identifiers, the
// least recently used one recycled when a new basis arrives and the
// pool is exhausted.
//
// Dictionary is the in-process (single-node) variant used by the
// stream compressor and by workload analysis; the switch tables in
// zipline/internal/zswitch enforce the same policy through the
// simulated control plane. All bases in one Dictionary have the same
// length, fixed by the first basis inserted (or by the frozen prefix).
// Not safe for concurrent use.
//
// The store is flat and indexed by identifier: dynamic identifier
// base+s keeps its basis at arena[s*stride:], its LRU links at
// links[s], and is filed in an open-addressing hash index. Nothing
// is allocated per entry, and the slices grow with the entries
// inserted, never to the full 2^t up front.
type Dictionary struct {
	idBits   int
	capacity int

	nbits  int // basis length in bits; -1 until the first basis
	stride int // basis length in bytes
	arena  []byte
	// links thread the mapped slots into the recency list, head the
	// most recently used; links[s].prev == slotFree marks a slot whose
	// identifier waits on freed. len(links) is the number of slots
	// ever allocated.
	links      []lruLink
	head, tail int32
	live       int
	index      slotindex.Index
	freed      []uint32 // ids returned by Remove, LIFO

	views   []bitvec.Vector // per-slot headers handed out by LookupID
	evicted bitvec.Vector   // the basis the last Insert recycled

	// frozen is an optional immutable prefix shared read-only with any
	// number of other dictionaries (the pre-trained basis dictionary of
	// a compressor fleet). Frozen entries own identifiers [0, base) and
	// are never evicted, refreshed or removed; dynamic entries start at
	// base and behave exactly as before.
	frozen *Frozen
	base   uint32 // first dynamic id == frozen.Len()
}

// lruLink is one slot's place in the recency list. Both neighbours
// share a cache line, so a refresh touches one line per slot.
type lruLink struct{ prev, next int32 }

// Sentinels in the recency links.
const (
	slotNone int32 = -1 // end of the recency list
	slotFree int32 = -2 // prev of a slot whose id is on the free list
)

// Frozen is an immutable basis→identifier mapping: identifiers are
// assigned densely in insertion order at construction and never change.
// A Frozen is safe for concurrent use by any number of Dictionaries —
// all its state is written once in NewFrozen and only read afterwards.
type Frozen struct {
	nbits  int
	stride int
	arena  []byte          // basis of id i at arena[i*stride:]
	views  []bitvec.Vector // id → vector aliasing the arena
	index  slotindex.Index
}

// NewFrozen builds a frozen dictionary from bases, assigning ids
// 0..n-1 in order. Duplicate bases keep their first id; the bases are
// copied, so the caller's vectors stay free to mutate. All bases must
// have the same length.
func NewFrozen(bases []*bitvec.Vector) *Frozen {
	f := &Frozen{nbits: -1, index: slotindex.New(maphash.MakeSeed())}
	var n int32
	for _, b := range bases {
		if f.nbits < 0 {
			f.nbits, f.stride = b.Len(), len(b.Bytes())
		} else if b.Len() != f.nbits {
			panic(fmt.Sprintf("gd: frozen basis of %d bits among %d-bit bases", b.Len(), f.nbits))
		}
		h := f.index.Hash(b.Bytes())
		if _, dup := f.index.Find(h, b.Bytes(), f.arena, f.stride); dup {
			continue
		}
		f.arena = append(f.arena, b.Bytes()...)
		f.index.Insert(h, n)
		n++
	}
	f.views = make([]bitvec.Vector, n)
	for i := range f.views {
		off := i * f.stride
		f.views[i].View(f.arena[off:off+f.stride:off+f.stride], f.nbits)
	}
	return f
}

// Len returns the number of frozen entries.
func (f *Frozen) Len() int { return len(f.views) }

// Basis returns the basis for a frozen identifier. The vector is
// shared by every user of f and must not be modified.
func (f *Frozen) Basis(id uint32) *bitvec.Vector { return &f.views[id] }

// NewDictionary creates a dictionary with 2^idBits identifier slots.
// Memory is proportional to the entries actually inserted, not to the
// slot count: a decoder can be handed an attacker-chosen idBits (and,
// in the sharded container, hundreds of dictionaries), so the 2^24
// worst case must not be preallocated. Identifiers are handed out in
// increasing order, reusing Removed ids first (LIFO), then recycling
// the least recently used one.
func NewDictionary(idBits int) *Dictionary {
	if idBits < 1 || idBits > 24 {
		panic(fmt.Sprintf("gd: idBits %d out of range [1,24]", idBits))
	}
	return &Dictionary{
		idBits:   idBits,
		capacity: 1 << uint(idBits),
		nbits:    -1,
		head:     slotNone,
		tail:     slotNone,
		index:    slotindex.New(maphash.MakeSeed()),
	}
}

// NewDictionaryFrozen creates a dictionary whose identifier space
// starts with the shared frozen prefix: ids [0, frozen.Len()) resolve
// through frozen (read-only, never evicted), and the remaining
// capacity behaves as a normal LRU dictionary. frozen may be nil.
// Because the prefix is only ever read, one Frozen can back any
// number of concurrent dictionaries.
func NewDictionaryFrozen(idBits int, frozen *Frozen) *Dictionary {
	d := NewDictionary(idBits)
	if frozen != nil && frozen.Len() > 0 {
		if frozen.Len() >= d.capacity {
			panic(fmt.Sprintf("gd: frozen dictionary of %d entries leaves no dynamic room in 2^%d ids", frozen.Len(), idBits))
		}
		d.frozen = frozen
		d.base = uint32(frozen.Len())
		d.nbits, d.stride = frozen.nbits, frozen.stride
		// One hash per lookup serves both indexes.
		d.index = slotindex.New(frozen.index.Seed())
	}
	return d
}

// Reset drops every dynamic mapping while keeping the frozen prefix
// and all allocated storage (arena, links, index table), so a pooled
// encoder can re-serve a new stream without allocating.
//
//zipline:noalloc
func (d *Dictionary) Reset() {
	d.index.Reset()
	d.arena = d.arena[:0]
	d.links = d.links[:0]
	d.head, d.tail = slotNone, slotNone
	d.live = 0
	d.freed = d.freed[:0]
}

// IDBits returns the identifier width in bits.
func (d *Dictionary) IDBits() int { return d.idBits }

// FrozenLen returns the size of the shared frozen prefix (0 without one).
func (d *Dictionary) FrozenLen() int { return int(d.base) }

// Capacity returns the number of identifier slots, 2^IDBits.
func (d *Dictionary) Capacity() int { return d.capacity }

// Len returns the number of dynamic bases currently mapped.
func (d *Dictionary) Len() int { return d.live }

// Lookup returns the identifier for a basis if present, refreshing
// its recency (a data-plane hit resets the TNA idle timer). Frozen
// entries hit without a recency update — they are never evicted, so
// they carry no position in the LRU order.
//
//zipline:noalloc
func (d *Dictionary) Lookup(basis *bitvec.Vector) (uint32, bool) {
	if basis.Len() != d.nbits {
		return 0, false
	}
	b := basis.Bytes()
	h := d.index.Hash(b)
	if d.frozen != nil {
		if id, ok := d.frozen.index.Find(h, b, d.frozen.arena, d.stride); ok {
			return uint32(id), true
		}
	}
	s, ok := d.index.Find(h, b, d.arena, d.stride)
	if !ok {
		return 0, false
	}
	d.touch(s)
	return d.base + uint32(s), true
}

// LookupID returns the basis for an identifier if one is mapped. It
// does not refresh recency: decoders follow the encoder's mapping
// rather than maintaining their own. The vector aliases the
// dictionary's storage: it must not be modified, and it reads the new
// basis once the identifier is recycled.
func (d *Dictionary) LookupID(id uint32) (*bitvec.Vector, bool) {
	if id < d.base {
		return d.frozen.Basis(id), true
	}
	s, ok := d.slot(id)
	if !ok {
		return nil, false
	}
	return d.view(s), true
}

// LookupIDTouch is LookupID plus the recency refresh of a Lookup hit,
// in one table access and without hashing the basis — the decoder's
// replay of an encoder hit, the dominant operation on the decode hot
// path.
//
//zipline:noalloc
func (d *Dictionary) LookupIDTouch(id uint32) (*bitvec.Vector, bool) {
	if id < d.base {
		// Mirrors the encoder: frozen hits carry no recency.
		return d.frozen.Basis(id), true
	}
	s, ok := d.slot(id)
	if !ok {
		return nil, false
	}
	d.touch(s)
	return d.view(s), true
}

// Insert maps a new basis, allocating the least recently used
// identifier. It returns the assigned id and, when an existing
// mapping had to be recycled, the evicted basis; that vector is
// dictionary scratch, valid until the next Insert. Inserting a basis
// that is already present just refreshes it. The basis is copied.
func (d *Dictionary) Insert(basis *bitvec.Vector) (id uint32, evicted *bitvec.Vector) {
	if d.nbits < 0 {
		d.nbits, d.stride = basis.Len(), len(basis.Bytes())
	} else if basis.Len() != d.nbits {
		panic(fmt.Sprintf("gd: %d-bit basis inserted into a dictionary of %d-bit bases", basis.Len(), d.nbits))
	}
	b := basis.Bytes()
	h := d.index.Hash(b)
	if d.frozen != nil {
		// A frozen basis is already permanently mapped.
		if fid, ok := d.frozen.index.Find(h, b, d.frozen.arena, d.stride); ok {
			return uint32(fid), nil
		}
	}
	if s, ok := d.index.Find(h, b, d.arena, d.stride); ok {
		d.touch(s)
		return d.base + uint32(s), nil
	}
	var s int32
	switch {
	case len(d.freed) > 0:
		s = int32(d.freed[len(d.freed)-1] - d.base)
		d.freed = d.freed[:len(d.freed)-1]
		copy(d.arena[int(s)*d.stride:], b)
	case len(d.links) < d.capacity-int(d.base):
		s = int32(len(d.links))
		d.arena = append(d.arena, b...)
		d.links = append(d.links, lruLink{})
	default:
		// Recycle the least recently used mapping (paper §5: "an LRU
		// policy is applied to evict and recycle an identifier").
		s = d.tail
		old := d.arena[int(s)*d.stride : int(s+1)*d.stride]
		d.evicted.Reset(d.nbits)
		copy(d.evicted.Bytes(), old)
		evicted = &d.evicted
		d.index.Remove(d.index.Hash(old), s)
		d.unlink(s)
		d.live--
		copy(old, b)
	}
	d.index.Insert(h, s)
	d.pushFront(s)
	d.live++
	return d.base + uint32(s), evicted
}

// Remove drops the mapping for a basis, returning its id to the free
// pool. It reports whether the basis was present; frozen bases are
// never removed.
func (d *Dictionary) Remove(basis *bitvec.Vector) bool {
	if basis.Len() != d.nbits {
		return false
	}
	b := basis.Bytes()
	h := d.index.Hash(b)
	s, ok := d.index.Find(h, b, d.arena, d.stride)
	if !ok {
		return false
	}
	d.index.Remove(h, s)
	d.unlink(s)
	d.links[s].prev = slotFree
	d.live--
	d.freed = append(d.freed, d.base+uint32(s))
	return true
}

// slot maps a dynamic identifier to its slot if the id is mapped.
func (d *Dictionary) slot(id uint32) (int32, bool) {
	s := id - d.base
	if s >= uint32(len(d.links)) || d.links[s].prev == slotFree {
		return 0, false
	}
	return int32(s), true
}

// view points slot s's vector header at its arena bytes. Headers are
// re-pointed on every call, so they follow the arena when it grows.
func (d *Dictionary) view(s int32) *bitvec.Vector {
	for len(d.views) <= int(s) {
		//ziplint:allow noalloc amortised growth to the slot count; kept across Reset
		d.views = append(d.views, bitvec.Vector{})
	}
	off := int(s) * d.stride
	v := &d.views[s]
	v.View(d.arena[off:off+d.stride:off+d.stride], d.nbits)
	return v
}

// touch makes slot s the most recently used.
func (d *Dictionary) touch(s int32) {
	if d.head != s {
		d.unlink(s)
		d.pushFront(s)
	}
}

func (d *Dictionary) unlink(s int32) {
	l := d.links[s]
	if l.prev == slotNone {
		d.head = l.next
	} else {
		d.links[l.prev].next = l.next
	}
	if l.next == slotNone {
		d.tail = l.prev
	} else {
		d.links[l.next].prev = l.prev
	}
}

func (d *Dictionary) pushFront(s int32) {
	d.links[s] = lruLink{prev: slotNone, next: d.head}
	if d.head == slotNone {
		d.tail = s
	} else {
		d.links[d.head].prev = s
	}
	d.head = s
}
