// Package slotindex is the hash index behind the repo's flat,
// pointer-free key stores (the gd dictionaries and the tofino
// match-action tables). A store keeps its fixed-width keys back to
// back in a byte arena, slot s at arena[s*stride:], and files slot
// numbers here under a hash of the key bytes.
package slotindex

import (
	"bytes"
	"hash/maphash"
)

// Index is an open-addressing table with linear probing and
// backward-shift deletion, so removals leave no tombstones. Each word
// packs the low 32 bits of the hash above slot+1, and zero marks an
// empty word. The hash only decides where a slot is filed, never
// which slot a key gets, so the store's slot order does not depend on
// the seed; the seed is random, so hostile input cannot aim its keys
// at one probe chain. The zero Index is not usable; build one with
// New.
type Index struct {
	seed maphash.Seed
	tab  []uint64
	n    int
}

// minSize is the table's first size; it doubles whenever it would
// pass three quarters full.
const minSize = 16

// New returns an empty index hashing with seed. Indexes that share a
// seed hash a key to the same value, so one Hash serves them all.
func New(seed maphash.Seed) Index { return Index{seed: seed} }

// Seed returns the index's hash seed.
func (ix *Index) Seed() maphash.Seed { return ix.seed }

// Len returns the number of filed slots.
func (ix *Index) Len() int { return ix.n }

// Hash returns the hash of a key, as Find, Insert and Remove take it.
func (ix *Index) Hash(b []byte) uint32 { return uint32(maphash.Bytes(ix.seed, b)) }

// Find returns the slot filed under h whose key, read from arena at
// stride bytes per slot, equals b.
func (ix *Index) Find(h uint32, b, arena []byte, stride int) (int32, bool) {
	if ix.n == 0 {
		return 0, false
	}
	mask := uint32(len(ix.tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := ix.tab[i]
		if e == 0 {
			return 0, false
		}
		if uint32(e>>32) == h {
			s := int32(uint32(e)) - 1
			off := int(s) * stride
			if bytes.Equal(arena[off:off+stride], b) {
				return s, true
			}
		}
	}
}

// Insert files slot s under h; the slot must not be filed already.
func (ix *Index) Insert(h uint32, s int32) {
	if 4*(ix.n+1) > 3*len(ix.tab) {
		ix.grow()
	}
	ix.put(uint64(h)<<32 | uint64(s+1))
	ix.n++
}

func (ix *Index) put(e uint64) {
	mask := uint32(len(ix.tab) - 1)
	i := uint32(e>>32) & mask
	for ix.tab[i] != 0 {
		i = (i + 1) & mask
	}
	ix.tab[i] = e
}

func (ix *Index) grow() {
	old := ix.tab
	ix.tab = make([]uint64, max(minSize, 2*len(old)))
	for _, e := range old {
		if e != 0 {
			ix.put(e)
		}
	}
}

// Remove unfiles slot s, filed under h, shifting later members of its
// probe run back so every lookup still finds them.
func (ix *Index) Remove(h uint32, s int32) {
	mask := uint32(len(ix.tab) - 1)
	e := uint64(h)<<32 | uint64(s+1)
	i := h & mask
	for ix.tab[i] != e {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ix.tab[j] != 0; j = (j + 1) & mask {
		// The word at j may move back to the hole at i only if its
		// home position is not in (i, j].
		home := uint32(ix.tab[j]>>32) & mask
		if (j-home)&mask >= (j-i)&mask {
			ix.tab[i] = ix.tab[j]
			i = j
		}
	}
	ix.tab[i] = 0
	ix.n--
}

// Reset empties the index, keeping its size.
func (ix *Index) Reset() {
	if ix.n > 0 {
		clear(ix.tab)
		ix.n = 0
	}
}
