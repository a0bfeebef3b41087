package tofino

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"sort"

	"zipline/internal/slotindex"
)

// Table is an exact-match match-action table. The data plane may only
// look entries up; installation, deletion and capacity are control
// plane business, exactly as on the hardware (paper §6: "we settled
// on storing basis-ID pairs in regular match-action tables and manage
// them with the control plane").
//
// Keys and action data have the fixed widths the spec declares, and
// the store holds no pointers: slot s keeps its key at
// keys[s*keyLen:], its action data at acts[s*actLen:] and its last
// data-plane hit at lastHit[s], and is filed in an open-addressing
// hash index. Nothing is allocated per entry, vacated slots are
// reused, and the slices grow with the entries installed, never to
// Capacity up front.
type Table struct {
	name     string
	keyBits  int
	actBits  int
	capacity int
	// idleTimeoutNs > 0 enables TNA-style per-entry aging.
	idleTimeoutNs int64

	keyLen, actLen int // bytes per slot: the declared widths, rounded up
	keys           []byte
	acts           []byte
	lastHit        []int64
	used           []bool  // slot holds an entry
	free           []int32 // vacated slots, reused LIFO
	index          slotindex.Index
}

// TableSpec declares a table's geometry at program Declare time.
type TableSpec struct {
	Name string
	// KeyBits and ActionBits fix the width of every key and every
	// entry's action data: Install takes exactly (KeyBits+7)/8 and
	// (ActionBits+7)/8 bytes. They also size the SRAM cost model.
	KeyBits    int
	ActionBits int
	// Capacity is the maximum number of entries.
	Capacity int
	// IdleTimeoutNs enables per-entry aging: entries not hit for this
	// long show up in ExpiredKeys. Zero disables aging.
	IdleTimeoutNs int64
}

func newTable(s TableSpec) (*Table, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("tofino: table needs a name")
	}
	if s.KeyBits <= 0 || s.Capacity <= 0 {
		return nil, fmt.Errorf("tofino: table %s: key bits and capacity must be positive", s.Name)
	}
	if s.ActionBits < 0 || s.IdleTimeoutNs < 0 {
		return nil, fmt.Errorf("tofino: table %s: negative action bits or idle timeout", s.Name)
	}
	return &Table{
		name:          s.Name,
		keyBits:       s.KeyBits,
		actBits:       s.ActionBits,
		capacity:      s.Capacity,
		idleTimeoutNs: s.IdleTimeoutNs,
		keyLen:        (s.KeyBits + 7) / 8,
		actLen:        (s.ActionBits + 7) / 8,
		index:         slotindex.New(maphash.MakeSeed()),
	}, nil
}

// Name returns the table's declared name.
func (t *Table) Name() string { return t.name }

// Len returns the number of installed entries.
func (t *Table) Len() int { return t.index.Len() }

// Capacity returns the declared maximum entry count.
func (t *Table) Capacity() int { return t.capacity }

// KeyBytes returns the width of the table's keys in bytes.
func (t *Table) KeyBytes() int { return t.keyLen }

// ActionBytes returns the width of the table's action data in bytes.
func (t *Table) ActionBytes() int { return t.actLen }

// find returns the slot holding key. A key of the wrong width never
// matches.
func (t *Table) find(key []byte) (int32, bool) {
	if len(key) != t.keyLen {
		return 0, false
	}
	return t.index.Find(t.index.Hash(key), key, t.keys, t.keyLen)
}

// action returns slot s's action data in place, capped so an append
// cannot spill into the next slot.
func (t *Table) action(s int32) []byte {
	off := int(s) * t.actLen
	return t.acts[off : off+t.actLen : off+t.actLen]
}

// lookupBytes is the data-plane path: a hit refreshes the entry's
// idle timer (TNA resets the TTL on data-plane match) and returns a
// view of its action data.
//
//zipline:noalloc
func (t *Table) lookupBytes(key []byte, now int64) ([]byte, bool) {
	s, ok := t.find(key)
	if !ok {
		return nil, false
	}
	t.lastHit[s] = now
	return t.action(s), true
}

// Install adds or replaces an entry, copying key and action into the
// table. Both must have the declared widths. Control-plane API.
func (t *Table) Install(key, action []byte, now int64) error {
	if len(key) != t.keyLen || len(action) != t.actLen {
		return fmt.Errorf("tofino: table %s: entry of %d-byte key and %d-byte action, want %d and %d",
			t.name, len(key), len(action), t.keyLen, t.actLen)
	}
	h := t.index.Hash(key)
	s, ok := t.index.Find(h, key, t.keys, t.keyLen)
	if !ok {
		if t.index.Len() >= t.capacity {
			return fmt.Errorf("tofino: table %s full (%d entries)", t.name, t.capacity)
		}
		s = t.alloc(key)
		t.index.Insert(h, s)
	}
	copy(t.action(s), action)
	t.lastHit[s] = now
	return nil
}

// alloc takes a slot for a new key, reusing a vacated one first.
func (t *Table) alloc(key []byte) int32 {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		copy(t.keys[int(s)*t.keyLen:], key)
		t.used[s] = true
		return s
	}
	s := int32(len(t.used))
	t.keys = append(t.keys, key...)
	t.acts = append(t.acts, make([]byte, t.actLen)...)
	t.lastHit = append(t.lastHit, 0)
	t.used = append(t.used, true)
	return s
}

// Clear removes every entry, returning how many were dropped — the
// state a power cycle loses. Storage is kept for the entries
// reinstalled afterwards. Control-plane / fault-injection API.
func (t *Table) Clear() int {
	n := t.index.Len()
	t.index.Reset()
	t.keys, t.acts = t.keys[:0], t.acts[:0]
	t.lastHit, t.used, t.free = t.lastHit[:0], t.used[:0], t.free[:0]
	return n
}

// Delete removes an entry, reporting whether it existed.
// Control-plane API.
func (t *Table) Delete(key []byte) bool {
	if len(key) != t.keyLen {
		return false
	}
	h := t.index.Hash(key)
	s, ok := t.index.Find(h, key, t.keys, t.keyLen)
	if !ok {
		return false
	}
	t.index.Remove(h, s)
	t.used[s] = false
	t.free = append(t.free, s)
	return true
}

// Get returns an entry's action data without refreshing its idle
// timer. Control-plane API (BfRt reads do not count as hits). The
// slice views the table and must not be modified.
func (t *Table) Get(key []byte) ([]byte, bool) {
	s, ok := t.find(key)
	if !ok {
		return nil, false
	}
	return t.action(s), true
}

// key returns slot s's key in place.
func (t *Table) key(s int) []byte {
	return t.keys[s*t.keyLen : (s+1)*t.keyLen]
}

// ExpiredKeys returns the keys whose idle timers have lapsed at time
// now, in sorted order. The model notifies but does not auto-delete:
// on TNA the aging notification goes to the control plane, which
// decides.
func (t *Table) ExpiredKeys(now int64) []string {
	if t.idleTimeoutNs == 0 {
		return nil
	}
	var out []string
	for s, live := range t.used {
		if live && now-t.lastHit[s] >= t.idleTimeoutNs {
			out = append(out, string(t.key(s)))
		}
	}
	sort.Strings(out)
	return out
}

// IdleTime returns how long ago the entry was last hit, and whether
// it exists.
func (t *Table) IdleTime(key []byte, now int64) (int64, bool) {
	s, ok := t.find(key)
	if !ok {
		return 0, false
	}
	return now - t.lastHit[s], true
}

// LeastRecentlyHit returns the entry whose data-plane idle time is
// longest (ties broken by key order for determinism). The control
// plane uses it to pick eviction victims, the "LRU policy" of paper
// §5. ok is false when the table is empty.
func (t *Table) LeastRecentlyHit() (key string, lastHit int64, ok bool) {
	best := -1
	for s, live := range t.used {
		if !live {
			continue
		}
		if best < 0 || t.lastHit[s] < t.lastHit[best] ||
			(t.lastHit[s] == t.lastHit[best] && bytes.Compare(t.key(s), t.key(best)) < 0) {
			best = s
		}
	}
	if best < 0 {
		return "", 0, false
	}
	return string(t.key(best)), t.lastHit[best], true
}

// sramBits is the table's cost in the resource model: each entry
// burns key + action bits plus fixed per-entry overhead (match
// overhead, version bits, pointers), approximated at 64 bits.
func (t *Table) sramBits() int64 {
	const entryOverheadBits = 64
	return int64(t.capacity) * int64(t.keyBits+t.actBits+entryOverheadBits)
}
