package bitvec

import "encoding/binary"

// CopyBits copies nbits bits from src starting at bit srcOff into dst
// starting at bit dstOff, overwriting the destination bits and
// leaving all other dst bits untouched. Offsets are MSB-first bit
// positions. Once the destination is byte-aligned, interior bits move
// eight bytes per step (a shifted 64-bit load/store), so arbitrary
// misalignment costs roughly one shift per word rather than per byte.
//
//zipline:noalloc
func CopyBits(dst []byte, dstOff int, src []byte, srcOff, nbits int) {
	if nbits < 0 {
		panic("bitvec: negative bit count")
	}
	if srcOff+nbits > len(src)*8 || dstOff+nbits > len(dst)*8 {
		panic("bitvec: CopyBits out of range")
	}
	// Fully byte-aligned fast path.
	if dstOff&7 == 0 && srcOff&7 == 0 {
		n := nbits >> 3
		copy(dst[dstOff>>3:dstOff>>3+n], src[srcOff>>3:srcOff>>3+n])
		if rem := nbits & 7; rem != 0 {
			mask := byte(0xFF) << (8 - uint(rem))
			di := dstOff>>3 + n
			dst[di] = dst[di]&^mask | src[srcOff>>3+n]&mask
		}
		return
	}
	// Align the destination to a byte boundary (at most one partial
	// byte), then stream whole words: each output word is one shifted
	// 64-bit source load plus the spill byte that the shift exposes.
	if db := dstOff & 7; db != 0 && nbits >= 8 {
		w := 8 - db
		v := extractBits(src, srcOff, w)
		mask := byte(1<<uint(w) - 1)
		di := dstOff >> 3
		dst[di] = dst[di]&^mask | byte(v)&mask
		dstOff += w
		srcOff += w
		nbits -= w
	}
	if dstOff&7 == 0 {
		sh := uint(srcOff & 7)
		si, di := srcOff>>3, dstOff>>3
		for nbits >= 64 && si+9 <= len(src) {
			v := binary.BigEndian.Uint64(src[si:])
			if sh > 0 {
				v = v<<sh | uint64(src[si+8])>>(8-sh)
			}
			binary.BigEndian.PutUint64(dst[di:], v)
			si += 8
			di += 8
			srcOff += 64
			dstOff += 64
			nbits -= 64
		}
		// A 32-bit stride picks up most of what the word loop leaves
		// when the source runs out of spill headroom near its end.
		for nbits >= 32 && si+5 <= len(src) {
			v := binary.BigEndian.Uint32(src[si:])
			if sh > 0 {
				v = v<<sh | uint32(src[si+4])>>(8-sh)
			}
			binary.BigEndian.PutUint32(dst[di:], v)
			si += 4
			di += 4
			srcOff += 32
			dstOff += 32
			nbits -= 32
		}
	}
	for nbits > 0 {
		db := dstOff & 7
		w := 8 - db
		if w > nbits {
			w = nbits
		}
		v := extractBits(src, srcOff, w)
		shift := uint(8 - db - w)
		mask := byte(1<<uint(w)-1) << shift
		di := dstOff >> 3
		dst[di] = dst[di]&^mask | byte(v<<shift)&mask
		dstOff += w
		srcOff += w
		nbits -= w
	}
}

// extractBits returns w (≤ 8) bits of src starting at bit off,
// right-aligned in the result.
func extractBits(src []byte, off, w int) byte {
	si := off >> 3
	v := uint16(src[si]) << 8
	if si+1 < len(src) {
		v |= uint16(src[si+1])
	}
	v <<= uint(off & 7)
	return byte(v >> (16 - uint(w)))
}

// Wrap builds an n-bit vector that takes ownership of data (no copy).
// The caller must not reuse data afterwards, and data must be exactly
// ceil(n/8) bytes with any trailing pad bits already zero. It exists
// for hot paths that have just assembled a fresh buffer.
func Wrap(data []byte, n int) *Vector {
	if len(data) != (n+7)/8 {
		panic("bitvec: Wrap buffer size mismatch")
	}
	v := &Vector{data: data, n: n}
	v.clearTail()
	return v
}

// View points v at data without copying, so v aliases data as an
// n-bit vector. It is Wrap for a caller-owned Vector header: a store
// that keeps many bases in one flat buffer can hand each out as a
// Vector without allocating. data must be exactly ceil(n/8) bytes with
// any trailing pad bits already zero. Mutating v writes into data;
// v's previous storage is dropped.
//
//zipline:noalloc
func (v *Vector) View(data []byte, n int) {
	if n < 0 || len(data) != (n+7)/8 {
		panic("bitvec: View buffer size mismatch")
	}
	v.data, v.n = data, n
}
