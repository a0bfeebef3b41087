package bitvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrShortBuffer is returned by Reader when a read runs past the end
// of the underlying data.
var ErrShortBuffer = errors.New("bitvec: read past end of buffer")

// Writer packs bits MSB-first into a growing byte slice. It is the
// serialisation half of ZipLine's non-byte-aligned wire formats.
// The zero value is ready for use.
type Writer struct {
	buf  []byte
	nbit int
}

// NewWriter returns a Writer with capacity preallocated for sizeHint
// bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit&7 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit>>3] |= 1 << (7 - uint(w.nbit&7))
	}
	w.nbit++
}

// WriteUint appends the low n bits of x, most significant first.
// Widths up to 57 bits land through one 64-bit big-endian store at the
// current byte: the partial byte's written bits are merged with x, and
// the rest of the 8-byte window is overwritten, so bytes left in the
// buffer's capacity by earlier writes never reach the output. Wider
// values take two stores.
//
//zipline:noalloc
func (w *Writer) WriteUint(x uint64, n int) {
	bi := w.nbit >> 3
	if uint(n) > 57 || bi+8 > cap(w.buf) {
		w.writeUintSlow(x, n)
		return
	}
	win := w.buf[bi : bi+8]
	off := uint(w.nbit & 7)
	v := x << (64 - uint(n)) >> off
	if off != 0 {
		// The partial byte's unwritten low bits are zero (the buffer
		// invariant); a byte-aligned write must not read it at all, as
		// it lies past len and may be stale.
		v |= uint64(win[0]) << 56
	}
	binary.BigEndian.PutUint64(win, v)
	w.nbit += n
	w.buf = w.buf[:(w.nbit+7)>>3]
}

// writeUintSlow is WriteUint when the window needs room or the value
// needs two stores.
func (w *Writer) writeUintSlow(x uint64, n int) {
	if n < 0 || n > 64 {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		panic(fmt.Sprintf("bitvec: WriteUint width %d out of range", n))
	}
	//ziplint:allow noalloc amortised growth; a Reset writer keeps its capacity
	w.buf = slices.Grow(w.buf, 16)
	if n > 57 {
		w.WriteUint(x>>32, n-32)
		n = 32
	}
	if n > 0 {
		w.WriteUint(x, n)
	}
}

// extend grows the buffer to nbytes, zeroing the new bytes.
func (w *Writer) extend(nbytes int) {
	old := len(w.buf)
	w.buf = slices.Grow(w.buf, nbytes-old)[:nbytes]
	clear(w.buf[old:])
}

// WriteVector appends every bit of v.
func (w *Writer) WriteVector(v *Vector) {
	// Fast path when the writer is byte aligned.
	if w.nbit&7 == 0 {
		w.buf = append(w.buf, v.data...)
		w.nbit += v.n
		w.clearTail()
		return
	}
	w.extend((w.nbit + v.n + 7) >> 3)
	CopyBits(w.buf, w.nbit, v.data, 0, v.n)
	w.nbit += v.n
}

// WriteBytes appends whole bytes (8 bits each).
func (w *Writer) WriteBytes(p []byte) {
	if w.nbit&7 == 0 {
		w.buf = append(w.buf, p...)
		w.nbit += 8 * len(p)
		return
	}
	w.extend((w.nbit + 8*len(p) + 7) >> 3)
	CopyBits(w.buf, w.nbit, p, 0, 8*len(p))
	w.nbit += 8 * len(p)
}

// Pad appends zero bits until the stream is byte aligned, returning
// the number of padding bits added. Mirrors the byte-alignment
// padding the Tofino compiler forces onto non-aligned headers. The
// final byte's unwritten bits are already zero, so padding only
// advances the bit count.
func (w *Writer) Pad() int {
	n := (8 - w.nbit&7) & 7
	w.nbit += n
	return n
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the packed bytes; the final partial byte (if any) is
// zero padded. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, retaining the allocation.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

func (w *Writer) clearTail() {
	if r := w.nbit & 7; r != 0 && len(w.buf) > 0 {
		w.buf[len(w.buf)-1] &= byte(0xFF) << (8 - uint(r))
	}
}

// Reader consumes bits MSB-first from a byte slice. It is the parsing
// half of ZipLine's wire formats. Reads past the end return
// ErrShortBuffer.
type Reader struct {
	data []byte
	pos  int // next bit position
	n    int // total bits available
}

// NewReader returns a Reader over all bits of data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data, n: len(data) * 8}
}

// NewReaderBits returns a Reader over the first nbits of data.
func NewReaderBits(data []byte, nbits int) *Reader {
	if nbits > len(data)*8 {
		panic(fmt.Sprintf("bitvec: NewReaderBits %d > %d available", nbits, len(data)*8))
	}
	return &Reader{data: data, n: nbits}
}

// ResetBits rewinds the Reader over the first nbits of data, so a
// long-lived Reader can parse a stream of blocks without allocating
// one parser per block.
//
//zipline:noalloc
func (r *Reader) ResetBits(data []byte, nbits int) {
	if nbits > len(data)*8 {
		panic(fmt.Sprintf("bitvec: ResetBits %d > %d available", nbits, len(data)*8))
	}
	r.data, r.pos, r.n = data, 0, nbits
}

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.n {
		return false, ErrShortBuffer
	}
	b := r.data[r.pos>>3]>>(7-uint(r.pos&7))&1 == 1
	r.pos++
	return b, nil
}

// ReadUint consumes n bits and returns them as an unsigned integer,
// first bit read being the most significant. Reads of up to 57 bits
// resolve through a single shifted 64-bit window — the record-decode
// hot path never loops per bit.
//
//zipline:noalloc
func (r *Reader) ReadUint(n int) (uint64, error) {
	if n < 0 || n > 64 {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		panic(fmt.Sprintf("bitvec: ReadUint width %d out of range", n))
	}
	if r.pos+n > r.n {
		return 0, ErrShortBuffer
	}
	if n == 0 {
		return 0, nil
	}
	si := r.pos >> 3
	if n <= 57 {
		// After discarding the pos&7 already-consumed bits, the window
		// still holds 64-7 = 57 valid bits.
		var w uint64
		if si+8 <= len(r.data) {
			w = binary.BigEndian.Uint64(r.data[si:])
		} else {
			for j := 0; si+j < len(r.data); j++ {
				w |= uint64(r.data[si+j]) << uint(56-8*j)
			}
		}
		w <<= uint(r.pos & 7)
		r.pos += n
		return w >> uint(64-n), nil
	}
	var x uint64
	for i := 0; i < n; i++ {
		x <<= 1
		if r.data[r.pos>>3]>>(7-uint(r.pos&7))&1 == 1 {
			x |= 1
		}
		r.pos++
	}
	return x, nil
}

// ReadVector consumes n bits into a new Vector.
func (r *Reader) ReadVector(n int) (*Vector, error) {
	if n < 0 || r.pos+n > r.n {
		return nil, ErrShortBuffer
	}
	out := New(n)
	CopyBits(out.data, 0, r.data, r.pos, n)
	r.pos += n
	return out, nil
}

// ReadVectorInto consumes n bits into v, reusing v's storage when it
// has capacity (see Vector.Reset). It is ReadVector for decoders that
// keep one scratch vector per stream.
//
//zipline:noalloc
func (r *Reader) ReadVectorInto(v *Vector, n int) error {
	if n < 0 || r.pos+n > r.n {
		return ErrShortBuffer
	}
	v.Reset(n)
	CopyBits(v.data, 0, r.data, r.pos, n)
	r.pos += n
	return nil
}

// Skip discards n bits.
func (r *Reader) Skip(n int) error {
	if r.pos+n > r.n {
		return ErrShortBuffer
	}
	r.pos += n
	return nil
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.n - r.pos }

// Pos returns the number of bits consumed so far.
func (r *Reader) Pos() int { return r.pos }
