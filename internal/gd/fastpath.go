package gd

import (
	"encoding/binary"
	"fmt"
	"slices"

	"zipline/internal/bitvec"
)

// Fast paths for the Hamming transform operating directly on chunk
// bytes. These avoid per-bit vector surgery on the hot encode and
// decode paths; correctness is pinned to the generic implementation
// by property tests in fastpath_test.go.
//
// The key identity: a chunk is extra·x^n ⊕ B(x) as a 2^m-bit
// polynomial, and x^n ≡ 1 (mod g), so
//
//	CRC(chunk, 2^m bits) = CRC(B) ⊕ extra
//
// letting the syndrome be computed over the whole byte-aligned chunk
// in one table-driven pass — exactly what ZipLine's P4 program does
// with the Tofino CRC extern over the full payload container.
//
// Each operation comes in three shapes: the allocating SplitChunk /
// MergeChunk used by one-shot callers, the scratch-reusing
// SplitChunkInto used by the stream encoders, and the raw-byte
// SplitChunkBytes / MergeChunkBytes that take and return plain byte
// slices — the allocation-free hot path of the public Codec and the
// switch. All three split shapes run the one kernel in SplitChunkInto.

// SplitChunkInto is SplitChunk writing into a caller-owned Split,
// reusing s.Basis's storage when it has capacity. Repeated calls with
// the same Split allocate nothing on the Hamming fast path, which is
// what lets each stream worker encode with a single scratch struct.
// The previous contents of s are overwritten; bases handed to a
// Dictionary are copied on insert, so reuse is safe.
//
// Its Hamming branch is the one split kernel; SplitChunkBytes runs it
// too. It computes the syndrome over the whole chunk, moves the basis
// (chunk bits 1+m onward) into s.Basis and flips the bit the syndrome
// names when it lands inside the basis; flips in the parity range
// vanish with the truncation.
//
//zipline:noalloc
func (c *Codec) SplitChunkInto(chunk []byte, s *Split) error {
	h := c.ham
	if h == nil {
		out, err := c.splitGeneric(chunk)
		if err != nil {
			return err
		}
		*s = out
		return nil
	}
	if len(chunk) != c.ChunkBytes() {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return fmt.Errorf("gd: chunk is %d bytes, codec expects %d", len(chunk), c.ChunkBytes())
	}
	code := h.code
	// A vector's pad bits are always zero and every basis bit is
	// overwritten below, so a scratch basis of the right length is
	// reused without clearing.
	if s.Basis == nil {
		s.Basis = bitvec.New(code.K())
	} else if s.Basis.Len() != code.K() {
		s.Basis.Reset(code.K())
	}
	basis := s.Basis.Bytes()
	extra := chunk[0] >> 7
	syn := code.Engine().Remainder(chunk, c.chunkBits) ^ uint32(extra)
	if c.words256 {
		// Paper §7 configuration, the mirror of mergeHammingBytes: the
		// 247 basis bits are the chunk shifted left nine bit positions,
		// moved as four 64-bit words. The last word's low nine bits
		// are zero, so basis[30]'s padding bit stays clear.
		_ = basis[30]
		u0 := binary.BigEndian.Uint64(chunk[0:8])
		u1 := binary.BigEndian.Uint64(chunk[8:16])
		u2 := binary.BigEndian.Uint64(chunk[16:24])
		u3 := binary.BigEndian.Uint64(chunk[24:32])
		b2 := u2<<9 | u3>>55
		binary.BigEndian.PutUint64(basis[0:8], u0<<9|u1>>55)
		binary.BigEndian.PutUint64(basis[8:16], u1<<9|u2>>55)
		binary.BigEndian.PutUint64(basis[16:24], b2)
		binary.BigEndian.PutUint64(basis[23:31], b2<<56|u3<<9>>8)
	} else {
		bitvec.CopyBits(basis, 0, chunk, 1+code.M(), code.K())
	}
	if rel := code.ErrorPosition(syn) - code.M(); rel >= 0 {
		basis[rel>>3] ^= 1 << (7 - uint(rel&7))
	}
	s.Deviation, s.Extra = syn, extra
	return nil
}

// SplitChunkBytes is SplitChunk without bit vectors: the basis bits
// land in basis, whose capacity is reused append-style (pass the
// previous return value, or nil on first use). The returned slice is
// exactly ceil(BasisBits/8) bytes with zero tail padding.
//
//zipline:noalloc
func (c *Codec) SplitChunkBytes(chunk, basis []byte) (basisOut []byte, deviation uint32, extra uint8, err error) {
	if c.ham == nil {
		s, err := c.splitGeneric(chunk)
		if err != nil {
			return basis, 0, 0, err
		}
		return append(basis[:0], s.Basis.Bytes()...), s.Deviation, s.Extra, nil
	}
	k := c.ham.code.K()
	nb := (k + 7) / 8
	if cap(basis) >= nb {
		basis = basis[:nb]
		basis[nb-1] = 0 // the kernel writes every basis bit but not the padding
	} else {
		//ziplint:allow noalloc grow-to-fit when caller scratch is short; reused scratch never reallocates
		basis = make([]byte, nb)
	}
	// Run the kernel on a vector header over the caller's buffer.
	var v bitvec.Vector
	v.View(basis, k)
	s := Split{Basis: &v}
	if err := c.SplitChunkInto(chunk, &s); err != nil {
		return basis, 0, 0, err
	}
	return basis, s.Deviation, s.Extra, nil
}

// mergeHamming reconstructs one chunk for a Hamming transform without
// intermediate bit vectors, appending to dst.
func (c *Codec) mergeHamming(s Split, dst []byte) ([]byte, error) {
	if k := c.ham.code.K(); s.Basis.Len() != k {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return dst, fmt.Errorf("gd: basis length %d != k=%d", s.Basis.Len(), k)
	}
	return c.mergeHammingBytes(s.Basis.Bytes(), s.Deviation, s.Extra, dst)
}

// MergeChunkBytes is MergeChunk on a raw basis buffer: basis must be
// ceil(BasisBits/8) bytes (tail padding bits are ignored). The chunk
// is appended to dst in place; when dst has spare capacity the call
// allocates nothing.
//
//zipline:noalloc
func (c *Codec) MergeChunkBytes(basis []byte, deviation uint32, extra uint8, dst []byte) ([]byte, error) {
	if len(basis) != (c.t.BasisBits()+7)/8 {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return dst, fmt.Errorf("gd: basis is %d bytes, want %d", len(basis), (c.t.BasisBits()+7)/8)
	}
	if c.ham == nil {
		return c.MergeChunk(Split{
			Basis:     bitvec.FromBytes(basis, c.t.BasisBits()),
			Deviation: deviation,
			Extra:     extra,
		}, dst)
	}
	return c.mergeHammingBytes(basis, deviation, extra, dst)
}

func (c *Codec) mergeHammingBytes(basis []byte, deviation uint32, extra uint8, dst []byte) ([]byte, error) {
	code := c.ham.code
	if deviation >= 1<<uint(code.M()) {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return dst, fmt.Errorf("gd: deviation %#x wider than m=%d bits", deviation, code.M())
	}
	if extra > 1 {
		//ziplint:allow noalloc cold validation branch; never taken on well-formed input
		return dst, fmt.Errorf("gd: extra %#x wider than 1 bit", extra)
	}
	p := code.ParityBytes(basis)

	// Build the chunk directly in dst's grown tail.
	base := len(dst)
	dst = slices.Grow(dst, c.ChunkBytes())[:base+c.ChunkBytes()]
	chunk := dst[base:]
	if c.words256 {
		// Paper §7 configuration (the perf-critical one): the 256-bit
		// chunk is extra | 8 parity bits | 247 basis bits, assembled as
		// four 64-bit words — the basis slides right nine bit positions
		// through shifted word pairs, and basis[30]'s padding LSB falls
		// off the end.
		u0 := binary.BigEndian.Uint64(basis[0:8])
		u1 := binary.BigEndian.Uint64(basis[8:16])
		u2 := binary.BigEndian.Uint64(basis[16:24])
		u3 := binary.BigEndian.Uint64(basis[23:31]) << 8
		binary.BigEndian.PutUint64(chunk[0:8], uint64(extra)<<63|uint64(p)<<55|u0>>9)
		binary.BigEndian.PutUint64(chunk[8:16], u0<<55|u1>>9)
		binary.BigEndian.PutUint64(chunk[16:24], u1<<55|u2>>9)
		binary.BigEndian.PutUint64(chunk[24:32], u2<<55|u3>>9)
	} else {
		clear(chunk)
		if extra == 1 {
			chunk[0] = 0x80
		}
		// Deposit the m parity bits at chunk bit offset 1.
		var ptmp [4]byte
		v := p << uint(32-code.M())
		ptmp[0] = byte(v >> 24)
		ptmp[1] = byte(v >> 16)
		bitvec.CopyBits(chunk, 1, ptmp[:], 0, code.M())
		// Deposit the basis at offset 1+m.
		bitvec.CopyBits(chunk, 1+code.M(), basis, 0, code.K())
	}
	// Re-introduce the deviation bit.
	if pos := code.ErrorPosition(deviation); pos >= 0 {
		cp := pos + 1
		chunk[cp>>3] ^= 1 << (7 - uint(cp&7))
	}
	return dst, nil
}
