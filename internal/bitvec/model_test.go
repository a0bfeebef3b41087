package bitvec

import (
	"bytes"
	"math/rand"
	"testing"
)

// refWriter is the bit-at-a-time model of Writer: one bool per bit,
// packed MSB-first with zero padding on demand.
type refWriter struct{ bits []bool }

func (r *refWriter) writeUint(x uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		r.bits = append(r.bits, x>>uint(i)&1 == 1)
	}
}

func (r *refWriter) writeVector(v *Vector) {
	for i := 0; i < v.Len(); i++ {
		r.bits = append(r.bits, v.Bit(i))
	}
}

func (r *refWriter) bytes() []byte {
	out := make([]byte, (len(r.bits)+7)/8)
	for i, b := range r.bits {
		if b {
			out[i>>3] |= 1 << (7 - uint(i&7))
		}
	}
	return out
}

// dirtyWriter returns a Writer whose spare capacity is full of set
// bits, so any byte the window stores without overwriting shows up.
func dirtyWriter() *Writer {
	w := NewWriter(64)
	w.WriteBytes(bytes.Repeat([]byte{0xFF}, 64))
	w.Reset()
	return w
}

func checkWriter(t *testing.T, w *Writer, ref *refWriter, what string) {
	t.Helper()
	if w.Len() != len(ref.bits) {
		t.Fatalf("%s: Len %d, model %d", what, w.Len(), len(ref.bits))
	}
	if got, want := w.Bytes(), ref.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s: bytes\n%08b\nmodel\n%08b", what, got, want)
	}
}

func TestWriteUintEveryWidthAndAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for off := 0; off < 8; off++ {
		for n := 0; n <= 64; n++ {
			w, ref := dirtyWriter(), &refWriter{}
			lead := rng.Uint64()
			w.WriteUint(lead, off)
			ref.writeUint(lead, off)
			// Bits of x above n must be ignored.
			x := rng.Uint64()
			w.WriteUint(x, n)
			ref.writeUint(x, n)
			checkWriter(t, w, ref, "WriteUint")
		}
	}
}

func TestWriterMatchesBitModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		w, ref := dirtyWriter(), &refWriter{}
		for op := 0; op < 40; op++ {
			switch rng.Intn(7) {
			case 0:
				b := rng.Intn(2) == 1
				w.WriteBit(b)
				ref.bits = append(ref.bits, b)
			case 1, 2:
				x, n := rng.Uint64(), rng.Intn(65)
				w.WriteUint(x, n)
				ref.writeUint(x, n)
			case 3:
				v := New(rng.Intn(260))
				for i := 0; i < v.Len(); i++ {
					v.Set(i, rng.Intn(2) == 1)
				}
				w.WriteVector(v)
				ref.writeVector(v)
			case 4:
				p := make([]byte, rng.Intn(12))
				rng.Read(p)
				w.WriteBytes(p)
				for _, b := range p {
					ref.writeUint(uint64(b), 8)
				}
			case 5:
				n := w.Pad()
				if want := (8 - len(ref.bits)%8) % 8; n != want {
					t.Fatalf("trial %d: Pad added %d bits, want %d", trial, n, want)
				}
				ref.writeUint(0, n)
			case 6:
				if rng.Intn(4) == 0 {
					w.Reset()
					ref.bits = ref.bits[:0]
				}
			}
			checkWriter(t, w, ref, "op")
		}
	}
}

// readVectorSlow is the bit-loop reference ReadVector replaced.
func readVectorSlow(r *Reader, n int) *Vector {
	out := New(n)
	for i := 0; i < n; i++ {
		b, _ := r.ReadBit()
		out.Set(i, b)
	}
	return out
}

func TestReadVectorEveryAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 64)
	rng.Read(data)
	scratch := New(512) // reused with spare capacity and stale bits
	for i := range scratch.data {
		scratch.data[i] = 0xFF
	}
	for align := 0; align < 8; align++ {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 120, 247, 256, 400} {
			ref := NewReader(data)
			ref.Skip(align)
			want := readVectorSlow(ref, n)

			r := NewReader(data)
			r.Skip(align)
			got, err := r.ReadVector(n)
			if err != nil || !got.Equal(want) || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("align %d n %d: ReadVector %s, want %s (%v)", align, n, got, want, err)
			}
			r2 := NewReader(data)
			r2.Skip(align)
			if err := r2.ReadVectorInto(scratch, n); err != nil || !bytes.Equal(scratch.Bytes(), want.Bytes()) || scratch.Len() != n {
				t.Fatalf("align %d n %d: ReadVectorInto %s, want %s (%v)", align, n, scratch, want, err)
			}
			if r.Pos() != align+n || r2.Pos() != align+n {
				t.Fatalf("align %d n %d: positions %d/%d, want %d", align, n, r.Pos(), r2.Pos(), align+n)
			}
		}
	}
}

func TestReadVectorIntoShortAndZeroAllocs(t *testing.T) {
	r := NewReaderBits([]byte{0xAB, 0xCD}, 12)
	v := New(16)
	if err := r.ReadVectorInto(v, 13); err != ErrShortBuffer {
		t.Fatalf("over-read err = %v", err)
	}
	if r.Pos() != 0 {
		t.Fatalf("failed read moved Pos to %d", r.Pos())
	}
	data := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		r.ResetBits(data, len(data)*8)
		r.Skip(3)
		if err := r.ReadVectorInto(v, 247); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadVectorInto = %v allocs/op, want 0", allocs)
	}
}
