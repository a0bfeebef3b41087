package zswitch

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"zipline/internal/packet"
	"zipline/internal/tofino"
)

// fuzzPair is an encoder/decoder pair with a few mappings installed.
// The encoder's port 0 encodes and its port 2 forwards (to 3); the
// decoder's port 0 decodes.
type fuzzPair struct {
	prog     *Program
	enc, dec *tofino.Pipeline
	ids      map[uint32]bool
	out      []tofino.Emit
	now      int64
}

// fuzzPayloads are the raw payloads whose bases the pair knows: one
// chunk plus a tail each.
func fuzzPayloads() [][]byte {
	rng := rand.New(rand.NewSource(40))
	out := make([][]byte, 3)
	for i := range out {
		out[i] = make([]byte, 32+8)
		rng.Read(out[i])
	}
	return out
}

func newFuzzPair(tb testing.TB, packed bool) *fuzzPair {
	tb.Helper()
	encProg, err := New(Config{
		Packed:  packed,
		Roles:   map[tofino.Port]Role{0: RoleEncode, 2: RoleForward},
		PortMap: map[tofino.Port]tofino.Port{0: 1, 2: 3},
	})
	if err != nil {
		tb.Fatal(err)
	}
	decProg, err := New(Config{
		Packed:  packed,
		Roles:   map[tofino.Port]Role{0: RoleDecode},
		PortMap: map[tofino.Port]tofino.Port{0: 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	fp := &fuzzPair{prog: encProg, ids: map[uint32]bool{}}
	if fp.enc, err = tofino.Load(tofino.Config{Name: "enc"}, encProg); err != nil {
		tb.Fatal(err)
	}
	if fp.dec, err = tofino.Load(tofino.Config{Name: "dec"}, decProg); err != nil {
		tb.Fatal(err)
	}
	for i, payload := range fuzzPayloads() {
		s, err := encProg.Codec().SplitChunk(payload[:32])
		if err != nil {
			tb.Fatal(err)
		}
		id := uint32(100 + i)
		if err := InstallIDToBasis(fp.dec, id, s.Basis, 0); err != nil {
			tb.Fatal(err)
		}
		if err := InstallBasisToID(fp.enc, s.Basis, id, 0); err != nil {
			tb.Fatal(err)
		}
		fp.ids[id] = true
	}
	return fp
}

// process runs one frame through a pipeline port and returns a durable
// copy of its emissions.
func (fp *fuzzPair) process(pl *tofino.Pipeline, frame []byte, port tofino.Port) []tofino.Emit {
	fp.now++
	fp.out = pl.ProcessAppend(fp.now, frame, port, fp.out[:0])
	pl.DrainDigests()
	out := make([]tofino.Emit, len(fp.out))
	for i, e := range fp.out {
		out[i] = tofino.Emit{Port: e.Port, Frame: bytes.Clone(e.Frame)}
	}
	return out
}

// unmappedType3 reports whether frame is a well-formed type-3 packet
// whose identifier the decoder does not hold.
func (fp *fuzzPair) unmappedType3(frame []byte) bool {
	if len(frame) < packet.HeaderLen ||
		binary.BigEndian.Uint16(frame[12:14]) != packet.EtherTypeCompressed {
		return false
	}
	c, _, err := fp.prog.Format().ParseType3(frame[packet.HeaderLen:])
	return err == nil && !fp.ids[c.ID]
}

// FuzzProcess feeds arbitrary frames into the encode, decode and
// forward ports of a primed pair, in the aligned and the packed wire
// format. No frame may panic the program; forwarding must not touch
// the frame; a type-3 frame with an unmapped identifier must be
// dropped and counted as a decode miss; and any frame, retagged as
// raw traffic, must come back byte-identical through encode and then
// decode.
func FuzzProcess(f *testing.F) {
	hdr := func(etherType uint16) []byte {
		return packet.AppendHeader(nil, packet.Header{
			Dst: testMACs.b, Src: testMACs.a, EtherType: etherType,
		})
	}
	pairs := map[bool]*fuzzPair{false: newFuzzPair(f, false), true: newFuzzPair(f, true)}
	for _, packed := range []bool{false, true} {
		fp := pairs[packed]
		for _, payload := range append(fuzzPayloads(), bytes.Repeat([]byte{0xA5}, 40)) {
			raw := rawFrame(payload)
			f.Add(raw, packed)
			// The encoder's rendering: type 3 for a known basis, type 2
			// otherwise.
			f.Add(fp.process(fp.enc, raw, 0)[0].Frame, packed)
		}
		f.Add(append(hdr(packet.EtherTypeCompressed),
			fp.prog.Format().AppendType3(nil, packet.Compressed{ID: 7})...), packed)
	}
	f.Add([]byte{}, false)
	f.Add(hdr(packet.EtherTypeCompressed), true)
	f.Add(append(hdr(packet.EtherTypeUncompressed), 1, 2, 3), false)
	f.Add(rawFrame([]byte{1, 2, 3}), false)

	f.Fuzz(func(t *testing.T, frame []byte, packed bool) {
		fp := pairs[packed]

		fwd := fp.process(fp.enc, frame, 2)
		if len(fwd) != 1 || fwd[0].Port != 3 || !bytes.Equal(fwd[0].Frame, frame) {
			t.Fatalf("forward port emitted %+v", fwd)
		}

		fp.process(fp.enc, frame, 0)

		miss := ReadStats(fp.dec).DecodeMiss
		dec := fp.process(fp.dec, frame, 0)
		if fp.unmappedType3(frame) {
			if got := ReadStats(fp.dec).DecodeMiss; got != miss+1 || len(dec) != 0 {
				t.Fatalf("unmapped type 3: decode_miss %d→%d, %d emissions", miss, got, len(dec))
			}
		}

		if len(frame) < packet.HeaderLen {
			return
		}
		raw := bytes.Clone(frame)
		binary.BigEndian.PutUint16(raw[12:14], packet.EtherTypeRaw)
		enc := fp.process(fp.enc, raw, 0)
		if len(enc) != 1 {
			t.Fatalf("encode emitted %d frames", len(enc))
		}
		back := fp.process(fp.dec, enc[0].Frame, 0)
		if len(back) != 1 || !bytes.Equal(back[0].Frame, raw) {
			t.Fatalf("raw → encode → decode:\n in %x\nout %+v", raw, back)
		}
	})
}
