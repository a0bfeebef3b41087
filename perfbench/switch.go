package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"zipline/internal/bitvec"
	"zipline/internal/gd"
	"zipline/internal/packet"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

const (
	switchBurst = 32   // frames per timed operation
	switchBases = 1024 // bases pre-installed in both dictionaries
	// switchPool is the number of distinct frames sent round-robin. The
	// pool and both tables stay within a core's L2 cache, so the figures
	// measure the per-packet code rather than how busy the machine's
	// shared cache is.
	switchPool = 4093
)

// switchFrames generates the frame pool: sizes in a 7:4:1 mix of 46 B
// (header plus one chunk), 594 B and 1514 B; ~85% carry a chunk whose
// basis is installed (type 3 on the wire), ~10% a fresh random chunk
// (type 2 plus a digest) and ~5% take the forwarding path, half too
// short to hold a chunk and half not raw traffic.
func switchFrames(rng *rand.Rand, codec *gd.Codec, bases [][]byte, n int) ([][]byte, error) {
	hdr := packet.Header{Dst: packet.MAC{2, 0, 0, 0, 0, 2}, Src: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeRaw}
	frames := make([][]byte, n)
	chunk := make([]byte, 0, codec.ChunkBytes())
	for i := range frames {
		var size int
		switch r := rng.Intn(12); {
		case r < 7:
			size = 46
		case r < 11:
			size = 594
		default:
			size = 1514
		}
		payload := make([]byte, size-packet.HeaderLen)
		rng.Read(payload)
		h := hdr
		switch r := rng.Float64(); {
		case r < 0.85:
			var err error
			b := bases[rng.Intn(len(bases))]
			chunk, err = codec.MergeChunkBytes(b, uint32(rng.Intn(1<<codec.DeviationBits())), uint8(rng.Intn(2)), chunk[:0])
			if err != nil {
				return nil, err
			}
			copy(payload, chunk)
		case r < 0.95:
			// A random chunk: its basis is installed nowhere.
		case r < 0.975:
			payload = payload[:20]
		default:
			h.EtherType = 0x0800
		}
		frames[i] = packet.Frame(h, payload)
	}
	return frames, nil
}

// switchPair is an encoder and a decoder pipeline with the same bases
// installed.
type switchPair struct{ enc, dec *tofino.Pipeline }

func loadSwitchPair(bases []*bitvec.Vector) (switchPair, error) {
	load := func(role zswitch.Role) (*tofino.Pipeline, error) {
		prog, err := zswitch.New(zswitch.Config{
			Roles:   map[tofino.Port]zswitch.Role{0: role},
			PortMap: map[tofino.Port]tofino.Port{0: 1},
		})
		if err != nil {
			return nil, err
		}
		return tofino.Load(tofino.Config{Name: role.String()}, prog)
	}
	enc, err := load(zswitch.RoleEncode)
	if err != nil {
		return switchPair{}, err
	}
	dec, err := load(zswitch.RoleDecode)
	if err != nil {
		return switchPair{}, err
	}
	for i, b := range bases {
		id := uint32(i + 1)
		if err := zswitch.InstallBasisToID(enc, b, id, 0); err != nil {
			return switchPair{}, err
		}
		if err := zswitch.InstallIDToBasis(dec, id, b, 0); err != nil {
			return switchPair{}, err
		}
	}
	return switchPair{enc, dec}, nil
}

// switchLoop sends the pool through the pair in bursts, comparing each
// decoded frame with the original.
type switchLoop struct {
	sp             switchPair
	frames         [][]byte
	next           int
	now            int64
	encOut, decOut []tofino.Emit

	lat             *samples // µs per burst
	pkts, failed    int64
	wireIn, wireOut int64
}

// run sends bursts until d has elapsed and returns the time taken.
func (s *switchLoop) run(d time.Duration) time.Duration {
	t0 := time.Now()
	for time.Since(t0) < d {
		b0 := time.Now()
		for j := 0; j < switchBurst; j++ {
			f := s.frames[s.next]
			s.next = (s.next + 1) % len(s.frames)
			s.now++
			s.pkts++
			s.encOut = s.sp.enc.ProcessAppend(s.now, f, 0, s.encOut[:0])
			if len(s.encOut) != 1 {
				s.failed++
				continue
			}
			ef := s.encOut[0].Frame
			s.wireIn += int64(len(f))
			s.wireOut += int64(len(ef))
			s.decOut = s.sp.dec.ProcessAppend(s.now, ef, 0, s.decOut[:0])
			if len(s.decOut) != 1 || !bytes.Equal(s.decOut[0].Frame, f) {
				s.failed++
			}
		}
		s.lat.add(float64(time.Since(b0).Nanoseconds()) / 1e3)
		// The control plane's side, outside the timed burst: digests of
		// unknown bases are collected and dropped (nothing installs
		// them, so the type-2 share stays fixed).
		s.sp.enc.DrainDigests()
	}
	return time.Since(t0)
}

func runSwitch(c config) (*report, error) {
	nframes := switchPool
	if c.tiny {
		nframes = 512
	}
	rng := rand.New(rand.NewSource(derive(c.seed, 3)))
	h, err := gd.NewHammingM(8)
	if err != nil {
		return nil, err
	}
	codec := gd.NewCodec(h)
	bases := make([][]byte, switchBases)
	vecs := make([]*bitvec.Vector, switchBases)
	chunk := make([]byte, codec.ChunkBytes())
	for i := range bases {
		rng.Read(chunk)
		b, _, _, err := codec.SplitChunkBytes(chunk, nil)
		if err != nil {
			return nil, err
		}
		bases[i] = b
		vecs[i] = bitvec.FromBytes(b, codec.BasisBits())
	}
	frames, err := switchFrames(rng, codec, bases, nframes)
	if err != nil {
		return nil, err
	}

	s := &switchLoop{frames: frames, encOut: make([]tofino.Emit, 0, 4), decOut: make([]tofino.Emit, 0, 4), lat: newSamples(c.seed)}
	rep := &report{lat: s.lat}
	heap0 := liveHeapMB()
	var sp switchPair
	rep.setupS, err = repeatSetup(5, func() error {
		sp, err = loadSwitchPair(vecs)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	dur := c.dur
	if c.trace {
		dur /= 2
	}
	s.sp = sp
	m0 := mallocs()
	elapsed := s.run(dur)
	allocs := mallocs() - m0
	rep.heapMB = liveHeapMB() - heap0
	runtime.KeepAlive(vecs) // the inputs, live at both heap readings

	rep.attempted, rep.failed = s.pkts, s.failed
	rep.ratio = float64(s.wireOut) / float64(max(s.wireIn, 1))
	rep.figure("mpps", float64(s.pkts)/elapsed.Seconds()/1e6, "Mpps")
	rep.figure("mb_s", float64(s.wireIn)/1e6/elapsed.Seconds(), "MB/s")
	if !c.trace {
		rep.failed += int64(zswitch.ReadStats(sp.dec).DecodeMiss)
		return rep, nil
	}

	// Traced half: each layer timed alone over the same pool, burst by
	// burst in turn: the encoder, the decoder on the encoder's output
	// for the same frames, and the byte-path split the encoder calls.
	// The encoded pool is made and checked untimed first.
	now := s.now
	out := make([]tofino.Emit, 0, 4)
	encoded := make([][]byte, len(frames))
	for i, f := range frames {
		now++
		out = sp.enc.ProcessAppend(now, f, 0, out[:0])
		if len(out) != 1 {
			return nil, fmt.Errorf("encoder emitted %d frames", len(out))
		}
		encoded[i] = append([]byte(nil), out[0].Frame...)
		now++
		out = sp.dec.ProcessAppend(now, encoded[i], 0, out[:0])
		rep.attempted++
		if len(out) != 1 || !bytes.Equal(out[0].Frame, f) {
			rep.failed++
		}
	}
	sp.enc.DrainDigests()
	burst := func(pl *tofino.Pipeline, pool [][]byte, i int) int64 {
		b0 := time.Now()
		for j := 0; j < switchBurst; j++ {
			now++
			out = pl.ProcessAppend(now, pool[(i+j)%len(pool)], 0, out[:0])
		}
		ns := time.Since(b0).Nanoseconds()
		pl.DrainDigests()
		return ns
	}
	var encNs, decNs, splitNs, pkts, chunks int64
	var basis []byte
	t0 := time.Now()
	for i := s.next; time.Since(t0) < dur; i = (i + switchBurst) % len(frames) {
		encNs += burst(sp.enc, frames, i)
		decNs += burst(sp.dec, encoded, i)
		pkts += switchBurst

		b0 := time.Now()
		for j := 0; j < switchBurst; j++ {
			f := frames[(i+j)%len(frames)]
			if len(f) < packet.HeaderLen+codec.ChunkBytes() || binary.BigEndian.Uint16(f[12:14]) != packet.EtherTypeRaw {
				continue
			}
			basis, _, _, err = codec.SplitChunkBytes(f[packet.HeaderLen:packet.HeaderLen+codec.ChunkBytes()], basis)
			chunks++
		}
		splitNs += time.Since(b0).Nanoseconds()
		if err != nil {
			return nil, err
		}
	}
	rep.layer("zswitch.encode_ns_per_pkt", float64(encNs)/float64(pkts))
	rep.layer("zswitch.decode_ns_per_pkt", float64(decNs)/float64(pkts))
	rep.layer("gd.split_bytes_ns_per_chunk", float64(splitNs)/float64(max(chunks, 1)))
	rep.layer("trace.overhead_pct", overheadPct(s.lat.mean()*1e3/switchBurst, float64(encNs+decNs)/float64(pkts)))

	st := zswitch.ReadStats(sp.enc)
	dst := zswitch.ReadStats(sp.dec)
	rep.failed += int64(dst.DecodeMiss)
	rep.layer("zswitch.allocs_per_pkt", float64(allocs)/float64(max(s.pkts, 1)))
	rep.layer("zswitch.fastpath_share", float64(st.RawToType3)/float64(max(st.Encoded(), 1)))
	rep.layer("zswitch.digests_per_pkt", float64(st.Digests)/float64(max(st.Encoded()+st.Forwarded+st.TooShort, 1)))
	rep.layer("zswitch.decode_miss", float64(dst.DecodeMiss))
	return rep, nil
}
