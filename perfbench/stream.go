package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"zipline"
	"zipline/internal/bitvec"
	"zipline/internal/gd"
	"zipline/internal/trace"
)

// streamBlock is one operation of stream-sensor: a 64 KiB block is
// written and flushed, then read back from the same stream.
const streamBlock = 64 << 10

// memPipe is the in-memory link between the Writer and the Reader: the
// Writer appends, the Reader consumes, and the buffer rewinds whenever
// the Reader has drained it. It is not an io.Seeker, so the Reader
// takes its plain streaming path.
type memPipe struct {
	buf     []byte
	off     int
	written int64
}

func (p *memPipe) Write(b []byte) (int, error) {
	p.buf = append(p.buf, b...)
	p.written += int64(len(b))
	return len(b), nil
}

func (p *memPipe) Read(b []byte) (int, error) {
	if p.off == len(p.buf) {
		return 0, io.EOF
	}
	n := copy(b, p.buf[p.off:])
	p.off += n
	if p.off == len(p.buf) {
		p.buf, p.off = p.buf[:0], 0
	}
	return n, nil
}

func (p *memPipe) reset() { p.buf, p.off = p.buf[:0], 0 }

// streamLoop drives one serial Writer and one Reader over the dataset
// in whole passes; every pass is a fresh stream (Reset), so every pass
// does the same work.
type streamLoop struct {
	data []byte
	zw   *zipline.Writer
	zr   *zipline.Reader
	pipe *memPipe
	out  []byte

	// Accumulated over the loop's passes.
	lat          *samples // µs per block round trip
	encNs, decNs int64
	raw, comp    int64
	blocks       int64
	failed       int64
	passes       int
}

// pass streams the dataset once.
func (s *streamLoop) pass() {
	s.pipe.reset()
	s.zw.Reset(s.pipe)
	s.zr.Reset(s.pipe)
	start := s.pipe.written
	ok := true
	for off := 0; off < len(s.data); off += streamBlock {
		block := s.data[off:min(off+streamBlock, len(s.data))]
		out := s.out[:len(block)]
		t0 := time.Now()
		_, werr := s.zw.Write(block)
		ferr := s.zw.Flush()
		t1 := time.Now()
		_, rerr := io.ReadFull(s.zr, out)
		t2 := time.Now()
		s.blocks++
		s.encNs += t1.Sub(t0).Nanoseconds()
		s.decNs += t2.Sub(t1).Nanoseconds()
		s.lat.add(float64(t2.Sub(t0).Nanoseconds()) / 1e3)
		s.raw += int64(len(block))
		if werr != nil || ferr != nil || rerr != nil || !bytes.Equal(out, block) {
			// The stream is broken from here on; count the block and
			// start the next pass on a fresh stream.
			s.failed++
			ok = false
			break
		}
	}
	if ok {
		// The trailer must close the stream cleanly: Close, then the
		// Reader sees io.EOF after verifying it.
		cerr := s.zw.Close()
		n, rerr := s.zr.Read(s.out[:1])
		if cerr != nil || n != 0 || !errors.Is(rerr, io.EOF) {
			s.failed++
		}
	}
	s.comp += s.pipe.written - start
	s.passes++
}

// runPasses streams whole passes until d has elapsed (at least one)
// and returns the time taken.
func (s *streamLoop) runPasses(d time.Duration) time.Duration {
	t0 := time.Now()
	for {
		s.pass()
		if el := time.Since(t0); el >= d {
			return el
		}
	}
}

func runStream(c config) (*report, error) {
	records := trace.DefaultSensorRecords
	if c.tiny {
		records = 20_000
	}
	data := trace.Sensor(trace.SensorConfig{Records: records, Seed: derive(c.seed, 1)}).Bytes()

	pipe := &memPipe{buf: make([]byte, 0, 2*streamBlock)}
	s := &streamLoop{data: data, pipe: pipe, out: make([]byte, streamBlock), lat: newSamples(c.seed)}
	rep := &report{lat: s.lat}
	heap0 := liveHeapMB()
	var err error
	rep.setupS, err = repeatSetup(201, func() error {
		if s.zw, err = zipline.NewWriter(pipe, zipline.WithConfig(zipline.Config{})); err != nil {
			return err
		}
		s.zr, err = zipline.NewReader(pipe)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	dur := c.dur
	if c.trace {
		dur /= 2
	}
	m0 := mallocs()
	elapsed := s.runPasses(dur)
	allocs := mallocs() - m0
	rep.heapMB = liveHeapMB() - heap0

	rep.attempted, rep.failed = s.blocks+int64(s.passes), s.failed
	rep.ratio = float64(s.comp) / float64(s.raw)
	rep.figure("roundtrip_mb_s", float64(s.raw)/1e6/elapsed.Seconds(), "MB/s")
	rep.figure("encode_mb_s", float64(s.raw)/1e6/(float64(s.encNs)/1e9), "MB/s")
	rep.figure("decode_mb_s", float64(s.raw)/1e6/(float64(s.decNs)/1e9), "MB/s")
	rep.figure("passes", float64(s.passes), "count")
	if !c.trace {
		return rep, nil
	}

	// Traced half: the layer replay, whose Writer and Reader turns are
	// the untraced loop's calls with the layer passes between them.
	lr, err := replayStreamLayers(data)
	if err != nil {
		return nil, err
	}
	rep.failed += lr.mismatches
	rep.attempted += lr.chunks
	lr.report(rep)
	rep.layer("zipline.allocs_per_mb", float64(allocs)/(float64(s.raw)/1e6))
	chunkBytes := float64(len(data)) / float64(lr.chunks)
	untracedNsPerChunk := float64(s.encNs+s.decNs) / (float64(s.raw) / chunkBytes)
	rep.layer("trace.overhead_pct", overheadPct(untracedNsPerChunk, float64(lr.writer+lr.reader)/float64(lr.chunks)))
	return rep, nil
}

// layerReplay holds the replay totals, in nanoseconds. Each encode
// pass does the Writer's per-chunk work up to one more layer than the
// pass before it, each on its own state, so a layer's cost is the
// difference between two passes that interleave the calls exactly as
// the Writer does; the decode passes do the same for the Reader.
type layerReplay struct {
	chunks, hits, misses, mismatches int64

	writer int64 // zipline.Writer Write+Flush, 64 KiB at a time
	reader int64 // zipline.Reader Read, 64 KiB at a time
	crc    int64 // crc.Engine.Remainder alone
	split  int64 // SplitChunkInto
	dict   int64 // + Dictionary.Lookup, Insert on a miss
	record int64 // + bitvec.Writer record
	insert int64 // Dictionary.Insert of the Writer's misses alone

	read   int64 // bitvec.Reader record
	dictID int64 // + Dictionary.LookupIDTouch, Insert on a miss
	merge  int64 // + MergeChunk
	parity int64 // hamming.Code.ParityBytes alone
}

// replayBatch is how many chunks one timed replay pass covers: 2 MiB of
// input, so the timer's cost stays far below the timed work, and each
// pass runs long enough that refilling the caches the other passes
// evicted (each pass has its own dictionary) is a small share of it.
const replayBatch = (2 << 20) / 32

// replaySink keeps the replayed remainders and parities observable, so
// the compiler cannot drop the calls that produce them.
var replaySink uint32

// replayStreamLayers replays the stream's chunk sequence through the
// functions the serial Writer and Reader call, in their order:
// gd.Codec.SplitChunkInto (whose syndrome is the crc.Engine.Remainder
// call, also timed alone), gd.Dictionary Lookup/Insert and the
// bitvec.Writer record layout; on the way back the bitvec.Reader
// record, gd.Dictionary LookupIDTouch/Insert and gd.Codec.MergeChunk
// (whose parity is the hamming.Code.ParityBytes call, also timed
// alone). The Writer and the Reader themselves take a turn too, on one
// stream across the whole dataset, so the residuals compare times
// taken side by side. Every pass is timed over a whole batch, and the
// passes take turns batch by batch so a drift in machine speed hits
// all of them.
func replayStreamLayers(data []byte) (layerReplay, error) {
	pipe := &memPipe{}
	zw, err := zipline.NewWriter(pipe, zipline.WithConfig(zipline.Config{}))
	if err != nil {
		return layerReplay{}, err
	}
	zr, err := zipline.NewReader(pipe)
	if err != nil {
		return layerReplay{}, err
	}

	h, err := gd.NewHammingM(8)
	if err != nil {
		return layerReplay{}, err
	}
	codec := gd.NewCodec(h)
	code := h.Code()
	eng := code.Engine()
	const idBits = 15
	m, k, chunkBits := codec.DeviationBits(), codec.BasisBits(), codec.ChunkBits()
	cb := codec.ChunkBytes()

	// One dictionary per pass that needs one, so every pass sees the
	// state the Writer or Reader would.
	dictB, dictC, dictI := gd.NewDictionary(idBits), gd.NewDictionary(idBits), gd.NewDictionary(idBits)
	dictD2, dictD3 := gd.NewDictionary(idBits), gd.NewDictionary(idBits)
	var sa, sb, sc gd.Split
	misses := make([]gd.Split, replayBatch)
	missAt := make([]int32, replayBatch)
	bases := make([]*bitvec.Vector, replayBatch)
	bw := bitvec.NewWriter(replayBatch * 32)
	var br bitvec.Reader
	out := make([]byte, 0, replayBatch*32)
	var sink uint32

	var lr layerReplay
	var t0 time.Time
	lap := func(acc *int64) { *acc += time.Since(t0).Nanoseconds() }
	for off := 0; off+cb <= len(data); off += replayBatch * cb {
		n := min(replayBatch, (len(data)-off)/cb)
		batch := data[off : off+n*cb]

		t0 = time.Now()
		for b := 0; b < len(batch) && err == nil; b += streamBlock {
			if _, err = zw.Write(batch[b:min(b+streamBlock, len(batch))]); err == nil {
				err = zw.Flush()
			}
		}
		lap(&lr.writer)
		out = out[:len(batch)]
		t0 = time.Now()
		for b := 0; b < len(batch) && err == nil; b += streamBlock {
			_, err = io.ReadFull(zr, out[b:min(b+streamBlock, len(batch))])
		}
		lap(&lr.reader)
		if err != nil {
			return lr, fmt.Errorf("replay: stream: %w", err)
		}
		if !bytes.Equal(out, batch) {
			lr.mismatches++
		}

		t0 = time.Now()
		for i := 0; i < n; i++ {
			sink ^= eng.Remainder(batch[i*cb:(i+1)*cb], chunkBits)
		}
		lap(&lr.crc)

		t0 = time.Now()
		for i := 0; i < n && err == nil; i++ {
			err = codec.SplitChunkInto(batch[i*cb:(i+1)*cb], &sa)
		}
		lap(&lr.split)

		t0 = time.Now()
		for i := 0; i < n && err == nil; i++ {
			err = codec.SplitChunkInto(batch[i*cb:(i+1)*cb], &sb)
			if _, ok := dictB.Lookup(sb.Basis); !ok {
				dictB.Insert(sb.Basis)
			}
		}
		lap(&lr.dict)

		bw.Reset()
		nmiss := 0
		t0 = time.Now()
		for i := 0; i < n && err == nil; i++ {
			err = codec.SplitChunkInto(batch[i*cb:(i+1)*cb], &sc)
			id, ok := dictC.Lookup(sc.Basis)
			if !ok {
				dictC.Insert(sc.Basis)
			}
			bw.WriteBit(ok)
			bw.WriteUint(uint64(sc.Deviation), m)
			bw.WriteUint(uint64(sc.Extra), 1)
			if ok {
				bw.WriteUint(uint64(id), idBits)
			} else {
				bw.WriteVector(sc.Basis)
				missAt[nmiss] = int32(i)
				nmiss++
			}
		}
		lap(&lr.record)
		if err != nil {
			return lr, err
		}

		// The insert-only pass inserts exactly the bases the pass above
		// missed, in its order, so dictI holds what dictC holds and
		// every timed Insert maps a new basis. The bases are split again
		// untimed.
		for j, i := range missAt[:nmiss] {
			if err = codec.SplitChunkInto(batch[int(i)*cb:(int(i)+1)*cb], &misses[j]); err != nil {
				return lr, err
			}
		}
		t0 = time.Now()
		for _, s := range misses[:nmiss] {
			dictI.Insert(s.Basis)
		}
		lap(&lr.insert)

		// Decode side: the records just written, read three times.
		t0 = time.Now()
		br.ResetBits(bw.Bytes(), bw.Len())
		for i := 0; i < n && err == nil; i++ {
			_, _, err = readRecord(&br, m, k, idBits)
		}
		lap(&lr.read)

		t0 = time.Now()
		br.ResetBits(bw.Bytes(), bw.Len())
		for i := 0; i < n && err == nil; i++ {
			var rec gd.Split
			var id uint32
			if rec, id, err = readRecord(&br, m, k, idBits); err == nil {
				_, err = resolveBasis(dictD2, &rec, id)
			}
		}
		lap(&lr.dictID)

		out = out[:0]
		t0 = time.Now()
		br.ResetBits(bw.Bytes(), bw.Len())
		for i := 0; i < n && err == nil; i++ {
			var rec gd.Split
			var id uint32
			var hit bool
			if rec, id, err = readRecord(&br, m, k, idBits); err == nil {
				if hit, err = resolveBasis(dictD3, &rec, id); err == nil {
					bases[i] = rec.Basis
					out, err = codec.MergeChunk(rec, out)
					if hit {
						lr.hits++
					}
				}
			}
		}
		lap(&lr.merge)
		if err != nil {
			return lr, fmt.Errorf("replay: decode: %w", err)
		}

		t0 = time.Now()
		for i := 0; i < n; i++ {
			sink ^= code.ParityBytes(bases[i].Bytes())
		}
		lap(&lr.parity)

		for i := 0; i < n; i++ {
			if !bytes.Equal(out[i*cb:(i+1)*cb], batch[i*cb:(i+1)*cb]) {
				lr.mismatches++
			}
		}
		lr.misses += int64(nmiss)
		lr.chunks += int64(n)
	}
	replaySink = sink
	if err := zw.Close(); err != nil {
		return lr, err
	}
	if _, err := zr.Read(out[:1]); !errors.Is(err, io.EOF) {
		return lr, fmt.Errorf("replay: stream end: %v", err)
	}
	return lr, nil
}

// readRecord reads one record as the Reader does: hit flag, deviation,
// extra bit, then an identifier (returned) or a whole basis (in the
// Split).
func readRecord(br *bitvec.Reader, m, k, idBits int) (gd.Split, uint32, error) {
	var s gd.Split
	hit, err := br.ReadBit()
	if err != nil {
		return s, 0, err
	}
	dev, err := br.ReadUint(m)
	if err != nil {
		return s, 0, err
	}
	extra, err := br.ReadUint(1)
	if err != nil {
		return s, 0, err
	}
	s.Deviation, s.Extra = uint32(dev), uint8(extra)
	if !hit {
		s.Basis, err = br.ReadVector(k)
		return s, 0, err
	}
	id, err := br.ReadUint(idBits)
	return s, uint32(id), err
}

// resolveBasis mirrors the Reader's dictionary step: a record with a
// basis inserts it, a record with an identifier looks it up with the
// recency refresh. It reports whether the record was a hit.
func resolveBasis(d *gd.Dictionary, s *gd.Split, id uint32) (bool, error) {
	if s.Basis != nil {
		d.Insert(s.Basis)
		return false, nil
	}
	b, ok := d.LookupIDTouch(id)
	if !ok {
		return true, fmt.Errorf("unknown identifier %d", id)
	}
	s.Basis = b
	return true, nil
}

// report derives the per-layer metrics from the pass differences; the
// residuals are the Writer/Reader time per chunk the replayed calls do
// not explain (framing, flushing, copying, call overhead).
func (lr layerReplay) report(rep *report) {
	per := func(ns int64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	c := lr.chunks
	rep.layer("crc.remainder_ns_per_chunk", per(lr.crc, c))
	rep.layer("gd.split_ns_per_chunk", per(lr.split, c))
	rep.layer("gd.dict_lookup_ns", per(lr.dict-lr.split-lr.insert, c))
	rep.layer("gd.dict_insert_ns", per(lr.insert, lr.misses))
	rep.layer("bitvec.write_ns_per_record", per(lr.record-lr.dict, c))
	rep.layer("bitvec.read_ns_per_record", per(lr.read, c))
	rep.layer("gd.dict_lookup_id_ns", per(lr.dictID-lr.read-lr.insert, lr.hits))
	rep.layer("gd.merge_ns_per_chunk", per(lr.merge-lr.dictID, c))
	rep.layer("hamming.parity_ns_per_chunk", per(lr.parity, c))
	rep.layer("gd.dict_hit_ratio", float64(lr.hits)/float64(max(c, 1)))
	rep.layer("zipline.encode_ns_per_chunk", per(lr.writer, c))
	rep.layer("zipline.decode_ns_per_chunk", per(lr.reader, c))
	rep.layer("zipline.encode_residual_ns_per_chunk", per(lr.writer-lr.record, c))
	rep.layer("zipline.decode_residual_ns_per_chunk", per(lr.reader-lr.merge, c))
}
