package zipline

import (
	"io"
	"sync"

	"zipline/internal/bitvec"
)

// Parallel engines. Both directions parallelise over the checkpoint
// spans of the version-4 container (seekindex.go): at each checkpoint
// the encoder resets its basis dictionary to the frozen prefix, so the
// input between two checkpoints encodes and decodes independently of
// the rest of the stream.
//
// A Writer configured with WithWorkers(n > 1) cuts its input at
// checkpoint boundaries and hands each whole span to one of n workers.
// A worker runs the serial blockEncoder from the frozen prefix and keeps
// the span's groups in memory, cut exactly where the serial writer cuts
// them. The Writer then emits the spans in stream order through
// emitGroup, the function the serial path writes its groups with, which
// assigns sequence numbers, checkpoint flags and index entries. The
// container is therefore byte-identical to a serial WithIndex writer
// with the same interval, whatever the worker count — the software
// analogue of ZipLine running one GD pipeline per switch port. At most
// 2n spans are buffered at once.
//
// A Reader configured with WithWorkers(n > 1) runs the mirror image on
// an indexed stream in a seekable source (idxReader below). Legacy
// sharded containers (versions 2 and 3 with several shards) decode on
// the serial path.

// defaultSpanBytes is the checkpoint span of a parallel Writer given no
// WithIndex interval. Each span re-learns the dictionary from the
// frozen prefix, so the span must be long: on the default trace.Sensor
// dataset 1 MiB spans give ratio 0.110 against 0.104 serial, where the
// 16 KiB seek-oriented index default gives 0.458.
const defaultSpanBytes = 1 << 20

// spanJob carries one checkpoint span through an encode worker. Jobs
// and their buffers are recycled across spans and streams.
type spanJob struct {
	in     []byte // span input, a whole number of chunks
	body   []byte // the span's group bodies, back to back
	groups []spanGroup
	stats  StreamStats
	err    error
	done   chan struct{} // receives one token per encode
}

// spanGroup locates one encoded group in spanJob.body.
type spanGroup struct {
	end    int // end offset of the group's bytes in body
	bitLen uint32
	start  int // offset of the group's first input byte in the span
}

// encode runs the span through enc from the frozen prefix, closing a
// group where the serial writer would: after the chunk that fills a
// block, and at the end of the span.
func (job *spanJob) encode(enc *blockEncoder, cs int) {
	job.body, job.groups, job.stats, job.err = job.body[:0], job.groups[:0], StreamStats{}, nil
	enc.dict.Reset()
	enc.block.Reset()
	enc.stats = &job.stats
	start := 0
	for off := cs; off <= len(job.in); off += cs {
		if job.err = enc.encodeChunk(job.in[off-cs : off]); job.err != nil {
			return
		}
		if len(enc.block.Bytes()) >= defaultBlockBytes || off == len(job.in) {
			job.body = append(job.body, enc.block.Bytes()...)
			job.groups = append(job.groups, spanGroup{end: len(job.body), bitLen: uint32(enc.block.Len()), start: start})
			enc.block.Reset()
			start = off
		}
	}
}

// spanEngine is the span-parallel encoder behind a Writer with
// workers > 1. Its goroutines start on the first dispatched span and
// stop at Close or Reset, so a pooled Writer holds none between
// streams; encoders and span buffers persist.
type spanEngine struct {
	codec   *Codec
	dict    *Dict
	workers int
	span    int // bytes per span: the checkpoint interval

	encs  []*blockEncoder // one per worker, built on first start
	jobs  chan *spanJob   // nil while stopped
	wg    sync.WaitGroup
	queue []*spanJob // dispatched, not yet written, in stream order
	free  []*spanJob
	cur   *spanJob // span being filled by Write
	err   error    // first encode or write error, sticky for the stream
}

func (se *spanEngine) start() {
	cs := se.codec.ChunkSize()
	if se.encs == nil {
		se.encs = make([]*blockEncoder, se.workers)
	}
	// Room for every span dispatch lets queue, so the send never blocks.
	se.jobs = make(chan *spanJob, 2*se.workers)
	for i := range se.encs {
		se.wg.Add(1)
		go func(jobs <-chan *spanJob) {
			defer se.wg.Done()
			if se.encs[i] == nil {
				// Built on the worker's own goroutine, which allocates
				// from its own P's cache: encoders built back to back
				// shared cache lines and slowed every chunk through
				// false sharing.
				enc := newBlockEncoder(se.codec, se.dict)
				enc.block = bitvec.NewWriter(defaultBlockBytes + 256)
				se.encs[i] = enc
			}
			for job := range jobs {
				job.encode(se.encs[i], cs)
				job.done <- struct{}{}
			}
		}(se.jobs)
	}
}

// stop discards every queued span and the one being filled, then waits
// for the workers to exit.
func (se *spanEngine) stop() {
	for _, job := range se.queue {
		<-job.done
		se.free = append(se.free, job)
	}
	se.queue = se.queue[:0]
	if se.cur != nil {
		se.free = append(se.free, se.cur)
		se.cur = nil
	}
	if se.jobs != nil {
		close(se.jobs)
		se.wg.Wait()
		se.jobs = nil
	}
}

// reset returns the engine to its pre-stream state (Writer.Reset).
func (se *spanEngine) reset() {
	se.stop()
	se.err = nil
}

// spanWrite is Writer.Write for workers > 1.
func (zw *Writer) spanWrite(p []byte) (int, error) {
	se := zw.spans
	n := len(p)
	for len(p) > 0 && se.err == nil {
		if se.cur == nil {
			if k := len(se.free); k > 0 {
				se.cur = se.free[k-1]
				se.free = se.free[:k-1]
				se.cur.in = se.cur.in[:0]
			} else {
				// Huge WithIndex spans grow on demand instead.
				se.cur = &spanJob{in: make([]byte, 0, min(se.span, defaultSpanBytes)), done: make(chan struct{}, 1)}
			}
		}
		take := min(se.span-len(se.cur.in), len(p))
		se.cur.in = append(se.cur.in, p[:take]...)
		p = p[take:]
		if len(se.cur.in) == se.span {
			zw.dispatch()
		}
	}
	return n - len(p), se.err
}

// dispatch hands the filled span to the workers, then writes finished
// spans until at most 2n−1 are queued: with the span being filled, at
// most 2n spans are buffered.
func (zw *Writer) dispatch() {
	se := zw.spans
	job := se.cur
	se.cur = nil
	if se.jobs == nil {
		se.start()
	}
	se.queue = append(se.queue, job)
	se.jobs <- job
	for len(se.queue) >= 2*se.workers {
		zw.writeSpan()
	}
}

// writeSpan waits for the oldest queued span, writes it unless the
// stream has already failed, and recycles it.
func (zw *Writer) writeSpan() {
	se := zw.spans
	job := se.queue[0]
	copy(se.queue, se.queue[1:])
	se.queue = se.queue[:len(se.queue)-1]
	<-job.done
	if se.err == nil {
		se.err = zw.emitSpan(job)
	}
	se.free = append(se.free, job)
}

// emitSpan writes one encoded span's groups, the first flagged as a
// checkpoint. Spans go out in order, so the span starts at zw.uncomp.
func (zw *Writer) emitSpan(job *spanJob) error {
	if job.err != nil {
		return job.err
	}
	zw.idx.pending = true
	prev := 0
	for _, g := range job.groups {
		if err := zw.emitGroup(job.body[prev:g.end], g.bitLen, zw.uncomp+int64(g.start)); err != nil {
			return err
		}
		prev = g.end
	}
	zw.uncomp += int64(len(job.in))
	zw.Stats.add(job.stats)
	return nil
}

// closeSpans is the parallel half of Close: it dispatches the
// chunk-aligned part of the last span, writes every queued span and
// stops the workers. The sub-chunk remainder moves to zw.pending for
// the tail group Close writes next.
func (zw *Writer) closeSpans() error {
	se := zw.spans
	if cur := se.cur; cur != nil && se.err == nil {
		full := len(cur.in) / zw.chunkSize * zw.chunkSize
		zw.pending = append(zw.pending[:0], cur.in[full:]...)
		if cur.in = cur.in[:full]; full > 0 {
			zw.dispatch()
		}
	}
	for len(se.queue) > 0 {
		zw.writeSpan()
	}
	se.stop()
	return se.err
}

// segJob carries one checkpoint segment through an idxReader worker.
type segJob struct {
	seg   idxSegment
	stats StreamStats
	out   []byte
	err   error
	done  chan struct{}
}

// idxReader decodes an indexed single-shard (version-4) stream by
// fanning its checkpoint segments out to a worker pool — the segment
// scheduler that lets decode of a serially-written stream scale with
// cores. Each segment starts at a dictionary checkpoint, so a worker
// decodes it against a private dictionary reset to the frozen prefix,
// independent of every other segment; read stitches the decoded
// segments back together in stream order. A feeder goroutine meters
// segments through bounded channels, so a caller that stops reading
// stops the decoding (and its memory) too.
type idxReader struct {
	order chan *segJob
	stop  chan struct{}
	once  sync.Once

	outPool sync.Pool // decoded segment buffers, recycled once drained

	cur    []byte
	curBuf []byte
}

// newIdxReader builds the segment scheduler for the stream whose
// header zr has just parsed, loading and validating the trailing
// index. It returns (nil, nil) when the fan-out does not apply — the
// source is not an io.ReaderAt, or the index has fewer than two
// segments — leaving the source repositioned for the serial path. A
// corrupt or truncated footer is an error.
func newIdxReader(zr *Reader) (*idxReader, error) {
	ra, ok := zr.r.(io.ReaderAt)
	if !ok || zr.seeker == nil {
		return nil, nil
	}
	cur, err := zr.seeker.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, nil
	}
	ix, err := readIndexFooter(zr.seeker, zr.origin)
	if err != nil {
		return nil, err
	}
	zr.idx = ix
	segs := ix.segments()
	if len(segs) < 2 {
		// One segment decodes as fast serially; rewind to the first
		// group for the streaming path.
		if _, err := zr.seeker.Seek(cur, io.SeekStart); err != nil {
			return nil, err
		}
		return nil, nil
	}
	workers := zr.set.workers
	if workers > len(segs) {
		workers = len(segs)
	}
	ir := &idxReader{
		order: make(chan *segJob, 2*workers),
		stop:  make(chan struct{}),
	}
	jobs := make(chan *segJob)
	for i := 0; i < workers; i++ {
		go ir.worker(jobs, zr.codec, zr.streamDict, zr.version, zr.shards, ra, zr.origin)
	}
	go func() {
		defer close(jobs)
		defer close(ir.order)
		for i := range segs {
			job := &segJob{seg: segs[i], done: make(chan struct{})}
			select {
			case ir.order <- job:
			case <-ir.stop:
				return
			}
			select {
			case jobs <- job:
			case <-ir.stop:
				return
			}
		}
	}()
	return ir, nil
}

// worker decodes segments as the feeder hands them out, reusing one
// decoder (dictionary reset per segment) and one body buffer.
func (ir *idxReader) worker(jobs <-chan *segJob, codec *Codec, dict *Dict, version uint8, shards int, ra io.ReaderAt, origin int64) {
	var dec *blockDecoder
	var body []byte
	for job := range jobs {
		if dec == nil {
			dec = newBlockDecoder(codec, &job.stats, dict)
		} else {
			dec.stats = &job.stats
			dec.dict.Reset()
		}
		var out []byte
		if b, _ := ir.outPool.Get().([]byte); b != nil {
			out = b[:0]
		}
		seg := job.seg
		sr := io.NewSectionReader(ra, origin+int64(seg.compStart), int64(seg.compEnd-seg.compStart))
		job.out, body, job.err = decodeSegment(sr, dec, version, shards, seg, body, out)
		close(job.done)
	}
}

// read is Reader.Read for the indexed fan-out path. Stats fold in
// segment by segment as each is consumed, so they are complete once
// io.EOF is returned.
func (ir *idxReader) read(zr *Reader, p []byte) (int, error) {
	for len(ir.cur) == 0 {
		if ir.curBuf != nil {
			ir.outPool.Put(ir.curBuf[:0])
			ir.curBuf = nil
		}
		job, ok := <-ir.order
		if !ok {
			zr.err = io.EOF
			return 0, zr.err
		}
		<-job.done
		if job.err != nil {
			zr.err = job.err
			ir.release()
			return 0, zr.err
		}
		zr.Stats.add(job.stats)
		ir.cur, ir.curBuf = job.out, job.out
	}
	n := copy(p, ir.cur)
	ir.cur = ir.cur[n:]
	return n, nil
}

// release unblocks the feeder so the pool can exit early.
func (ir *idxReader) release() {
	//ziplint:allow noalloc one-time closure under sync.Once at stream teardown
	ir.once.Do(func() { close(ir.stop) })
}
