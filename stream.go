package zipline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"zipline/internal/bitvec"
	"zipline/internal/gd"
)

// Stream container format:
//
//	header:  "ZLGD" | version u8 | m u8 | idBits u8 | t u8
//	blocks:  u32le byteLen | u32le bitLen | payload
//	trailer: a block with byteLen == 0
//
// Each block carries bit-packed records that never straddle blocks:
//
//	tag 0 (1 bit)  miss: deviation(m) | extra(1) | basis(k)
//	tag 1 (1 bit)  hit:  deviation(m) | extra(1) | id(idBits)
//
// plus, only as the final record of the final data block,
//
//	tail marker: a miss/hit record cannot start with bitLen < 2, so a
//	block whose first byte is 0xFF after records end encodes the tail:
//	0xFF | u16le length | raw bytes.
//
// Misses insert the basis into an LRU dictionary; the decoder applies
// identical insertions and lookups, so identifier assignment evolves
// in lockstep on both sides without any side channel — the streaming
// analogue of the control-plane protocol.
//
// Version 2 is the legacy sharded container, written by earlier
// releases' parallel writer and now only read. The 8-byte header above
// is followed by
//
//	u8 shards | u8 reserved ×3
//
// and blocks become 16-byte-headed groups, one per input segment:
//
//	u32le byteLen | u32le bitLen | u32le seq | u8 shard | u8 reserved ×3
//
// seq counts groups from zero; shard names the basis dictionary the
// group's records were encoded against (the legacy writer assigned
// segment seq to shard seq mod shards). The serial Reader keeps one
// decoder per shard and replays each group against its recorded
// shard, so identifier assignment stays in lockstep per shard. The
// tail marker and the all-zero trailer group work as in version 1.
// Record payloads are identical across versions.
//
// Version 3 is the dictionary-framed container written when a serial
// Writer is configured with WithDict. It uses the version-2 group
// framing with shards == 1 (sharded version-3 streams, from the legacy
// parallel writer, are read-only like version 2) but the second
// extension byte carries flags, and flagDict appends
//
//	u32le dictID | u32le dictBases
//
// identifying the shared pre-trained dictionary (Dict.ID / Dict.Len)
// whose bases occupy identifiers [0, dictBases) of every shard. A
// reader that was not handed the same Dict rejects the stream with
// ErrDictRequired or ErrDictMismatch instead of misdecoding.
//
// Version 4 is the seekable (indexed) container written under
// WithIndex and by every parallel Writer. It uses the version-3
// framing with one shard (flags may still include flagDict) plus
// flagIndex, and gives the fourteenth group-header byte
// meaning as per-group flags: groupFlagCheckpoint marks a group before
// which the encoder reset its basis dictionary to the frozen prefix,
// so a streaming decoder replays the reset in-band while an indexed
// decoder may start at the group cold. After the trailer group the
// writer appends the trailing index footer (see seekindex.go); readers
// that stop at the trailer never see it.
const (
	streamMagic = "ZLGD"
	streamV1    = 1 // serial container
	streamV2    = 2 // legacy sharded container (read-only)
	streamV3    = 3 // dictionary-framed container (WithDict)
	streamV4    = 4 // indexed/seekable container (WithIndex, WithWorkers > 1)
)

// flagDict marks a version ≥ 3 stream that records its pre-trained
// dictionary in the extended header; flagIndex marks a version-4
// stream carrying the trailing seek index.
const (
	flagDict  = 1 << 0
	flagIndex = 1 << 1
)

// groupFlagCheckpoint, in a version-4 group header's flags byte, marks
// a group encoded from a dictionary holding only the frozen prefix:
// the encoder reset its dynamic entries immediately before it.
const groupFlagCheckpoint = 1 << 0

// ErrCorrupt reports an undecodable stream.
var ErrCorrupt = errors.New("zipline: corrupt stream")

// ErrDictRequired reports a dictionary-framed stream offered to a
// Reader that holds no dictionary (pass the fleet's Dict via
// WithDict).
var ErrDictRequired = errors.New("zipline: stream requires a pre-trained dictionary")

// ErrDictMismatch reports a dictionary-framed stream whose recorded
// dictionary identity does not match the Reader's WithDict.
var ErrDictMismatch = errors.New("zipline: dictionary does not match stream")

// ErrNoIndex reports a Seek or ReadAt against a stream that carries no
// trailing index (it was not written with WithIndex).
var ErrNoIndex = errors.New("zipline: stream has no seek index")

// errReaderClosed poisons reads after Close.
var errReaderClosed = errors.New("zipline: reader closed")

// truncErr maps a mid-structure read failure to io.ErrUnexpectedEOF:
// a container that ends cleanly between frames surfaces io.EOF from
// the framing layer, but one cut inside a header, body, trailer or
// footer must never read as a clean end of stream.
func truncErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

const (
	defaultBlockBytes = 64 << 10
	maxBlockBytes     = 1 << 24
	maxTailBytes      = 0xFFFF

	// maxPooledBlockLen caps the block-body scratch a Reader keeps
	// across blocks and Resets; larger (corrupt-header) bodies get a
	// throwaway buffer instead.
	maxPooledBlockLen = 1 << 20
)

// tailBlockFlag marks the bitLen word of a raw tail block.
const tailBlockFlag = 1 << 31

// blockEncoder is the reusable encode unit shared by the serial path
// and every parallel worker: it turns fixed-size chunks into
// bit-packed records against one basis dictionary (optionally seeded
// with a shared frozen Dict). The stats destination is a field so a
// worker can repoint it at the current span.
type blockEncoder struct {
	codec *Codec
	dict  *gd.Dictionary
	block *bitvec.Writer
	stats *StreamStats
	split gd.Split // scratch reused across chunks

	// Hoisted from the codec at construction so the per-chunk record
	// loop reads two ints and a pointer instead of chasing the config
	// through method calls every chunk.
	inner  *gd.Codec
	m      int // deviation width, bits
	idBits int
}

func newBlockEncoder(codec *Codec, d *Dict) *blockEncoder {
	dict := newStreamDictionary(codec, d)
	return &blockEncoder{
		codec:  codec,
		dict:   dict,
		inner:  codec.inner,
		m:      codec.DeviationBits(),
		idBits: codec.cfg.IDBits,
	}
}

// newStreamDictionary builds the per-stream basis dictionary, seeded
// with the shared frozen prefix when a Dict is in play.
func newStreamDictionary(codec *Codec, d *Dict) *gd.Dictionary {
	if d != nil {
		return gd.NewDictionaryFrozen(codec.cfg.IDBits, d.frozen)
	}
	return gd.NewDictionary(codec.cfg.IDBits)
}

// encodeChunk appends one chunk's record to the current block. The
// record's fixed fields (tag, deviation, extra and, for a hit, the
// identifier) go out as one packed WriteUint.
//
//zipline:noalloc
func (e *blockEncoder) encodeChunk(chunk []byte) error {
	if err := e.inner.SplitChunkInto(chunk, &e.split); err != nil {
		return err
	}
	e.stats.Chunks++
	fixed := uint64(e.split.Deviation)<<1 | uint64(e.split.Extra)
	if id, ok := e.dict.Lookup(e.split.Basis); ok {
		e.block.WriteUint((1<<(e.m+1)|fixed)<<e.idBits|uint64(id), e.m+2+e.idBits)
		e.stats.Hits++
	} else {
		e.dict.Insert(e.split.Basis)
		e.block.WriteUint(fixed, e.m+2)
		e.block.WriteVector(e.split.Basis)
		e.stats.Misses++
	}
	return nil
}

// blockDecoder is the matching decode unit: it replays the record
// blocks of one dictionary timeline (one shard of a legacy sharded
// stream) against one basis dictionary, mirroring the encoder's
// insertions and recency refreshes.
type blockDecoder struct {
	codec *Codec
	dict  *gd.Dictionary
	stats *StreamStats
	br    bitvec.Reader // reused per block; live only inside decodeRecords
	miss  bitvec.Vector // a miss record's basis, copied on into the dictionary
}

func newBlockDecoder(codec *Codec, stats *StreamStats, d *Dict) *blockDecoder {
	return &blockDecoder{codec: codec, dict: newStreamDictionary(codec, d), stats: stats}
}

// decodeRecords replays one block of records, appending the decoded
// bytes to out.
func (d *blockDecoder) decodeRecords(body []byte, bitLen int, out []byte) ([]byte, error) {
	br := &d.br
	br.ResetBits(body, bitLen)
	// body is borrowed scratch; drop the reference on every exit so the
	// decoder never pins a caller's buffer between blocks.
	defer br.ResetBits(nil, 0)
	m := d.codec.DeviationBits()
	k := d.codec.BasisBits()
	idBits := d.codec.cfg.IDBits
	for br.Remaining() > 0 {
		// tag | deviation | extra in one read.
		fixed, err := br.ReadUint(m + 2)
		if err != nil {
			return out, fmt.Errorf("%w: truncated record", ErrCorrupt)
		}
		var basis *bitvec.Vector
		if fixed>>(m+1) == 1 {
			id, err := br.ReadUint(idBits)
			if err != nil {
				return out, fmt.Errorf("%w: truncated identifier", ErrCorrupt)
			}
			// Mirrors the encoder's lookup including its recency refresh.
			b, ok := d.dict.LookupIDTouch(uint32(id))
			if !ok {
				return out, fmt.Errorf("%w: unknown identifier %d", ErrCorrupt, id)
			}
			basis = b
			d.stats.Hits++
		} else {
			if err := br.ReadVectorInto(&d.miss, k); err != nil {
				return out, fmt.Errorf("%w: truncated basis", ErrCorrupt)
			}
			d.dict.Insert(&d.miss)
			basis = &d.miss
			d.stats.Misses++
		}
		d.stats.Chunks++
		out, err = d.codec.inner.MergeChunk(gd.Split{
			Basis:     basis,
			Deviation: uint32(fixed>>1) & (1<<m - 1),
			Extra:     uint8(fixed & 1),
		}, out)
		if err != nil {
			return out, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return out, nil
}

// parseTailBlock validates a raw tail block body and returns the tail
// bytes (aliasing body).
func parseTailBlock(body []byte) ([]byte, error) {
	if len(body) < 3 || body[0] != 0xFF {
		return nil, fmt.Errorf("%w: malformed tail block", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(body[1:3]))
	if len(body) != 3+n {
		return nil, fmt.Errorf("%w: tail length mismatch", ErrCorrupt)
	}
	return body[3:], nil
}

// appendTailBlock encodes the tail body: 0xFF | u16le length | bytes.
func appendTailBlock(dst, tail []byte) []byte {
	dst = append(dst, 0xFF)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(tail)))
	return append(dst, tail...)
}

// Writer compresses a byte stream with GD. One type serves every
// operating mode, selected by Options at construction:
//
//   - WithWorkers(1) (the default) encodes serially on the caller's
//     goroutine, buffering at most one chunk of input plus one output
//     block.
//   - WithIndex makes the container seekable (version 4): the
//     dictionary restarts from the frozen prefix at every checkpoint.
//   - WithWorkers(n > 1) encodes whole checkpoint spans on n workers
//     and writes the same bytes as a serial WithIndex writer with the
//     same interval (1 MiB when WithIndex gives none), buffering at
//     most 2n spans.
//   - WithDict shares a pre-trained basis dictionary with every
//     encoder and decoder and records it in the container.
//
// Close flushes the tail and the trailer; the stream is unreadable
// without it. A finished Writer can be handed a new stream with Reset,
// re-serving from a pool without re-allocating its dictionary, block
// buffer or (with a warm Dict) anything at all. Streaming methods must
// not be called concurrently; EncodeAll may be called from any number
// of goroutines at any time.
type Writer struct {
	w     io.Writer
	set   settings
	codec *Codec

	enc       *blockEncoder // serial engine (workers == 1)
	spans     *spanEngine   // span-parallel engine (workers > 1)
	pending   []byte        // partial input chunk; the tail at Close
	chunkSize int           // hoisted codec.ChunkSize()

	grouped bool   // 16-byte group framing (v3+)
	seq     uint32 // next group sequence number

	// Trailing-index accumulation (WithIndex or workers > 1).
	idx     *writerIndex
	written int64 // compressed bytes emitted (writeOut)
	uncomp  int64 // uncompressed bytes consumed into groups

	wroteHeader bool
	closed      bool
	closeErr    error

	scratch [24]byte // header/trailer assembly, keeps flushes alloc-free

	ePool sync.Pool // pooled one-shot encoders for EncodeAll

	// Stats accumulate over the current stream (valid after Close for
	// workers > 1; Reset clears them). EncodeAll does not touch Stats.
	Stats StreamStats
}

// StreamStats counts records and bytes through a Writer or Reader.
type StreamStats struct {
	Chunks    uint64
	Hits      uint64
	Misses    uint64
	TailBytes uint64
}

// add accumulates o into s.
func (s *StreamStats) add(o StreamStats) {
	s.Chunks += o.Chunks
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.TailBytes += o.TailBytes
}

// NewWriter builds a compressing writer. Options select the operating
// point (WithConfig), concurrency (WithWorkers), seekability
// (WithIndex) and shared dictionary (WithDict); a bare Config is
// accepted as an option for compatibility with the pre-options
// signature. w may be nil for a Writer used only through EncodeAll.
func NewWriter(w io.Writer, opts ...Option) (*Writer, error) {
	set, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	codec, err := NewCodec(set.cfg)
	if err != nil {
		return nil, err
	}
	set.cfg = codec.cfg
	return newWriter(w, set, codec), nil
}

// newWriter assembles the engine set selects around an existing codec
// (shared by NewWriter and the EncodeAll pool).
func newWriter(w io.Writer, set settings, codec *Codec) *Writer {
	zw := &Writer{w: w, set: set, codec: codec, chunkSize: codec.ChunkSize()}
	var every int64
	switch {
	case set.index:
		every = int64(set.indexEvery)
		if every == 0 {
			every = defaultCheckpointBytes
		}
	case set.workers > 1:
		every = defaultSpanBytes
	}
	if every > 0 {
		// Checkpoints land on chunk boundaries: round the interval up
		// to a whole chunk.
		if rem := every % int64(zw.chunkSize); rem != 0 {
			every += int64(zw.chunkSize) - rem
		}
		zw.idx = &writerIndex{every: every}
		zw.idx.reset()
	}
	zw.grouped = set.dict != nil || zw.idx != nil
	if set.workers > 1 {
		zw.spans = &spanEngine{codec: codec, dict: set.dict, workers: set.workers, span: int(every)}
		return zw
	}
	zw.enc = newBlockEncoder(codec, set.dict)
	zw.enc.block = bitvec.NewWriter(defaultBlockBytes + 256)
	zw.enc.stats = &zw.Stats
	return zw
}

// version returns the container version this writer emits.
func (zw *Writer) version() uint8 {
	switch {
	case zw.idx != nil:
		return streamV4
	case zw.set.dict != nil:
		return streamV3
	default:
		return streamV1
	}
}

// Reset discards the current stream state and directs the writer at a
// new destination, keeping every allocation: the basis dictionary
// (cleared back to its frozen prefix), the block buffer, and — for
// workers > 1 — the per-worker encoders and span buffers. A pooled
// Writer re-serves short streams with zero steady-state allocations
// when its dictionary is warm.
//
//zipline:noalloc
func (zw *Writer) Reset(w io.Writer) {
	if zw.spans != nil {
		zw.spans.reset()
	}
	zw.w = w
	zw.pending = zw.pending[:0]
	zw.seq = 0
	zw.written, zw.uncomp = 0, 0
	zw.wroteHeader, zw.closed = false, false
	zw.closeErr = nil
	zw.Stats = StreamStats{}
	if zw.enc != nil {
		zw.enc.block.Reset()
		zw.enc.dict.Reset()
	}
	if zw.idx != nil {
		zw.idx.reset()
	}
}

// Write implements io.Writer.
func (zw *Writer) Write(p []byte) (int, error) {
	if zw.closed {
		return 0, fmt.Errorf("zipline: write after Close")
	}
	if zw.w == nil {
		return 0, fmt.Errorf("zipline: Writer has no destination (NewWriter(nil, ...) serves EncodeAll only)")
	}
	if err := zw.writeHeader(); err != nil {
		return 0, err
	}
	if zw.spans != nil {
		return zw.spanWrite(p)
	}
	n := len(p)
	cs := zw.chunkSize
	// Drain the pending partial chunk first.
	if len(zw.pending) > 0 {
		need := cs - len(zw.pending)
		if need > len(p) {
			zw.pending = append(zw.pending, p...)
			return n, nil
		}
		zw.pending = append(zw.pending, p[:need]...)
		p = p[need:]
		if err := zw.encodeChunk(zw.pending); err != nil {
			return 0, err
		}
		zw.pending = zw.pending[:0]
	}
	for len(p) >= cs {
		if err := zw.encodeChunk(p[:cs]); err != nil {
			return 0, err
		}
		p = p[cs:]
	}
	zw.pending = append(zw.pending, p...)
	return n, nil
}

// Flush writes every buffered complete-chunk record through to the
// destination as one container block, so a streaming peer can decode
// the data written so far without waiting for Close — the primitive
// the ziphttp gateway's http.Flusher path and the zipline-proxy
// per-segment forwarding are built on. Bytes of a trailing partial
// chunk (fewer than the codec's ChunkSize) stay pending until further
// input completes the chunk or Close emits them as the raw tail: the
// container carries records at chunk granularity, so a mid-stream
// flush cannot move them. Flushing before any input still forces the
// stream header out. Flush requires the serial engine
// (WithWorkers(1)); the parallel writer buffers whole spans and
// returns an error. On an indexed (WithIndex) writer every flushed
// block is recorded in the trailing index as usual.
func (zw *Writer) Flush() error {
	if zw.closed {
		return fmt.Errorf("zipline: flush after Close")
	}
	if zw.w == nil {
		return fmt.Errorf("zipline: Writer has no destination (NewWriter(nil, ...) serves EncodeAll only)")
	}
	if zw.spans != nil {
		return fmt.Errorf("zipline: Flush requires the serial writer (WithWorkers(1))")
	}
	if err := zw.writeHeader(); err != nil {
		return err
	}
	return zw.flushBlock()
}

// writeHeader emits the container header (with the v3+ extension and
// dict frame as configured) from the writer's scratch, so the
// steady-state pooled path allocates nothing.
func (zw *Writer) writeHeader() error {
	if zw.wroteHeader {
		return nil
	}
	zw.wroteHeader = true
	cfg := zw.codec.cfg
	b := append(zw.scratch[:0], streamMagic...)
	b = append(b, zw.version(), byte(cfg.M), byte(cfg.IDBits), byte(cfg.T))
	if zw.grouped {
		var flags byte
		if zw.set.dict != nil {
			flags |= flagDict
		}
		if zw.idx != nil {
			flags |= flagIndex
		}
		b = append(b, 1, flags, 0, 0) // one shard: every writer keeps one dictionary timeline
		if zw.set.dict != nil {
			b = binary.LittleEndian.AppendUint32(b, zw.set.dict.id)
			b = binary.LittleEndian.AppendUint32(b, uint32(zw.set.dict.Len()))
		}
	}
	return zw.writeOut(b)
}

// writeOut forwards b to the destination, tracking the compressed
// offset the trailing index records.
//
//zipline:noalloc
func (zw *Writer) writeOut(b []byte) error {
	n, err := zw.w.Write(b)
	zw.written += int64(n)
	return err
}

//zipline:noalloc
func (zw *Writer) encodeChunk(chunk []byte) error {
	if zw.idx != nil {
		if zw.uncomp >= zw.idx.nextCkpt {
			// Checkpoint: close the current group and reset the basis
			// dictionary to the frozen prefix, so the group starting
			// with this chunk is decodable cold from the index.
			if err := zw.flushBlock(); err != nil {
				return err
			}
			zw.enc.dict.Reset()
			zw.idx.pending = true
			zw.idx.nextCkpt = zw.uncomp + zw.idx.every
		}
		if zw.enc.block.Len() == 0 {
			zw.idx.groupStart = zw.uncomp
		}
	}
	if err := zw.enc.encodeChunk(chunk); err != nil {
		return err
	}
	zw.uncomp += int64(len(chunk))
	if len(zw.enc.block.Bytes()) >= defaultBlockBytes {
		return zw.flushBlock()
	}
	return nil
}

// blockHeader assembles a block (v1) or group (v3+) header in the
// writer's scratch, consuming a sequence number in grouped mode.
// gflags fills the version-4 group-flags byte (zero elsewhere).
func (zw *Writer) blockHeader(byteLen, bitWord uint32, gflags byte) []byte {
	binary.LittleEndian.PutUint32(zw.scratch[0:], byteLen)
	binary.LittleEndian.PutUint32(zw.scratch[4:], bitWord)
	if !zw.grouped {
		return zw.scratch[:8]
	}
	binary.LittleEndian.PutUint32(zw.scratch[8:], zw.seq)
	zw.seq++
	zw.scratch[12], zw.scratch[13], zw.scratch[14], zw.scratch[15] = 0, gflags, 0, 0
	return zw.scratch[:16]
}

//zipline:noalloc
func (zw *Writer) flushBlock() error {
	block := zw.enc.block
	if block.Len() == 0 {
		return nil
	}
	var start int64
	if zw.idx != nil {
		start = zw.idx.groupStart
	}
	if err := zw.emitGroup(block.Bytes(), uint32(block.Len()), start); err != nil {
		return err
	}
	block.Reset()
	return nil
}

// emitGroup writes one record or tail group whose first byte sits at
// uncompressed offset uncompOff: it registers the group in the
// trailing index (consuming a pending checkpoint into the group
// flags), then writes the header and body. Every group of every
// writer goes out through here.
//
//zipline:noalloc
func (zw *Writer) emitGroup(body []byte, bitWord uint32, uncompOff int64) error {
	var gflags byte
	if zw.idx != nil {
		gflags = zw.idx.record(zw.written, uncompOff)
	}
	if err := zw.writeOut(zw.blockHeader(uint32(len(body)), bitWord, gflags)); err != nil {
		return err
	}
	return zw.writeOut(body)
}

// Close flushes buffered records, the input tail and the stream
// trailer. It does not close the underlying writer. Close is
// idempotent: repeated calls return the first close error, so a
// deferred Close after an unchecked explicit one cannot report
// success on a truncated stream.
func (zw *Writer) Close() error {
	if zw.closed {
		return zw.closeErr
	}
	zw.closed = true
	if zw.w == nil {
		return nil // EncodeAll-only writer, nothing buffered
	}
	zw.closeErr = zw.finish()
	return zw.closeErr
}

// finish writes everything Close owes the stream: the last records,
// the tail group, the trailer and, when indexed, the footer.
func (zw *Writer) finish() error {
	// The header write is attempted once, so a failure here means no
	// earlier Write buffered anything or started workers.
	if err := zw.writeHeader(); err != nil {
		return err
	}
	var err error
	if zw.spans != nil {
		err = zw.closeSpans()
	} else {
		err = zw.flushBlock()
	}
	if err != nil {
		return err
	}
	// Tail block: raw trailing bytes that did not fill a chunk.
	if len(zw.pending) > 0 {
		if len(zw.pending) > maxTailBytes {
			return fmt.Errorf("zipline: tail of %d bytes exceeds format limit", len(zw.pending))
		}
		zw.Stats.TailBytes = uint64(len(zw.pending))
		if zw.idx != nil {
			// The raw tail needs no dictionary state, so it is always
			// its own checkpoint: Seek can jump straight into it.
			zw.idx.pending = true
		}
		body := appendTailBlock(make([]byte, 0, 3+len(zw.pending)), zw.pending)
		if err := zw.emitGroup(body, uint32(len(body)*8)|tailBlockFlag, zw.uncomp); err != nil {
			return err
		}
		zw.uncomp += int64(len(zw.pending))
	}
	trailerOff := zw.written
	if err := zw.writeTrailer(); err != nil {
		return err
	}
	if zw.idx == nil {
		return nil
	}
	ix := streamIndex{
		uncompTotal: uint64(zw.uncomp),
		trailerOff:  uint64(trailerOff),
		groups:      zw.idx.groups,
		checkpoints: zw.idx.ckpts,
	}
	if zw.set.dict != nil {
		ix.watermark = uint32(zw.set.dict.Len())
	}
	return zw.writeOut(ix.appendFooter(nil))
}

// writeTrailer emits the all-zero end-of-stream block/group.
func (zw *Writer) writeTrailer() error {
	n := 8
	if zw.grouped {
		n = 16
	}
	for i := 0; i < n; i++ {
		zw.scratch[i] = 0
	}
	return zw.writeOut(zw.scratch[:n])
}

// Reader decompresses a stream produced by any Writer configuration —
// it understands all four container versions, following the stream's
// recorded shard count and dictionary identity. It implements
// io.Reader. With WithWorkers(n > 1), an indexed stream in an
// io.ReaderAt + io.ReadSeeker source is decoded by n workers, one
// checkpoint segment each; Close then releases those workers without
// draining the stream. Every other stream decodes serially. Like
// Writer, a Reader can be pooled: Reset points it at a new stream and,
// on the serial decode path, reuses its shard decoders (dictionaries
// included) whenever the next header matches the last; the parallel
// engine is rebuilt per stream.
// Streaming methods must not be called concurrently; DecodeAll may be
// called from any number of goroutines.
type Reader struct {
	r   io.Reader
	set settings

	codec      *Codec
	version    uint8
	shards     int
	grouped    bool
	streamDict *Dict // set.dict, when the stream records it

	decs     []*blockDecoder // one per shard (serial decode path)
	decCodec *Codec          // codec decs were built against (Reset reuse)
	decDict  *Dict           // dict decs were built against (Reset reuse)
	nextSeq  uint32

	ixr *idxReader // index-segment decode workers (workers > 1, indexed stream)

	// Random-access state, live when the source is an io.ReadSeeker.
	seeker   io.ReadSeeker
	origin   int64 // underlying offset of the container's first byte
	pos      int64 // uncompressed read position (Seek/ReadAt)
	hasIndex bool  // header advertised flagIndex
	idx      *streamIndex

	out     []byte   // decoded bytes not yet read
	outBuf  []byte   // recycled backing array for out (streaming Read path)
	blkBuf  []byte   // recycled block-body scratch (serial decode path)
	hdrBuf  [16]byte // header scratch (serial decode path)
	done    bool
	started bool
	err     error // sticky: decode failure, io.EOF, or errReaderClosed

	dPool sync.Pool // pooled one-shot decoders for DecodeAll
	iPool sync.Pool // pooled fan-out decode states for indexed DecodeAll

	// Stats accumulate over the reader's lifetime (for workers > 1,
	// valid once Read has returned io.EOF). DecodeAll does not touch
	// Stats.
	Stats StreamStats
}

// NewReader opens a compressed stream, reading and validating its
// header lazily on first Read. Options: WithWorkers enables
// concurrent checkpoint-segment decoding, WithDict supplies the shared
// dictionary a dictionary-framed stream requires. r may be nil for a
// Reader used only through DecodeAll.
func NewReader(r io.Reader, opts ...Option) (*Reader, error) {
	set, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	return &Reader{r: r, set: set}, nil
}

// Reset discards the current stream state and directs the reader at a
// new stream. On the serial decode path, shard decoders (and their
// dictionaries) are kept and reused when the next stream's header
// matches the last one, so a pooled Reader re-serves
// same-configuration streams without rebuilding its dictionaries.
//
// After Close or Reset of a partially consumed workers > 1 stream,
// released decode workers may still finish a ReadAt on the old source
// before they exit.
//
//zipline:noalloc
func (zr *Reader) Reset(r io.Reader) {
	if zr.ixr != nil {
		zr.ixr.release()
		zr.ixr = nil
	}
	zr.r = r
	zr.version, zr.shards = 0, 0
	zr.grouped = false
	zr.streamDict = nil
	zr.nextSeq = 0
	zr.seeker, zr.origin, zr.pos = nil, 0, 0
	zr.hasIndex, zr.idx = false, nil
	zr.out = nil
	zr.done, zr.started = false, false
	zr.err = nil
	zr.Stats = StreamStats{}
}

func (zr *Reader) start() error {
	if zr.started {
		return nil
	}
	zr.started = true
	if zr.r == nil {
		return fmt.Errorf("zipline: Reader has no source (NewReader(nil, ...) serves DecodeAll only)")
	}
	if sk, ok := zr.r.(io.ReadSeeker); ok {
		// Remember where the container starts in a seekable source, so
		// Seek and the indexed fan-out can address it absolutely.
		if off, err := sk.Seek(0, io.SeekCurrent); err == nil {
			zr.seeker, zr.origin = sk, off
		}
	}
	info, err := parseStreamHeader(zr.r, zr.codec, &zr.hdrBuf)
	if err != nil {
		return err
	}
	dict, err := validateStreamDict(info, zr.set.dict)
	if err != nil {
		return err
	}
	zr.codec = info.codec
	zr.version, zr.shards, zr.grouped = info.version, info.shards, info.grouped
	zr.streamDict = dict
	zr.hasIndex = info.hasIndex
	if zr.set.workers > 1 && info.hasIndex && info.shards == 1 {
		// Indexed fan-out: decode checkpoint segments concurrently. A
		// non-seekable or single-segment source falls through to the
		// serial path; a corrupt footer is an error — the index is the
		// thing the caller's workers would trust.
		ixr, err := newIdxReader(zr)
		if err != nil {
			return err
		}
		if ixr != nil {
			zr.ixr = ixr
			return nil
		}
	}
	// Serial decode. Shard decoders are created lazily on first use;
	// together with insert-proportional Dictionary sizing this keeps
	// decoder memory tied to real stream content, not to the
	// attacker-controlled shards and idBits header bytes. A pooled
	// Reset keeps the previous stream's decoders when the header
	// matches.
	if zr.decCodec != nil && zr.decCodec.cfg == info.codec.cfg && len(zr.decs) == info.shards && zr.decDict == dict {
		for _, dec := range zr.decs {
			if dec != nil {
				dec.dict.Reset()
			}
		}
	} else {
		zr.decCodec = info.codec
		zr.decs = make([]*blockDecoder, info.shards)
		zr.decDict = dict
	}
	return nil
}

// headerInfo is a parsed container header.
type headerInfo struct {
	version  uint8
	codec    *Codec
	shards   int
	grouped  bool
	hasDict  bool
	hasIndex bool
	dictID   uint32
	dictLen  uint32
}

// validateStreamDict cross-checks a dictionary-framed header against
// the dictionary the Reader holds, returning the dictionary decoding
// should use (nil for undictionaried streams). Every decode path —
// streaming, DecodeAll, indexed fan-out — applies this one rule.
func validateStreamDict(info headerInfo, d *Dict) (*Dict, error) {
	if !info.hasDict {
		return nil, nil
	}
	if d == nil {
		return nil, fmt.Errorf("%w: stream was encoded against dictionary %#08x (%d bases)",
			ErrDictRequired, info.dictID, info.dictLen)
	}
	if d.id != info.dictID || uint32(d.Len()) != info.dictLen || d.cfg != info.codec.cfg {
		return nil, fmt.Errorf("%w: stream wants %#08x (%d bases), holding %#08x (%d bases)",
			ErrDictMismatch, info.dictID, info.dictLen, d.id, d.Len())
	}
	return d, nil
}

// parseStreamHeader reads and validates the container header — magic,
// version, codec configuration, (v2/v3) shard count and (v3) dict
// identity. It is the single authority every decode path opens
// streams with, so serial and parallel decoders accept exactly the
// same headers. prev, when non-nil and matching the header's
// configuration, is reused instead of building a fresh codec — the
// pooled-reader steady state skips the transform-table setup. scratch
// is caller-owned header scratch (same hoisting as readBlockHeader).
func parseStreamHeader(r io.Reader, prev *Codec, scratch *[16]byte) (headerInfo, error) {
	var info headerInfo
	hdr := scratch[:8]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return info, fmt.Errorf("%w: header: %w", ErrCorrupt, truncErr(err))
	}
	if string(hdr[:4]) != streamMagic {
		return info, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	info.version = hdr[4]
	if info.version < streamV1 || info.version > streamV4 {
		return info, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, info.version)
	}
	cfg := Config{M: int(hdr[5]), IDBits: int(hdr[6]), T: int(hdr[7])}
	if prev != nil && prev.cfg == cfg {
		info.codec = prev
	} else {
		codec, cerr := NewCodec(cfg)
		if cerr != nil {
			return info, fmt.Errorf("%w: %v", ErrCorrupt, cerr)
		}
		info.codec = codec
	}
	codec := info.codec
	info.shards = 1
	if info.version >= streamV2 {
		info.grouped = true
		ext := scratch[8:12]
		if _, err := io.ReadFull(r, ext); err != nil {
			return info, fmt.Errorf("%w: extended header: %w", ErrCorrupt, truncErr(err))
		}
		info.shards = int(ext[0])
		if info.shards == 0 {
			return info, fmt.Errorf("%w: zero shards", ErrCorrupt)
		}
		if info.version >= streamV3 {
			flags := ext[1]
			valid := byte(flagDict)
			if info.version >= streamV4 {
				valid |= flagIndex
			}
			if flags&^valid != 0 {
				return info, fmt.Errorf("%w: unknown header flags %#02x", ErrCorrupt, flags)
			}
			info.hasIndex = flags&flagIndex != 0
			if flags&flagDict != 0 {
				// The fixed header's bytes are fully consumed above, so
				// its scratch half is free again for the dict frame.
				df := scratch[:8]
				if _, err := io.ReadFull(r, df); err != nil {
					return info, fmt.Errorf("%w: dictionary frame: %w", ErrCorrupt, truncErr(err))
				}
				info.hasDict = true
				info.dictID = binary.LittleEndian.Uint32(df[0:])
				info.dictLen = binary.LittleEndian.Uint32(df[4:])
				if info.dictLen == 0 || info.dictLen >= 1<<codec.cfg.IDBits {
					return info, fmt.Errorf("%w: dictionary of %d bases does not fit %d-bit identifiers",
						ErrCorrupt, info.dictLen, codec.cfg.IDBits)
				}
			}
		}
	}
	return info, nil
}

// Read implements io.Reader.
func (zr *Reader) Read(p []byte) (int, error) {
	if zr.err != nil {
		return 0, zr.err
	}
	if err := zr.start(); err != nil {
		zr.err = err
		return 0, err
	}
	if zr.ixr != nil {
		n, err := zr.ixr.read(zr, p)
		zr.pos += int64(n)
		return n, err
	}
	for len(zr.out) == 0 {
		if zr.done {
			zr.err = io.EOF
			return 0, io.EOF
		}
		// The previous block's output has been fully copied out; decode
		// the next one into the same backing array so the streaming
		// steady state allocates nothing.
		zr.out = zr.outBuf[:0]
		if err := zr.readBlock(); err != nil {
			zr.err = err
			return 0, err
		}
		zr.outBuf = zr.out
	}
	n := copy(p, zr.out)
	zr.out = zr.out[n:]
	zr.pos += int64(n)
	return n, nil
}

// Seek implements io.Seeker over the uncompressed stream. It requires
// an indexed container (WithIndex) on an io.ReadSeeker source and the
// serial decode path (workers == 1): the reader jumps to the last
// dictionary checkpoint at or before the target and replays forward,
// discarding until the offset — so a seek costs at most one checkpoint
// interval of decoding. Seeking clears a prior io.EOF; after a seek,
// Stats no longer describe a single linear pass. A non-indexed stream
// returns ErrNoIndex.
func (zr *Reader) Seek(offset int64, whence int) (int64, error) {
	if zr.err != nil && zr.err != io.EOF {
		return 0, zr.err
	}
	zr.err = nil
	if err := zr.start(); err != nil {
		zr.err = err
		return 0, err
	}
	if zr.ixr != nil {
		return 0, fmt.Errorf("zipline: Seek requires the serial decode path (WithWorkers(1))")
	}
	if zr.seeker == nil {
		return 0, fmt.Errorf("zipline: Seek requires an io.ReadSeeker source")
	}
	if !zr.hasIndex {
		return 0, ErrNoIndex
	}
	if zr.idx == nil {
		ix, err := readIndexFooter(zr.seeker, zr.origin)
		if err != nil {
			zr.err = err
			return 0, err
		}
		zr.idx = ix
	}
	var target int64
	switch whence {
	case io.SeekStart:
		target = offset
	case io.SeekCurrent:
		target = zr.pos + offset
	case io.SeekEnd:
		target = int64(zr.idx.uncompTotal) + offset
	default:
		return 0, fmt.Errorf("zipline: invalid whence %d", whence)
	}
	if target < 0 || target > int64(zr.idx.uncompTotal) {
		return 0, fmt.Errorf("zipline: Seek to %d outside a stream of %d bytes", target, zr.idx.uncompTotal)
	}
	if err := zr.seekTo(uint64(target)); err != nil {
		zr.err = err
		return 0, err
	}
	zr.pos = target
	return target, nil
}

// seekTo repositions the decode state at uncompressed offset target:
// jump the source to the governing checkpoint's group, reset the
// basis dictionary to the frozen prefix, and decode-and-discard up to
// the target.
func (zr *Reader) seekTo(target uint64) error {
	ckGroup, g, ok := zr.idx.checkpointAtOrBefore(target)
	off, seq, pos := int64(zr.idx.trailerOff), uint32(len(zr.idx.groups)), zr.idx.uncompTotal
	if ok && target < zr.idx.uncompTotal {
		off, seq, pos = int64(g.compOff), ckGroup, g.uncompOff
	}
	if _, err := zr.seeker.Seek(zr.origin+off, io.SeekStart); err != nil {
		return err
	}
	zr.nextSeq = seq
	zr.done = false
	zr.out = nil
	if len(zr.decs) > 0 && zr.decs[0] != nil {
		zr.decs[0].dict.Reset()
	}
	for pos < target {
		if len(zr.out) > 0 {
			skip := uint64(len(zr.out))
			if skip > target-pos {
				skip = target - pos
			}
			zr.out = zr.out[skip:]
			pos += skip
			continue
		}
		if zr.done {
			return fmt.Errorf("%w: stream ends at %d before seek target %d", ErrCorrupt, pos, target)
		}
		if err := zr.readBlock(); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt serves HTTP-range-style random access over the uncompressed
// stream of an indexed container. Unlike the io.ReaderAt contract it
// shares the Reader's streaming state: calls must not run concurrently
// with Read, Seek or each other, and the read position moves to the
// end of the range. Fewer than len(p) bytes are returned only at the
// end of the stream, with io.EOF.
func (zr *Reader) ReadAt(p []byte, off int64) (int, error) {
	if _, err := zr.Seek(off, io.SeekStart); err != nil {
		return 0, err
	}
	n := 0
	for n < len(p) {
		m, err := zr.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Close releases the reader's resources — for workers > 1 its decode
// goroutines, without consuming the rest of the stream — and poisons
// further reads. It never fails; the error return satisfies
// io.ReadCloser. See Reset for the state of a partially consumed
// source after an early Close.
func (zr *Reader) Close() error {
	if zr.ixr != nil {
		zr.ixr.release()
	}
	if zr.err == nil {
		zr.err = errReaderClosed
	}
	return nil
}

func (zr *Reader) readBlock() error {
	byteLen, bitWord, shard, gflags, err := readBlockHeader(zr.r, zr.version, &zr.nextSeq, &zr.hdrBuf)
	if err != nil {
		return err
	}
	if byteLen == 0 {
		if zr.hasIndex {
			// The header promised a trailing index: consume and verify
			// it, so a container cut after the trailer can never read
			// as a clean end of stream.
			if _, err := consumeIndexFooter(zr.r); err != nil {
				return err
			}
		}
		zr.done = true
		return nil
	}
	// Block bodies are transient — every downstream consumer copies
	// what it keeps (parseTailBlock's slice is appended to out, a miss
	// basis is copied into the dictionary) — so one recycled scratch buffer
	// serves every block. Oversized lengths (only a corrupt or hostile
	// header produces them; real groups are bounded by the block
	// size, or the legacy sharded writer's segment size) use a throwaway allocation instead, so a pooled Reader
	// never pins a huge buffer.
	var body []byte
	if byteLen <= maxPooledBlockLen {
		if cap(zr.blkBuf) < int(byteLen) {
			zr.blkBuf = make([]byte, byteLen)
		}
		body = zr.blkBuf[:byteLen]
	} else {
		body = make([]byte, byteLen)
	}
	if _, err := io.ReadFull(zr.r, body); err != nil {
		return fmt.Errorf("%w: block body: %w", ErrCorrupt, truncErr(err))
	}
	tail, isTail, err := classifyGroup(bitWord, shard, len(zr.decs), body)
	if err != nil {
		return err
	}
	if gflags&groupFlagCheckpoint != 0 {
		// The encoder reset its dictionary to the frozen prefix before
		// this group; replay the reset to stay in lockstep.
		if !isTail && zr.decs[shard] != nil {
			zr.decs[shard].dict.Reset()
		}
	}
	if isTail {
		zr.out = append(zr.out, tail...)
		zr.Stats.TailBytes += uint64(len(tail))
		return nil
	}
	if zr.decs[shard] == nil {
		zr.decs[shard] = newBlockDecoder(zr.codec, &zr.Stats, zr.streamDict)
	}
	zr.out, err = zr.decs[shard].decodeRecords(body, int(bitWord), zr.out)
	return err
}

// decodeAllInto drains the whole stream, appending decoded bytes to
// dst — the one-shot engine behind DecodeAll. On error dst is
// returned unextended.
func (zr *Reader) decodeAllInto(dst []byte) ([]byte, error) {
	if err := zr.start(); err != nil {
		return dst, err
	}
	zr.out = dst
	for !zr.done {
		if err := zr.readBlock(); err != nil {
			zr.out = nil
			return dst, err
		}
	}
	out := zr.out
	zr.out = nil
	return out, nil
}

// classifyGroup applies the shared accept rules for a group body in
// any container version: tail groups are validated and their bytes
// returned (aliasing body); record groups get their shard and bit
// length bounds checked. Keeping one validator means the serial and
// indexed decoders accept exactly the same streams.
func classifyGroup(bitWord uint32, shard uint8, shards int, body []byte) (tail []byte, isTail bool, err error) {
	if bitWord&tailBlockFlag != 0 {
		t, err := parseTailBlock(body)
		return t, true, err
	}
	if int(shard) >= shards {
		return nil, false, fmt.Errorf("%w: shard %d of %d", ErrCorrupt, shard, shards)
	}
	if int(bitWord) > len(body)*8 {
		return nil, false, fmt.Errorf("%w: bit length exceeds block", ErrCorrupt)
	}
	return nil, false, nil
}

// readBlockHeader reads and validates one block (v1) or group (v2+)
// header for the given container version, returning the payload
// length, the bit-length word, the shard and — in version 4 — the
// group flags. nextSeq tracks the expected sequence number of grouped
// containers. A header cut short surfaces as ErrCorrupt wrapping
// io.ErrUnexpectedEOF, never as a clean end of stream. hdr is
// caller-owned scratch, hoisted out so reading through the io.Reader
// interface does not force a heap allocation per block.
func readBlockHeader(r io.Reader, version uint8, nextSeq *uint32, hdr *[16]byte) (byteLen, bitWord uint32, shard uint8, gflags byte, err error) {
	n := 8
	if version >= streamV2 {
		n = 16
	}
	if _, err := io.ReadFull(r, hdr[:n]); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("%w: block header: %w", ErrCorrupt, truncErr(err))
	}
	byteLen = binary.LittleEndian.Uint32(hdr[0:])
	bitWord = binary.LittleEndian.Uint32(hdr[4:])
	if version >= streamV2 {
		if byteLen == 0 {
			return 0, 0, 0, 0, nil
		}
		seq := binary.LittleEndian.Uint32(hdr[8:])
		if seq != *nextSeq {
			return 0, 0, 0, 0, fmt.Errorf("%w: group %d out of order (want %d)", ErrCorrupt, seq, *nextSeq)
		}
		*nextSeq++
		shard = hdr[12]
		if version >= streamV4 {
			gflags = hdr[13]
			if gflags&^byte(groupFlagCheckpoint) != 0 {
				return 0, 0, 0, 0, fmt.Errorf("%w: unknown group flags %#02x", ErrCorrupt, gflags)
			}
		}
	}
	if byteLen > maxBlockBytes {
		return 0, 0, 0, 0, fmt.Errorf("%w: block of %d bytes", ErrCorrupt, byteLen)
	}
	return byteLen, bitWord, shard, gflags, nil
}

// CompressBytes compresses data in one call through the serial path.
// For repeated one-shot encodes, a pooled (*Writer).EncodeAll avoids
// the per-call setup.
func CompressBytes(data []byte, cfg Config) ([]byte, error) {
	var buf appendWriter
	zw, err := NewWriter(&buf, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.b, nil
}

// DecompressBytes decompresses a stream produced by any Writer
// configuration in one call. For repeated one-shot decodes, a pooled
// (*Reader).DecodeAll avoids the per-call setup. Dictionary-framed
// streams need a Reader carrying the Dict (WithDict) instead.
func DecompressBytes(data []byte) ([]byte, error) {
	zr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var out []byte
	buf := make([]byte, 64<<10)
	for {
		n, err := zr.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
