package zipline

import "bytes"

// One-shot encode/decode: the short-stream hot path of a gateway
// terminating many small flows. EncodeAll and DecodeAll borrow fully
// initialised single-shard engines from a per-Writer/per-Reader pool
// (dictionary reset to its frozen prefix, block buffer retained), so
// the steady state costs no per-call setup and — with a warm shared
// Dict — no allocations beyond the destination slice's growth.

// encState is a pooled one-shot encoder: a serial Writer bound to an
// in-memory append destination.
type encState struct {
	buf appendWriter
	w   *Writer
}

// EncodeAll compresses src as one complete stream (header through
// trailer) appended to dst, returning the extended slice. The output
// is byte-identical to streaming src through a serial Writer with the
// same options — workers do not apply to one-shot encodes; the
// Writer's Config and Dict do.
//
// EncodeAll is safe for concurrent use: any number of goroutines may
// call it on one Writer, including a Writer built as
// NewWriter(nil, ...) purely for this purpose. The receiver's
// streaming state and Stats are untouched.
func (zw *Writer) EncodeAll(src, dst []byte) []byte {
	st, _ := zw.ePool.Get().(*encState)
	if st == nil {
		set := zw.set
		set.workers = 1
		st = &encState{}
		st.w = newWriter(nil, set, zw.codec)
	}
	st.buf.b = dst
	st.w.Reset(&st.buf)
	if _, err := st.w.Write(src); err != nil {
		// Unreachable: the destination is in-memory and chunking is
		// internal; an error here is a corrupted Writer invariant.
		panic("zipline: EncodeAll: " + err.Error())
	}
	if err := st.w.Close(); err != nil {
		panic("zipline: EncodeAll: " + err.Error())
	}
	out := st.buf.b
	st.buf.b = nil
	zw.ePool.Put(st)
	return out
}

// decState is a pooled one-shot decoder: a serial Reader over an
// in-memory source.
type decState struct {
	br  bytes.Reader
	sub *Reader
}

// DecodeAll decompresses the complete stream in src, appending the
// decoded bytes to dst and returning the extended slice. On error dst
// is returned unextended. Any container version is accepted (sharded
// streams decode serially); a dictionary-framed stream requires the
// Reader to carry the matching Dict.
//
// On a Reader with WithWorkers(n > 1), an indexed (WithIndex) stream
// is decoded by n workers, one checkpoint segment at a time, writing
// directly into disjoint spans of the output buffer — serial-written
// streams finally decode in parallel. Everything else falls back to
// the serial pooled path below.
//
// DecodeAll is safe for concurrent use: any number of goroutines may
// call it on one Reader, including a Reader built as
// NewReader(nil, ...) purely for this purpose. The receiver's
// streaming state and Stats are untouched.
func (zr *Reader) DecodeAll(src, dst []byte) ([]byte, error) {
	if zr.set.workers > 1 {
		if out, ok, err := zr.decodeAllIndexed(src, dst); ok {
			return out, err
		}
	}
	st, _ := zr.dPool.Get().(*decState)
	if st == nil {
		set := zr.set
		set.workers = 1
		st = &decState{sub: &Reader{set: set}}
	}
	st.br.Reset(src)
	st.sub.Reset(&st.br)
	out, err := st.sub.decodeAllInto(dst)
	st.br.Reset(nil) // do not retain src through the pool
	zr.dPool.Put(st)
	return out, err
}
