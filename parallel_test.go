package zipline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// testSpan is the checkpoint span the parallel-writer tests run at:
// small enough that a few hundred KiB of input cross many spans.
const testSpan = 32 << 10

// compressSpans compresses data through a parallel Writer with the
// given worker count and span (0 = the 1 MiB default).
func compressSpans(t testing.TB, data []byte, workers, span int, opts ...Option) []byte {
	t.Helper()
	opts = append(opts, WithWorkers(workers))
	if span > 0 {
		opts = append(opts, WithIndex(span))
	}
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParallelRoundTripWorkersAndSizes(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, size := range []int{0, 1, 31, 32, 1000, testSpan,
			testSpan + 17, 3*testSpan + 5} {
			data := sensorLike(t, size, int64(size)+int64(workers))
			comp := compressSpans(t, data, workers, testSpan)
			// Span writer → checkpoint fan-out Reader.
			zr, err := NewReader(bytes.NewReader(comp), WithWorkers(0))
			if err != nil {
				t.Fatal(err)
			}
			back, err := io.ReadAll(zr)
			if err != nil {
				t.Fatalf("workers=%d size=%d: read: %v", workers, size, err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("workers=%d size=%d: parallel round trip failed", workers, size)
			}
			// Span writer → serial Reader (DecompressBytes).
			back, err = DecompressBytes(comp)
			if err != nil {
				t.Fatalf("workers=%d size=%d: serial decode: %v", workers, size, err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("workers=%d size=%d: serial round trip failed", workers, size)
			}
		}
	}
}

func TestParallelReaderReadsSerialStreams(t *testing.T) {
	data := sensorLike(t, 100_000, 9)
	comp, err := CompressBytes(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	zr, err := NewReader(bytes.NewReader(comp), WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	back, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("v1 fallback round trip failed")
	}
	if zr.Stats.Chunks == 0 || zr.Stats.Hits == 0 {
		t.Fatalf("stats not forwarded: %+v", zr.Stats)
	}
}

func TestParallelWriterStats(t *testing.T) {
	chunk := make([]byte, 32)
	rand.New(rand.NewSource(4)).Read(chunk)
	data := append(bytes.Repeat(chunk, 100), 1, 2, 3) // 100 chunks + 3-byte tail
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	// All 100 chunks share one basis and fit one span: one miss.
	if zw.Stats.Chunks != 100 || zw.Stats.Misses != 1 || zw.Stats.Hits != 99 || zw.Stats.TailBytes != 3 {
		t.Fatalf("writer stats = %+v", zw.Stats)
	}
	zr, err := NewReader(&buf, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	back, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip failed")
	}
	if zr.Stats != zw.Stats {
		t.Fatalf("reader stats %+v != writer stats %+v", zr.Stats, zw.Stats)
	}
}

func TestParallelShardLockstepUnderEviction(t *testing.T) {
	// More distinct bases than dictionary slots, spread across several
	// spans and workers: every span's encoder and decoder must walk
	// identical LRU evolutions from the checkpoint reset.
	rng := rand.New(rand.NewSource(6))
	bases := make([][]byte, 40) // dictionary holds 2^4 = 16
	for i := range bases {
		bases[i] = make([]byte, 32)
		rng.Read(bases[i])
	}
	var data []byte
	for len(data) < 3*testSpan {
		data = append(data, bases[rng.Intn(len(bases))]...)
	}
	comp := compressSpans(t, data, 3, testSpan, Config{IDBits: 4})
	back, err := DecompressBytes(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("lockstep eviction broke the span-parallel stream")
	}
}

func TestParallelSplitWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := sensorLike(t, 2*testSpan+999, 5)
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, WithWorkers(2), WithIndex(testSpan))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); {
		n := 1 + rng.Intn(10_000)
		if off+n > len(data) {
			n = len(data) - off
		}
		if _, err := zw.Write(data[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if want := compressSpans(t, data, 1, testSpan); !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("split writes changed the container")
	}
	back, err := DecompressBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip failed")
	}
}

func TestParallelAllMSizes(t *testing.T) {
	data := sensorLike(t, 50_000, 7)
	for m := 3; m <= 15; m++ {
		comp := compressSpans(t, data, 4, 8<<10, Config{M: m})
		back, err := DecompressBytes(comp)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("m=%d: round trip failed", m)
		}
	}
}

func TestParallelWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write([]byte{1}); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := zw.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
}

// failAfterWriter fails every write once n bytes have passed through.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

func TestParallelWriterPropagatesWriteErrors(t *testing.T) {
	before := runtime.NumGoroutine()
	wantErr := errors.New("disk full")
	data := sensorLike(t, 16*testSpan, 11)
	zw, err := NewWriter(&failAfterWriter{n: testSpan / 2, err: wantErr}, WithWorkers(2), WithIndex(testSpan))
	if err != nil {
		t.Fatal(err)
	}
	_, werr := zw.Write(data)
	cerr := zw.Close()
	if !errors.Is(werr, wantErr) && !errors.Is(cerr, wantErr) {
		t.Fatalf("write err = %v, close err = %v, want %v surfaced", werr, cerr, wantErr)
	}
	// Close after a failed Write must release the encode workers.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, got)
	}
}

func TestParallelStreamCorruptionDetected(t *testing.T) {
	// The legacy sharded container's framing checks, on the serial
	// Reader and on a workers Reader (which decodes it serially).
	comp := readFixture(t, "legacy-v2-3shard.zl")
	mutate := func(f func(c []byte) []byte) []byte {
		return f(append([]byte(nil), comp...))
	}
	cases := map[string][]byte{
		"truncated":  comp[:len(comp)-20],
		"no trailer": comp[:len(comp)-16],
		"zero shards": mutate(func(c []byte) []byte {
			c[8] = 0
			return c
		}),
		"out-of-order seq": mutate(func(c []byte) []byte {
			c[12+8] ^= 0xFF // seq word of the first group
			return c
		}),
		"bad shard": mutate(func(c []byte) []byte {
			c[12+12] = 200 // shard byte of the first group
			return c
		}),
	}
	for name, c := range cases {
		if _, err := DecompressBytes(c); err == nil {
			t.Errorf("serial decode of %s succeeded", name)
		}
		zr, err := NewReader(bytes.NewReader(c), WithWorkers(0))
		if err == nil {
			_, err = io.ReadAll(zr)
		}
		if err == nil {
			t.Errorf("workers decode of %s succeeded", name)
		}
	}
}

func TestParallelReaderCloseEarly(t *testing.T) {
	data := sensorLike(t, 6*testSpan, 15)
	comp := compressSpans(t, data, 4, testSpan)
	zr, err := NewReader(bytes.NewReader(comp), WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1000)
	if _, err := zr.Read(buf); err != nil {
		t.Fatal(err)
	}
	if zr.ixr == nil {
		t.Fatal("indexed stream in a seekable source did not take the fan-out")
	}
	if err := zr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := zr.Read(buf); err == nil {
		t.Fatal("read after close accepted")
	}
}

func TestCorruptShardCountDoesNotPreallocate(t *testing.T) {
	// A 12-byte forged v2 header claiming 255 shards at IDBits=24 must
	// not allocate 255 full-capacity dictionaries (~GBs) up front:
	// shard decoders are built lazily, so the header alone costs
	// nothing and decoding fails cleanly at the missing first group.
	hdr := []byte{'Z', 'L', 'G', 'D', streamV2, 8, 24, 1, 255, 0, 0, 0}
	if _, err := DecompressBytes(hdr); err == nil {
		t.Fatal("truncated hostile header decoded successfully")
	}
	zr, err := NewReader(bytes.NewReader(hdr), WithWorkers(0))
	if err == nil {
		_, err = io.ReadAll(zr)
	}
	if err == nil {
		t.Fatal("workers decode of hostile header succeeded")
	}
}

func TestCraftedMultiShardStreamBoundedMemory(t *testing.T) {
	// A hand-built v2 stream with IDBits=24 and 255 shards, each shard
	// receiving one minimal group (a single all-zero miss record: tag 0,
	// dev 0, extra 0, zero basis = 257 bits for m=8). Decoder memory
	// must track the 255 inserted entries, not 255 × 2^24 id slots.
	stream := []byte{'Z', 'L', 'G', 'D', streamV2, 8, 24, 1, 255, 0, 0, 0}
	for i := 0; i < 255; i++ {
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:], 33)  // ceil(257/8)
		binary.LittleEndian.PutUint32(hdr[4:], 257) // bitLen
		binary.LittleEndian.PutUint32(hdr[8:], uint32(i))
		hdr[12] = byte(i)
		stream = append(stream, hdr[:]...)
		stream = append(stream, make([]byte, 33)...)
	}
	stream = append(stream, make([]byte, 16)...) // trailer

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := DecompressBytes(stream)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 255*32 {
		t.Fatalf("decoded %d bytes, want %d", len(out), 255*32)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("decoding 255 one-record shards allocated %d MB", alloc>>20)
	}
}

func TestParallelCompressionStaysClose(t *testing.T) {
	// Each 1 MiB span re-learns the dictionary from the frozen prefix,
	// so the parallel ratio lags the serial one (0.101 here). It must
	// not lag the retired sharded writer, which reached 0.1261 with 8
	// workers on this input; the span writer's output does not depend
	// on the worker count.
	data := sensorLike(t, 8<<20, 3)
	serial, err := CompressBytes(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	par := compressSpans(t, data, 8, 0)
	sr := float64(len(serial)) / float64(len(data))
	prr := float64(len(par)) / float64(len(data))
	if prr > 0.1261 {
		t.Fatalf("parallel ratio %.4f above the sharded writer's 0.1261 (serial %.4f)", prr, sr)
	}
}
