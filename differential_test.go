package zipline

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// Differential coverage of the writer×reader pairings. The serial
// Writer→Reader path is the reference; every other combination —
// serial Writer→workers Reader, parallel Writer→serial Reader,
// parallel Writer→workers Reader and DecodeAll — must reproduce the
// input byte for byte across worker counts 1–8 and input shapes from
// empty through multi-span with a sub-chunk tail. The parallel Writer
// is further pinned byte-identical to the serial indexed writer.

// decodeSerial drains a stream through the serial Reader.
func decodeSerial(t *testing.T, comp []byte, opts ...Option) []byte {
	t.Helper()
	zr, err := NewReader(bytes.NewReader(comp), opts...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// decodeParallel drains a stream through a 4-worker Reader over a
// seekable source, so indexed streams take the checkpoint fan-out.
func decodeParallel(t *testing.T, comp []byte, opts ...Option) []byte {
	t.Helper()
	zr, err := NewReader(bytes.NewReader(comp), append(opts, WithWorkers(4))...)
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// decodeAllParallel decodes a stream with a 4-worker DecodeAll.
func decodeAllParallel(t *testing.T, comp []byte, opts ...Option) []byte {
	t.Helper()
	zr, err := NewReader(nil, append(opts, WithWorkers(4))...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := zr.DecodeAll(comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDifferentialWriterReaderPairings(t *testing.T) {
	cfgs := []Config{{}, {M: 5, IDBits: 9}}
	sizes := []int{0, 1, 31, 32, 33, 1000, 4096, 128 << 10, 128<<10 + 17, 2*(128<<10) + 5}
	for ci, cfg := range cfgs {
		for _, size := range sizes {
			data := sensorLikeData(size, int64(1000+size+ci))
			t.Run(fmt.Sprintf("cfg%d/size%d", ci, size), func(t *testing.T) {
				// Reference: serial writer, serial reader.
				serialComp, err := CompressBytes(data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := decodeSerial(t, serialComp)
				if !bytes.Equal(ref, data) {
					t.Fatal("serial reference path corrupted the input")
				}

				// Serial writer → workers Reader.
				if got := decodeParallel(t, serialComp); !bytes.Equal(got, ref) {
					t.Fatalf("serial→workers Reader differs from serial path (%d vs %d bytes)", len(got), len(ref))
				}

				for workers := 1; workers <= 8; workers++ {
					parComp := compressSpans(t, data, workers, testSpan, cfg)
					if got := decodeSerial(t, parComp); !bytes.Equal(got, ref) {
						t.Fatalf("spans(%d)→Reader differs from serial path", workers)
					}
					if got := decodeParallel(t, parComp); !bytes.Equal(got, ref) {
						t.Fatalf("spans(%d)→workers Reader differs from serial path", workers)
					}
					if got := decodeAllParallel(t, parComp); !bytes.Equal(got, ref) {
						t.Fatalf("spans(%d)→DecodeAll differs from serial path", workers)
					}
				}
			})
		}
	}
}

// TestDifferentialRandomInputs: purely random (incompressible) inputs
// through every pairing — the dictionary never hits, so the record
// mix is all misses, the opposite regime of the sensor-like data.
func TestDifferentialRandomInputs(t *testing.T) {
	rng := newTestRand(4242)
	for trial := 0; trial < 20; trial++ {
		size := rng.Intn(12 * testSpan)
		data := make([]byte, size)
		rng.Read(data)
		workers := 1 + rng.Intn(8)

		serialComp, err := CompressBytes(data, Config{})
		if err != nil {
			t.Fatal(err)
		}
		parComp := compressSpans(t, data, workers, testSpan)
		ref := decodeSerial(t, serialComp)
		if !bytes.Equal(ref, data) {
			t.Fatalf("trial %d: serial path corrupted input", trial)
		}
		for name, got := range map[string][]byte{
			"serial→parallel":   decodeParallel(t, serialComp),
			"parallel→serial":   decodeSerial(t, parComp),
			"parallel→parallel": decodeParallel(t, parComp),
		} {
			if !bytes.Equal(got, ref) {
				t.Fatalf("trial %d (%d bytes, %d workers): %s differs from serial path",
					trial, size, workers, name)
			}
		}
	}
}

// TestDifferentialSpanWriterByteIdentical pins the parallel Writer's
// defining property: WithWorkers(n)+WithIndex(x) writes exactly the
// bytes of a serial WithIndex(x) writer, and WithWorkers(n) alone
// exactly those of a serial WithIndex(1 MiB) writer — for every n,
// configuration, dictionary and input shape around span boundaries.
// Every Reader configuration then decodes the common stream.
func TestDifferentialSpanWriterByteIdentical(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"m5id9", Config{M: 5, IDBits: 9}},
		{"m8id4", Config{M: 8, IDBits: 4}},
	}
	for _, c := range cfgs {
		codec, err := NewCodec(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs := codec.ChunkSize()
		dict, err := TrainDict(sensorLikeData(1<<14, 61), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, withDict := range []bool{false, true} {
			opts := []Option{WithConfig(c.cfg)}
			if withDict {
				opts = append(opts, WithDict(dict))
			}
			for _, span := range []int{16 << 10, 1 << 20} {
				for _, size := range []int{0, 31, span - cs, span, span + 17, 3*span + 5} {
					name := fmt.Sprintf("%s/dict=%v/span%d/size%d", c.name, withDict, span, size)
					data := sensorLikeData(size, int64(size+span))
					want := goldenStream(t, data, append(opts, WithIndex(span))...)
					for _, n := range []int{2, 3, 8} {
						if got := compressSpans(t, data, n, span, opts...); !bytes.Equal(got, want) {
							t.Fatalf("%s: WithWorkers(%d) differs from the serial indexed writer (%d vs %d bytes)",
								name, n, len(got), len(want))
						}
						if span == defaultSpanBytes {
							if got := compressSpans(t, data, n, 0, opts...); !bytes.Equal(got, want) {
								t.Fatalf("%s: WithWorkers(%d) alone differs from serial WithIndex(1 MiB)", name, n)
							}
						}
					}
					var ropts []Option
					if withDict {
						ropts = append(ropts, WithDict(dict))
					}
					for reader, got := range map[string][]byte{
						"serial":     decodeSerial(t, want, ropts...),
						"workers":    decodeParallel(t, want, ropts...),
						"decodeall4": decodeAllParallel(t, want, ropts...),
					} {
						if !bytes.Equal(got, data) {
							t.Fatalf("%s: %s Reader did not restore the input", name, reader)
						}
					}
				}
			}
		}
	}
}
