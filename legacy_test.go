package zipline

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Legacy-container fixtures. Earlier releases had a second, sharded
// parallel writer (one basis dictionary per worker, 128 KiB input
// segments dealt round-robin to the shards). It wrote the version-2
// container and, with a Dict, a multi-shard version-3 container. The
// current Writer produces neither, but files written that way — by
// `zipline -c -p N`, for one — must keep decoding, so testdata/ holds
// real streams from that writer. They were generated, on the last
// release whose WithWorkers(n > 1) selected the sharded writer, with:
//
//	write := func(name string, data []byte, opts ...Option) {
//		var buf bytes.Buffer
//		zw, _ := NewWriter(&buf, opts...)
//		zw.Write(data)
//		zw.Close()
//		os.WriteFile("testdata/"+name, buf.Bytes(), 0o644)
//	}
//	write("legacy-v2-3shard.zl", sensorLikeData(2*(128<<10)+1005, 31), WithWorkers(3))
//	write("legacy-v2-small.zl", append(sensorLikeData(3000, 15), "odd-tail"...), WithWorkers(3))
//	dict, _ := TrainDict(sensorLikeData(1<<13, 14), Config{})
//	os.WriteFile("testdata/legacy-v3.zld", dict.Bytes(), 0o644)
//	write("legacy-v3-dict-2shard.zl", sensorLikeData(16<<10+5, 82), WithDict(dict), WithWorkers(2))
//
// legacy-v2-3shard puts one group on each of its three shards, the last
// one short, then a 13-byte tail; legacy-v2-small is a single group and
// a tail; the dictionary-framed stream declares two shards.
var legacyFixtures = []struct {
	file    string
	version byte
	shards  byte
	dict    bool
	data    func() []byte
}{
	{"legacy-v2-3shard.zl", streamV2, 3, false, func() []byte { return sensorLikeData(2*(128<<10)+1005, 31) }},
	{"legacy-v2-small.zl", streamV2, 3, false, func() []byte { return append(sensorLikeData(3000, 15), "odd-tail"...) }},
	{"legacy-v3-dict-2shard.zl", streamV3, 2, true, func() []byte { return sensorLikeData(16<<10+5, 82) }},
}

// readFixture loads a file from testdata/.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// legacyDict loads the dictionary the dictionary-framed fixture was
// written against.
func legacyDict(t testing.TB) *Dict {
	t.Helper()
	dict, err := LoadDict(readFixture(t, "legacy-v3.zld"))
	if err != nil {
		t.Fatal(err)
	}
	return dict
}

// TestLegacyContainersDecode decodes every legacy fixture through each
// Reader configuration and compares against the regenerated input.
func TestLegacyContainersDecode(t *testing.T) {
	dict := legacyDict(t)
	for _, fx := range legacyFixtures {
		t.Run(fx.file, func(t *testing.T) {
			comp := readFixture(t, fx.file)
			if comp[4] != fx.version || comp[8] != fx.shards {
				t.Fatalf("fixture header: version %d, %d shards; want %d, %d", comp[4], comp[8], fx.version, fx.shards)
			}
			want := fx.data()
			var opts []Option
			if fx.dict {
				opts = append(opts, WithDict(dict))
			}
			stream := func(workers int) ([]byte, error) {
				zr, err := NewReader(bytes.NewReader(comp), append(opts, WithWorkers(workers))...)
				if err != nil {
					return nil, err
				}
				defer zr.Close()
				return io.ReadAll(zr)
			}
			decodeAll := func(workers int) ([]byte, error) {
				zr, err := NewReader(nil, append(opts, WithWorkers(workers))...)
				if err != nil {
					return nil, err
				}
				return zr.DecodeAll(comp, nil)
			}
			for name, decode := range map[string]func() ([]byte, error){
				"serial":     func() ([]byte, error) { return stream(1) },
				"workers4":   func() ([]byte, error) { return stream(4) },
				"decodeall":  func() ([]byte, error) { return decodeAll(1) },
				"decodeall4": func() ([]byte, error) { return decodeAll(4) },
			} {
				got, err := decode()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: decoded %d bytes differ from the regenerated %d", name, len(got), len(want))
				}
			}
			got, err := DecompressBytes(comp)
			if fx.dict {
				if !errors.Is(err, ErrDictRequired) {
					t.Fatalf("DecompressBytes without the dict: %v, want ErrDictRequired", err)
				}
			} else if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("DecompressBytes: %d bytes, %v", len(got), err)
			}
		})
	}
}
