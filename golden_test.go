package zipline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenConfigs is the container-bytes golden matrix: the paper point,
// a small-chunk/narrow-id point, an id space of 16 that forces LRU
// eviction on every input, and a mid-size point.
var goldenConfigs = []struct {
	name string
	cfg  Config
}{
	{"default", Config{}},
	{"m5id9", Config{M: 5, IDBits: 9}},
	{"m8id4", Config{M: 8, IDBits: 4}},
	{"m6id12", Config{M: 6, IDBits: 12}},
}

// goldenContainers holds the SHA-256 of every container the matrix
// produces. Any change to record layout, identifier assignment, LRU
// order or framing shows up here as a changed hash; round-trip tests
// alone cannot see such a change.
var goldenContainers = map[string]string{
	"default/compress/0":       "83cdd0527b4a1ccf5fcb2e91cfaab0312224f12ccd2ddbef62f8a01ecd6e1daa",
	"default/compress/1000":    "54b8a13b3361b704c37b170a05426d1cd5391a118ccc9184a9b2dce72fde7695",
	"default/compress/1048576": "551915cf4093fe330f3c28da28885874b8e50510de691b00d739f70f10cf5e1c",
	"default/compress/31":      "7d386d0e64ed6ec9bccadfb0b7fad029e37355565026ce3f9687729528ce0aa5",
	"default/dict":             "6980e79d4faeee1af9963d04ad435d9cb81894da276b871928d5a5fa07918269",
	"default/index":            "bc5604e1f591e849c9e69dec2d2916e9a9b1b3bb26193536bb1e57724ba192d3",
	"m5id9/compress/0":         "543c5d5a48826ad5b0e767ee2b0b0456d854c9286059b72ae1f7d7cdba14a7e1",
	"m5id9/compress/1000":      "30a1a40f66a8eef8d715d508c84fd092e07ff63d5d7e696df5da45daf4d62acd",
	"m5id9/compress/1048576":   "59e212b8d6050f11a0347078505d8e01715bc15d27e9fd82fa37c5e8c56be105",
	"m5id9/compress/31":        "250109d49c78517d2f3827813ad21aa8eac8b84fd6b4db55739b43eeba8a3e3a",
	"m5id9/dict":               "27d99d069efa63cf507fbc92facbf0bfe5bd1ae1a58671c1a0cf625bec31e63b",
	"m5id9/index":              "647320d56851c114e085716cb11f4b8b446838a03470b62ca244609e206c21af",
	"m6id12/compress/0":        "89b24089992d4deaa5d8902d6ea8613f578b6a64b4ce9bf72b6a70ae96619931",
	"m6id12/compress/1000":     "c9a890e769b18874b8087eb68a8ab3f0687ece027d130372d18a328a4fa945e8",
	"m6id12/compress/1048576":  "ddb8ec441a067b0f57c481026a3fa1d43d44acbec0129930248340ff80f4a363",
	"m6id12/compress/31":       "6198d6321918eac55e70eef905385275d55c8a75f4d48c16bdfa0ac22c005734",
	"m6id12/dict":              "7c70a0b3a37832fd067670ef6718fb5872a5382050b8a06129696ce783e021a9",
	"m6id12/index":             "2fd4ed75aabd8348dfad1eb5c2f463578012c143915ecd518790c3ae1331698d",
	"m8id4/compress/0":         "0ddd591751b6ff27456c10955cdfaefec08a95df7f53de3e690a7c37472a4675",
	"m8id4/compress/1000":      "bf76905966360436c359aabc669d7f11c2e3e947bec1eb62af0c066494676981",
	"m8id4/compress/1048576":   "58c4d27460c5fc88654b0727286c5fc803fac6a0f7f0f86b2828bcfb0379928c",
	"m8id4/compress/31":        "692b8c08b172c31cf06d3b2b5cce5da0e085695a65aabcf5aeae2f36be03d705",
	"m8id4/dict":               "d0566d5fbcaa9064d181d34109dcd3ba9e7f47f8c64e35f334a438781de99893",
	"m8id4/index":              "91d3c5da74ee9d4a4e2eb461fa5d74a0dd693ef47fb61ffab1f7a34a05b373c8",
}

func goldenSum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenStream writes data through one serial Writer with opts and
// returns the whole container.
func goldenStream(t *testing.T, data []byte, opts ...Option) []byte {
	t.Helper()
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

func TestContainerGoldens(t *testing.T) {
	got := map[string]string{}
	for _, gc := range goldenConfigs {
		for _, size := range []int{0, 31, 1000, 1 << 20} {
			data := sensorLikeData(size, int64(size)+7)
			comp, err := CompressBytes(data, gc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/compress/%d", gc.name, size)] = goldenSum(comp)
		}
		data := sensorLikeData(1<<20, 11)
		got[gc.name+"/dict"] = goldenSum(goldenStream(t, data, WithDict(trainTestDict(t, gc.cfg))))
		got[gc.name+"/index"] = goldenSum(goldenStream(t, data, WithConfig(gc.cfg), WithIndex(0)))
	}
	for key, sum := range got {
		if want, ok := goldenContainers[key]; !ok || want != sum {
			t.Errorf("%q: container sha256 %s, golden %q", key, sum, want)
		}
	}
	if len(got) != len(goldenContainers) {
		t.Errorf("matrix has %d containers, goldens %d", len(got), len(goldenContainers))
	}
}
