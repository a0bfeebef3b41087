package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"zipline/internal/netsim"
)

// TestEngineGoldens pins the scenarios whose event streams exercise the
// engine beyond the pre-fault presets: generated fat-trees under flow
// churn (thousands of links, hosts and switches interleaving at equal
// timestamps), the armed control plane with its retransmit timers and
// quarantine, and two switch restarts in one run. Each report must be
// byte-identical to the golden, so any change to the event order, an
// extra random draw or a lost event fails here.
//
// The goldens are the CLI's -json output; regenerate one with, e.g.,
//
//	zipline-sim -preset fat-tree-churn -flows 64 -json > testdata/engine/fat-tree-churn-64.json
//	zipline-sim -preset chain3 -restart dec@10+2,enc@20+5 -json > testdata/engine/chain3-restarts.json
//
// and only when a change is meant to alter simulator output.
func TestEngineGoldens(t *testing.T) {
	cases := []struct {
		golden string
		spec   func() Spec
	}{
		{"fat-tree", func() Spec { return preset(t, "fat-tree") }},
		{"fat-tree-churn-64", func() Spec {
			spec := preset(t, "fat-tree-churn")
			spec.Flows.Count = 64 // the full preset's 128 flows, halved to keep the test short
			return spec
		}},
		{"lossy-control", func() Spec { return preset(t, "lossy-control") }},
		{"chain3-restarts", func() Spec {
			spec := preset(t, "chain3")
			spec.Faults = &netsim.FaultSpec{Restarts: []netsim.RestartSpec{
				{Switch: "dec", AtNs: 10 * netsim.Millisecond, DownNs: 2 * netsim.Millisecond},
				{Switch: "enc", AtNs: 20 * netsim.Millisecond, DownNs: 5 * netsim.Millisecond},
			}}
			return spec
		}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "engine", c.golden+".json"))
			if err != nil {
				t.Fatal(err)
			}
			got := encodeReport(t, mustBuild(t, c.spec()).Run())
			if !bytes.Equal(got, golden) {
				t.Fatalf("report diverged from golden (%d vs %d bytes)", len(got), len(golden))
			}
		})
	}
}
