package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree
// with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesProgram pins BENCHMARK.json to the workloads and
// metric tables the program prints.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestWorkloadsTiny runs every workload at a tiny scale on two seeds,
// untraced and traced, and checks that every metric is present, that
// the end-to-end ones are positive and that nothing failed.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				rep, err := w.run(config{seed: seed, dur: 200 * time.Millisecond, trace: traced, tiny: true})
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", w.name, seed, traced, err)
				}
				res := rep.result(traced)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d trace %v: correct %v, attempted %d, failed %d",
						w.name, seed, traced, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("%s trace %v: metric %s missing or unit %q", w.name, traced, d.name, m.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("%s seed %d: %s = %v, want > 0", w.name, seed, d.name, m.Value)
					}
				}
				if traced {
					for _, name := range ownLayers[w.name] {
						if _, ok := rep.layers[name]; !ok {
							t.Errorf("%s: per-layer metric %s not measured", w.name, name)
						}
					}
				}
			}
		}
	}
}

// ownLayers are the per-layer metrics each workload must measure
// itself (the rest read 0 there).
var ownLayers = map[string][]string{
	"stream-sensor": {"crc.remainder_ns_per_chunk", "gd.split_ns_per_chunk", "gd.dict_lookup_ns", "gd.dict_insert_ns",
		"gd.dict_lookup_id_ns", "gd.dict_hit_ratio", "bitvec.write_ns_per_record", "bitvec.read_ns_per_record",
		"hamming.parity_ns_per_chunk", "gd.merge_ns_per_chunk", "zipline.encode_ns_per_chunk", "zipline.decode_ns_per_chunk",
		"zipline.encode_residual_ns_per_chunk", "zipline.decode_residual_ns_per_chunk", "zipline.allocs_per_mb", "trace.overhead_pct"},
	"proxy-echo": {"ziphttp.forward_us_p50", "ziphttp.return_us_p50", "ziphttp.peer_writes_per_msg", "ziphttp.peer_bytes_per_msg",
		"ziphttp.allocs_per_msg", "ziphttp.setup_us_per_conn", "trace.overhead_pct"},
	"switch-imix": {"gd.split_bytes_ns_per_chunk", "zswitch.encode_ns_per_pkt", "zswitch.decode_ns_per_pkt", "zswitch.allocs_per_pkt",
		"zswitch.fastpath_share", "zswitch.digests_per_pkt", "zswitch.decode_miss", "trace.overhead_pct"},
	"fabric-churn": {"netsim.events", "netsim.ns_per_event", "scenario.allocs_per_event", "scenario.gc_pause_ms", "scenario.build_s",
		"controlplane.digests", "controlplane.recycled", "controlplane.learning_p50_ms", "trace.overhead_pct"},
}

// TestEveryLayerOwned checks that every per-layer metric is measured by
// some workload.
func TestEveryLayerOwned(t *testing.T) {
	owned := map[string]bool{}
	for _, names := range ownLayers {
		for _, n := range names {
			owned[n] = true
		}
	}
	for _, d := range perLayer {
		if !owned[d.name] {
			t.Errorf("per-layer metric %s is measured by no workload", d.name)
		}
	}
}

// TestUsage checks that bad arguments exit with code 2 and print no
// result.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "switch-imix", "--trace", "2"},
		{"--workload", "switch-imix", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(out.String(), "{") {
			t.Errorf("%v: printed a result: %q", args, out.String())
		}
	}
}

// TestRunPrintsResultLast runs the command path once and checks the
// last line is the result object.
func TestRunPrintsResultLast(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "switch-imix", "--seed", "3", "--seconds", "0.2", "--trace", "0"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
	if !strings.Contains(out.String(), `machine: {"gomaxprocs"`) {
		t.Errorf("no machine fingerprint in output")
	}
}
