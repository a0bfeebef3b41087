package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeterministicReport: the acceptance bar — a ≥3-switch lossy
// scenario must produce the byte-identical report for the same seed.
func TestDeterministicReport(t *testing.T) {
	runOnce := func() string {
		var out, errb bytes.Buffer
		if code := run([]string{"-preset", "lossy-chain3", "-json"}, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		return out.String()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("same seed, different reports:\n%s\n%s", a, b)
	}
}

// TestLossyChainLearningDelay: the reported control-plane learning
// delay must sit on the paper's (1.77 ± 0.08) ms model even with
// impaired links.
func TestLossyChainLearningDelay(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-preset", "lossy-chain3", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var report struct {
		Learning struct {
			DelayMeanMs float64 `json:"delay_mean_ms"`
			DelayN      int     `json:"delay_n"`
		} `json:"learning"`
		CompressionRatio float64 `json:"compression_ratio"`
		DeliveryRate     float64 `json:"delivery_rate"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.Learning.DelayN == 0 {
		t.Fatal("no learning delays sampled")
	}
	if m := report.Learning.DelayMeanMs; m < 1.6 || m > 1.95 {
		t.Fatalf("learning delay = %.3f ms, want ≈1.77", m)
	}
	if report.CompressionRatio <= 0 || report.CompressionRatio >= 1 {
		t.Fatalf("compression ratio = %.4f", report.CompressionRatio)
	}
	if report.DeliveryRate >= 1 {
		t.Fatalf("delivery rate %.4f on a lossy chain", report.DeliveryRate)
	}
}

// TestDumpSpecRoundTrip: -dump-spec output must load back through
// -scenario and run.
func TestDumpSpecRoundTrip(t *testing.T) {
	var dumped, errb bytes.Buffer
	if code := run([]string{"-preset", "chain3", "-dump-spec"}, &dumped, &errb); code != 0 {
		t.Fatalf("dump exit %d: %s", code, errb.String())
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, dumped.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	errb.Reset()
	if code := run([]string{"-scenario", path, "-records", "2000"}, &out, &errb); code != 0 {
		t.Fatalf("run exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "scenario chain3") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}

func TestListAndBadPreset(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, name := range []string{"single", "chain3", "lossy-chain3", "fanin"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("-list missing %s:\n%s", name, out.String())
		}
	}
	if code := run([]string{"-preset", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("bad preset exit = %d, want 2", code)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write non-empty
// profiles next to the normal report.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var out, errb bytes.Buffer
	if code := run([]string{"-preset", "single", "-json", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !json.Valid(out.Bytes()) {
		t.Fatalf("report is not JSON: %s", out.String())
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", filepath.Base(path))
		}
	}
	// An unwritable profile path is an error, not a silent skip.
	if code := run([]string{"-preset", "single", "-cpuprofile", filepath.Join(dir, "missing", "cpu.out")}, &out, &errb); code != 1 {
		t.Fatalf("unwritable -cpuprofile: exit %d, want 1", code)
	}
}
