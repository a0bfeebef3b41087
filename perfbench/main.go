// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded, output-checked workload per part of the system — the
// stream codec, the TCP proxy pair, the switch pipeline and a
// datacenter-scale simulation — through public calls only, and prints
// the result as one JSON object on the last line of standard output:
//
//	perfbench --workload stream-sensor --seed 1 --seconds 8 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics. With
// --trace 1 the run is split into an untraced and a traced half; the
// traced half times each layer on the workload's own inputs, replaying
// the calls a layer makes where the layer cannot be timed from outside.
// The object then carries the per-layer metrics, including the tracing
// overhead against the untraced half. README.md lists every metric
// and the end-to-end metric each per-layer one should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// config is what one workload run receives.
type config struct {
	seed int64
	dur  time.Duration // measured time; a traced run splits it in two
	// trace splits the run into an untraced and a traced half and adds
	// the layer replays.
	trace bool
	// tiny shrinks every input so the whole suite runs in seconds (the
	// benchmark's own test).
	tiny bool
}

// workload is one entry of the suite.
type workload struct {
	name string
	run  func(config) (*report, error)
}

var workloads = []workload{
	{"stream-sensor", runStream},
	{"proxy-echo", runProxy},
	{"switch-imix", runSwitch},
	{"fabric-churn", runFabric},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: stream-sensor, proxy-echo, switch-imix or fabric-churn")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 8, "measured time in seconds")
	traceMode := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := fs.String("memprofile", "", "write a heap profile taken at the end of the run to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of stream-sensor, proxy-echo, switch-imix, fabric-churn), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *traceMode == 1}

	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		cpuFile = f
	}
	rep, err := w.run(cfg)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	rep.printTable(stdout, w.name, cfg.trace)
	fp := fingerprint(cfg.seed)
	line, err := json.Marshal(fp)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "machine: %s\n", line)
	out, err := json.Marshal(rep.result(cfg.trace))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialise the final live heap
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
