package main

import (
	"fmt"
	"runtime"
	"time"

	"zipline/internal/netsim"
	"zipline/internal/scenario"
)

// fabricSlice is one operation of fabric-churn: advancing the
// simulation by this much virtual time.
const fabricSlice = 100 * netsim.Microsecond

// fabricSpec is the fat-tree-churn preset (k=8, 1024 hosts, 80
// switches, edge placement) with enough flows that one run takes
// seconds.
func fabricSpec(seed int64, tiny bool) (scenario.Spec, error) {
	spec, ok := scenario.Preset("fat-tree-churn")
	if !ok {
		return spec, fmt.Errorf("preset fat-tree-churn missing")
	}
	spec.Seed = seed
	spec.Flows.Count = 1024
	if tiny {
		spec.Topology.K = 4
		spec.Topology.HostsPerEdge = 4
		spec.Flows.Count = 32
	}
	return spec, nil
}

// fabricRun is what one Build + Run leaves behind: the wall time and
// engine counts, and the report figures the benchmark uses (the full
// report is dropped, so held memory does not grow with the run count).
type fabricRun struct {
	runNs             int64
	events            uint64
	allocs, gcPauseNs uint64
	encIn, encOut     uint64
	offered           uint64 // payload bytes
	learning          *scenario.LearningReport
}

// fabricLoop builds and runs scenarios until its time is up. Each run
// draws its own flows (the run seed plus its index), so a measurement
// averages over several draws; the first run uses the scenario built
// during set-up.
type fabricLoop struct {
	spec scenario.Spec
	next *scenario.Scenario
	// counters turns on the per-run layer counters (allocations, GC
	// pause), whose memory-statistics reads stop the world: the traced
	// half's per-layer timers.
	counters bool

	lat       *samples  // µs of wall time per slice of virtual time
	heap0     float64   // live heap before set-up
	heaps     []float64 // live heap after each run, scenario held, less heap0
	runs      []fabricRun
	attempted int64
	failed    int64
}

func (f *fabricLoop) run(d time.Duration) error {
	t0 := time.Now()
	for len(f.runs) == 0 || time.Since(t0) < d {
		var fr fabricRun
		sc := f.next
		f.next = nil
		if sc == nil {
			spec := f.spec
			spec.Seed += int64(len(f.runs))
			var err error
			if sc, err = scenario.Build(spec); err != nil {
				return err
			}
		}
		var ms0, ms1 runtime.MemStats
		if f.counters {
			runtime.ReadMemStats(&ms0)
		}
		r0 := time.Now()
		// Run in slices of virtual time, so a run yields a latency
		// distribution; the final Run finds the queue drained and
		// assembles the report.
		for deadline := fabricSlice; sc.Sim.Pending() > 0; deadline += fabricSlice {
			s0 := time.Now()
			sc.Sim.RunUntil(deadline)
			f.lat.add(float64(time.Since(s0).Nanoseconds()) / 1e3)
		}
		rp := sc.Run()
		fr.runNs = time.Since(r0).Nanoseconds()
		if f.counters {
			runtime.ReadMemStats(&ms1)
			fr.allocs = ms1.Mallocs - ms0.Mallocs
			fr.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
		}
		fr.events = sc.Sim.Scheduled()
		fr.encIn, fr.encOut = rp.Encode.EncPayloadIn, rp.Encode.EncPayloadOut
		fr.learning = rp.Learning
		f.heaps = append(f.heaps, liveHeapMB()-f.heap0)
		runtime.KeepAlive(sc)
		fr.offered = rp.Offered.PayloadBytes

		// Every offered frame must arrive, and no compressed frame may
		// reach a decoder lacking its mapping.
		f.attempted += int64(rp.Offered.Frames)
		lost := int64(rp.Offered.Frames) - int64(rp.Delivered.Frames)
		f.failed += max(lost, -lost) + int64(rp.Encode.DecodeMiss)
		if rp.Faults != nil {
			f.failed += int64(rp.Faults.StrandedCompressed)
		}
		f.runs = append(f.runs, fr)
	}
	return nil
}

func runFabric(c config) (*report, error) {
	spec, err := fabricSpec(derive(c.seed, 4), c.tiny)
	if err != nil {
		return nil, err
	}
	f := &fabricLoop{spec: spec, lat: newSamples(c.seed)}
	rep := &report{lat: f.lat}
	f.heap0 = liveHeapMB()
	var builds []float64
	rep.setupS, err = repeatSetup(3, func() error {
		t0 := time.Now()
		f.next, err = scenario.Build(spec)
		builds = append(builds, time.Since(t0).Seconds())
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	dur := c.dur
	if c.trace {
		dur /= 2
	}
	if err := f.run(dur); err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = f.attempted, f.failed
	var events, in, out, offered uint64
	var runNs int64
	for _, r := range f.runs {
		events += r.events
		runNs += r.runNs
		in += r.encIn
		out += r.encOut
		offered += r.offered
	}
	rep.heapMB = median(f.heaps)
	rep.ratio = float64(out) / float64(max(in, 1))
	rep.figure("events_per_s", float64(events)/(float64(runNs)/1e9), "1/s")
	rep.figure("offered_mb_s", float64(offered)/1e6/(float64(runNs)/1e9), "MB/s")
	rep.figure("runs", float64(len(f.runs)), "count")
	if !c.trace {
		return rep, nil
	}

	// Traced half: the same loop with the per-run layer counters on.
	t := &fabricLoop{spec: spec, counters: true, lat: newSamples(c.seed)}
	if err := t.run(dur); err != nil {
		return nil, err
	}
	rep.attempted += t.attempted
	rep.failed += t.failed
	rep.layer("trace.overhead_pct", overheadPct(f.lat.mean(), t.lat.mean()))
	r := t.runs[0]
	rep.layer("netsim.events", float64(r.events))
	rep.layer("netsim.ns_per_event", float64(r.runNs)/float64(r.events))
	rep.layer("scenario.allocs_per_event", float64(r.allocs)/float64(r.events))
	rep.layer("scenario.gc_pause_ms", float64(r.gcPauseNs)/1e6)
	rep.layer("scenario.build_s", median(builds))
	if l := r.learning; l != nil {
		rep.layer("controlplane.digests", float64(l.DigestsSeen))
		rep.layer("controlplane.recycled", float64(l.Recycled))
		rep.layer("controlplane.learning_p50_ms", l.DelayP50Ms)
	}
	return rep, nil
}
