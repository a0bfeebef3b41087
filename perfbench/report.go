package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0. Each
// is defined per workload in README.md; all are measured with tracing
// off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p90_us", "us"},
	{"ratio", "ratio"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1. A
// layer the workload's bytes never cross reads 0; the workload that
// measures each one is in README.md.
var perLayer = []metricDef{
	// stream-sensor: replays of the Writer's and Reader's calls.
	{"crc.remainder_ns_per_chunk", "ns/chunk"},
	{"gd.split_ns_per_chunk", "ns/chunk"},
	{"gd.dict_lookup_ns", "ns/lookup"},
	{"gd.dict_insert_ns", "ns/insert"},
	{"gd.dict_lookup_id_ns", "ns/lookup"},
	{"gd.dict_hit_ratio", "ratio"},
	{"bitvec.write_ns_per_record", "ns/record"},
	{"bitvec.read_ns_per_record", "ns/record"},
	{"hamming.parity_ns_per_chunk", "ns/chunk"},
	{"gd.merge_ns_per_chunk", "ns/chunk"},
	{"zipline.encode_ns_per_chunk", "ns/chunk"},
	{"zipline.decode_ns_per_chunk", "ns/chunk"},
	{"zipline.encode_residual_ns_per_chunk", "ns/chunk"},
	{"zipline.decode_residual_ns_per_chunk", "ns/chunk"},
	{"zipline.allocs_per_mb", "allocs/MB"},
	// proxy-echo.
	{"ziphttp.forward_us_p50", "us"},
	{"ziphttp.return_us_p50", "us"},
	{"ziphttp.peer_writes_per_msg", "writes/msg"},
	{"ziphttp.peer_bytes_per_msg", "B/msg"},
	{"ziphttp.allocs_per_msg", "allocs/msg"},
	{"ziphttp.setup_us_per_conn", "us"},
	// switch-imix.
	{"gd.split_bytes_ns_per_chunk", "ns/chunk"},
	{"zswitch.encode_ns_per_pkt", "ns/pkt"},
	{"zswitch.decode_ns_per_pkt", "ns/pkt"},
	{"zswitch.allocs_per_pkt", "allocs/pkt"},
	{"zswitch.fastpath_share", "ratio"},
	{"zswitch.digests_per_pkt", "digests/pkt"},
	{"zswitch.decode_miss", "count"},
	// fabric-churn.
	{"netsim.events", "count"},
	{"netsim.ns_per_event", "ns/event"},
	{"scenario.allocs_per_event", "allocs/event"},
	{"scenario.gc_pause_ms", "ms"},
	{"scenario.build_s", "s"},
	{"controlplane.digests", "count"},
	{"controlplane.recycled", "count"},
	{"controlplane.learning_p50_ms", "ms"},
	// every workload.
	{"trace.overhead_pct", "%"},
}

// figure is a workload-specific number printed in the human-readable
// table (encode_mb_s, mpps, events_per_s, ...); the JSON result
// carries only the metrics of BENCHMARK.json.
type figure struct {
	name  string
	value float64
	unit  string
}

// report is what a workload run returns.
type report struct {
	attempted, failed int64

	// End-to-end metrics (see endToEnd); the latency percentiles are
	// taken from lat, in µs.
	setupS, ratio, heapMB float64
	lat                   *samples

	figures []figure
	layers  map[string]float64
}

func (r *report) figure(name string, value float64, unit string) {
	r.figures = append(r.figures, figure{name, value, unit})
}

func (r *report) layer(name string, value float64) {
	if r.layers == nil {
		r.layers = make(map[string]float64)
	}
	r.layers[name] = value
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final JSON object: the end-to-end metrics, or
// with trace the per-layer ones.
func (r *report) result(trace bool) resultJSON {
	m := make(map[string]metricValue)
	if trace {
		for _, d := range perLayer {
			m[d.name] = metricValue{finite(r.layers[d.name]), d.unit}
		}
	} else {
		vals := map[string]float64{
			"setup_s":        r.setupS,
			"latency_p90_us": r.lat.quantile(0.9),
			"ratio":          r.ratio,
			"heap_mb":        r.heapMB,
		}
		for _, d := range endToEnd {
			m[d.name] = metricValue{finite(vals[d.name]), d.unit}
		}
	}
	return resultJSON{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   m,
	}
}

// finite keeps the JSON encodable: a metric that could not be formed
// (no samples) reads 0 rather than NaN.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printTable writes the human-readable view: the workload's own
// figures, fail_frac, and with trace the per-layer table.
func (r *report) printTable(w io.Writer, name string, trace bool) {
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%s: attempted %d, failed %d, fail_frac %.6f\n", name, r.attempted, r.failed, failFrac)
	for _, f := range r.figures {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", f.name, f.value, f.unit)
	}
	if !trace {
		n := r.lat.count()
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", "setup_s", r.setupS, "s")
		fmt.Fprintf(w, "  %-34s %14.4f %s (n=%d)\n", "latency_p50_us", r.lat.quantile(0.5), "us", n)
		fmt.Fprintf(w, "  %-34s %14.4f %s (n=%d)\n", "latency_p90_us", r.lat.quantile(0.9), "us", n)
		fmt.Fprintf(w, "  %-34s %14.4f %s (n=%d)\n", "latency_p99_us", r.lat.quantile(0.99), "us", n)
		fmt.Fprintf(w, "  %-34s %14.6f %s\n", "ratio", r.ratio, "ratio")
		fmt.Fprintf(w, "  %-34s %14.3f %s\n", "heap_mb", r.heapMB, "MB")
		fmt.Fprintf(w, "  %-34s %14.1f %s\n", "max_rss_mb", maxRSSMB(), "MB")
		return
	}
	fmt.Fprintf(w, "per-layer metrics (layers this workload does not cross read 0):\n")
	for _, d := range perLayer {
		if v, ok := r.layers[d.name]; ok {
			fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samples keeps a uniform random subset of the values it is given
// (Vitter's algorithm R) in storage allocated up front, so recording a
// latency never allocates and the benchmark does not change when the
// collector runs. Several goroutines may add to one samples.
type samples struct {
	mu  sync.Mutex
	xs  []float64
	n   int64
	rng *rand.Rand
}

// sampleCap bounds the stored samples: 1 MiB of float64s, enough for
// a p99 with over a thousand samples beyond it.
const sampleCap = 1 << 17

func newSamples(seed int64) *samples {
	return &samples{xs: make([]float64, 0, sampleCap), rng: rand.New(rand.NewSource(seed))}
}

func (s *samples) add(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if len(s.xs) < cap(s.xs) {
		s.xs = append(s.xs, v)
		return
	}
	if j := s.rng.Int63n(s.n); j < int64(len(s.xs)) {
		s.xs[j] = v
	}
}

func (s *samples) count() int64 { return s.n }

func (s *samples) quantile(q float64) float64 { return quantile(s.xs, q) }

func (s *samples) mean() float64 { return mean(s.xs) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// liveHeapMB collects garbage and returns the heap still reachable.
// Each workload reads it once after generating its inputs and once
// after the measured loop; the difference is the state the system
// under test holds.
func liveHeapMB() float64 {
	// Two cycles: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so idle pooled buffers do not count.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// repeatSetup runs setup n times and returns the median duration in
// seconds; the last repetition's state is what the caller keeps.
// teardown, when set, releases a repetition's state before the next
// one, outside the timed part.
func repeatSetup(n int, setup func() error, teardown func()) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// derive mixes a workload salt into the run seed (splitmix64), so each
// input stream gets its own non-zero seed.
func derive(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// overheadPct is the traced half's time per operation above the
// untraced half's, in percent: what turning the per-layer timers on
// costs the operation they divide up.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}

// machine is the fingerprint printed before the result.
type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func fingerprint(seed int64) machine {
	m := machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && m.Commit != "unknown" {
			m.Commit += "+dirty"
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
