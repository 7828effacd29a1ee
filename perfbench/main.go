// Command perfbench is locind's benchmark. It runs one workload at one
// seed inside a single process, checks that the outputs are correct, and
// prints the metrics as one JSON object on the last line of standard
// output:
//
//	go run . --workload figures-quick --seed 20140817 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics, untraced, for about
// --seconds seconds. With --trace 1 it runs a fixed traced pass instead and
// prints the per-layer metrics. A human-readable summary, the environment
// and, for traced runs, a Chrome trace are written under .bench_build/perfbench.
//
// README.md describes the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed locind itself uses; figures-quick at this seed
// renders exactly what `locind -quick all` prints.
const defaultSeed = 20140817

// runOpts is one invocation's settings.
type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	sz      sizes
	outDir  string
}

// workload is one named set of inputs and the code that runs it.
type workload struct {
	name string
	why  string
	run  func(o runOpts) (*result, error)
}

var workloads = []workload{
	{"figures-quick", "every experiment of locind -quick all; route resolution mostly hits the memo", runFiguresQuick},
	{"device-full", "paper-scale device figures; route resolution misses far more often", runDeviceFull},
	{"gns-resolve", "9:1 lookup:update mix against a 3x3 GNS cluster over loopback UDP", runGNSResolve},
	{"nomad-upload", "sharded device fleet uploading to a streaming NomadLog server over loopback HTTP", runNomadUpload},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 20, "how long an untraced run measures, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()

	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	o := runOpts{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		sz:      defaultSizes(),
		outDir:  filepath.Join(".bench_build", "perfbench"),
	}
	res, err := wl.run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := res.line(o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.writeRecord(o, wl.name, line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
		os.Exit(1)
	}
	fmt.Fprint(os.Stderr, res.summary())
	fmt.Println(line)
	if !res.correct() {
		os.Exit(1)
	}
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mib", "MiB"},
	{"live_heap_mib", "MiB"},
}

// figureDrivers are the experiment drivers, in locind's paper order.
var figureDrivers = []string{
	"table1", "netsim", "fig6", "fig7", "fig8", "sensitivity", "envelope",
	"fig9", "fig10", "fig11a", "fig11b", "fig11c", "fig12", "ablate",
}

// perLayer are the metrics a traced run prints, for every workload; a
// layer the workload does not pass through reads 0.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, d := range figureDrivers {
		ms = append(ms, metricDef{"expt." + d + "_s", "s"})
	}
	return append(ms,
		metricDef{"setup.asgraph_s", "s"},
		metricDef{"setup.bgp_s", "s"},
		metricDef{"setup.mobility_s", "s"},
		metricDef{"setup.cdn_s", "s"},
		metricDef{"core.resolve_calls", "count"},
		metricDef{"core.resolve_hit_ratio", "ratio"},
		metricDef{"core.resolve_ns", "ns"},
		metricDef{"netaddr.lpm_calls", "count"},
		metricDef{"netaddr.lpm_ns", "ns"},
		metricDef{"cdn.walk_events", "count"},
		metricDef{"cdn.walk_s", "s"},
		metricDef{"core.fused_self_s", "s"},
		metricDef{"core.displaced_self_s", "s"},
		metricDef{"mobility.imap_s", "s"},
		metricDef{"par.speedup", "ratio"},
		metricDef{"par.efficiency", "ratio"},
		metricDef{"gns.resolve_ops_s", "1/s"},
		metricDef{"cluster.lookup_p50_us", "us"},
		metricDef{"cluster.lookup_p99_us", "us"},
		metricDef{"cluster.lookup_samples", "count"},
		metricDef{"cluster.update_p50_us", "us"},
		metricDef{"cluster.update_p99_us", "us"},
		metricDef{"cluster.update_samples", "count"},
		metricDef{"gns.leg_p50_us", "us"},
		metricDef{"gns.serve_p50_us", "us"},
		metricDef{"gns.wire_p50_us", "us"},
		metricDef{"gns.attempts_per_op", "ratio"},
		metricDef{"gns.server_busy_max", "ratio"},
		metricDef{"cluster.store_ns", "ns"},
		metricDef{"cluster.legs_per_update", "ratio"},
		metricDef{"cluster.legs_per_lookup", "ratio"},
		metricDef{"cluster.update_leg_share", "ratio"},
		metricDef{"nomad.ingest_events_s", "1/s"},
		metricDef{"nomad.upload_p50_us", "us"},
		metricDef{"nomad.upload_p99_us", "us"},
		metricDef{"nomad.upload_samples", "count"},
		metricDef{"engine.events", "count"},
		metricDef{"engine.self_s", "s"},
		metricDef{"nomad.handler_p50_us", "us"},
		metricDef{"nomad.conn_p50_us", "us"},
		metricDef{"nomad.ingest_ns_per_record", "ns"},
		metricDef{"nomad.handler_self_ns_per_record", "ns"},
		metricDef{"nomad.records_per_batch", "ratio"},
		metricDef{"nomad.attempts_per_batch", "ratio"},
		metricDef{"nomad.server_busy_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// result is what one run measured and checked.
type result struct {
	attempted, failed int64
	errs              []string
	metrics           map[string]float64
	notes             []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail records one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds another tally's attempts and failures into r.
func (r *result) merge(attempted, failed int64, errs []string) {
	r.attempted += attempted
	r.failed += failed
	for _, e := range errs {
		if len(r.errs) < 10 {
			r.errs = append(r.errs, e)
		}
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// line renders the result object: every end-to-end metric for an untraced
// run, every per-layer metric for a traced one.
func (r *result) line(traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	for name := range r.metrics {
		if _, ok := out.Metrics[name]; !ok {
			return "", fmt.Errorf("metric %q is outside the set this run prints", name)
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// summary is the human-readable report: notes, failures, environment.
func (r *result) summary() string {
	var b strings.Builder
	for _, n := range r.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	if r.attempted > 0 {
		fmt.Fprintf(&b, "  attempted %d, failed %d (failed_frac %.4g)\n", r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	}
	for _, e := range r.errs {
		fmt.Fprintf(&b, "  FAIL %s\n", e)
	}
	fmt.Fprintf(&b, "  env: %s\n", environment())
	return b.String()
}

// writeRecord stores the result line with its summary under o.outDir.
func (r *result) writeRecord(o runOpts, name, line string) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d.txt", name, o.seed, map[bool]int{false: 0, true: 1}[o.trace]))
	return os.WriteFile(path, []byte(r.summary()+line+"\n"), 0o644)
}

// environment describes the host a result set was measured on.
func environment() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("go %s, GOMAXPROCS %d, nproc %d, cpu %q", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUS returns the nearest-rank q-quantile of ds in microseconds.
// A tail quantile (q > 0.5) needs at least ten samples beyond it, and reads
// 0 without them.
func percentileUS(ds []time.Duration, q float64) float64 {
	n := float64(len(ds))
	if n == 0 || (q > 0.5 && n*(1-q) < 10) {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := max(int(math.Ceil(q*n))-1, 0)
	return float64(s[i]) / float64(time.Microsecond)
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// totalAlloc returns the bytes allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap returns the live heap after a forced GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTicks is a snapshot of the machine's CPU time from /proc/stat: the
// time spent running anything, and the time a hypervisor withheld from
// CPUs that had work (steal).
type cpuTicks struct{ busy, steal int64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	v := func(i int) int64 {
		n, _ := strconv.ParseInt(f[i], 10, 64)
		return n
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v(1) + v(2) + v(3) + v(6) + v(7), steal: v(8)}
}

// granted returns the share of the CPU time wanted since t that the
// machine actually got: busy / (busy + steal), 1 without steal. On a
// shared virtual machine the neighbours' load stretches every wall time by
// the inverse of this share; the benchmark's wall-time metrics multiply it
// back out.
func (t cpuTicks) granted() float64 {
	now := readCPUTicks()
	busy, steal := now.busy-t.busy, now.steal-t.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
