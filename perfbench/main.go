// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the simulator from outside — timing calls into the
// public functions of each layer — checks that every simulation produced the
// expected statistics, and prints each metric with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around every layer call, replays the workload, memory,
// predictor and pipeline layers alone, and reports the per-layer metrics
// instead. README.md lists every workload and metric.
//
// Run it from the repository root through run.sh, which builds it from
// source:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scratch holds the serve workload's stores and the span file; runs
	// use .bench_build in the working directory, as run.sh does.
	scratch string
	// tiny shrinks every simulation and sample count to smoke-test scale.
	tiny bool
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(config, *tracer) (*report, error){
	"steady": runSteady,
	"sweep":  runSweep,
	"serve":  runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: steady, sweep or serve")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 40, "how long to measure, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload steady|sweep|serve, -seconds > 0, -trace 0|1\n")
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.scratch = ".bench_build"
	tr := newTracer()
	rep, err := drive(cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		rep.set("trace.spans", float64(tr.count()))
		path := filepath.Join(cfg.scratch, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	} else {
		rep.set("peak_rss_mb", peakRSSMB())
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, traceFlag)
	if err := rep.print(stdout, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
		}
		return 1
	}
	return 0
}

// metricUnits is the unit of every metric the benchmark reports, end-to-end
// and per-layer. BENCHMARK.json repeats it; a test keeps the two in step.
var metricUnits = map[string]string{
	// End-to-end, every workload.
	"setup_s":              "s",
	"wall_s":               "s",
	"sim_minstr_per_s":     "Minstr/s",
	"dkip_minstr_per_s":    "Minstr/s",
	"ooo_minstr_per_s":     "Minstr/s",
	"inorder_minstr_per_s": "Minstr/s",
	"sims_per_s":           "1/s",
	"req_per_s":            "1/s",
	"peak_rss_mb":          "MB",
	// End-to-end, printed but not gated (see README.md).
	"failed_frac": "ratio",
	"miss_p50_ms": "ms",
	"miss_p99_ms": "ms",
	"hit_p50_ms":  "ms",
	"hit_p99_ms":  "ms",

	"workload.next_ns":          "ns",
	"workload.instrs_generated": "count",
	"workload.sims_per_stream":  "count",

	"mem.access_ns":    "ns",
	"mem.warm_ms":      "ms",
	"mem.accesses":     "count",
	"mem.l1_miss_rate": "ratio",
	"mem.l2_miss_rate": "ratio",
	"mem.memory_frac":  "ratio",

	"predictor.ns_per_branch": "ns",
	"predictor.accuracy":      "ratio",

	"pipeline.iq_ns_per_op":        "ns",
	"pipeline.window_ns_per_alloc": "ns",

	"sim.key_us":             "us",
	"sim.runner_overhead_us": "us",
	"sim.queue_wait_ms":      "ms",
	"sim.dedup_frac":         "ratio",
	"sim.memo_hit_us":        "us",
	"sim.store_put_ms":       "ms",
	"sim.store_get_ms":       "ms",
	"sim.disk_writes":        "count",
	"sim.runall_self_ms":     "ms",

	"serve.overhead_ms":     "ms",
	"serve.hit_overhead_us": "us",
	"serve.handler_ms":      "ms",
	"serve.handler_self_ms": "ms",
	"serve.sim_wait_ms":     "ms",
	"serve.response_bytes":  "B",
	"serve.non2xx":          "count",

	"trace.overhead_frac": "ratio",
	"trace.spans":         "count",
}

// engineArchs are the engine families the per-architecture metrics cover.
var engineArchs = []string{"dkip", "ooo", "inorder"}

func init() {
	for _, a := range engineArchs {
		metricUnits["engine."+a+".setup_ms"] = "ms"
		metricUnits["engine."+a+".setup_alloc_kb"] = "KiB"
		metricUnits["engine."+a+".run_ns_per_instr"] = "ns"
		metricUnits["engine."+a+".ns_per_cycle"] = "ns"
		metricUnits["engine."+a+".self_ns_per_instr"] = "ns"
		metricUnits["engine."+a+".steady_allocs"] = "count"
		metricUnits["engine."+a+".ipc"] = "instr/cycle"
	}
}

// endToEnd lists the gated end-to-end metrics every workload reports.
var endToEnd = []string{
	"setup_s", "wall_s", "sim_minstr_per_s",
	"dkip_minstr_per_s", "ooo_minstr_per_s", "inorder_minstr_per_s",
	"sims_per_s", "req_per_s", "peak_rss_mb",
}

// isPerLayer reports whether a metric belongs to the traced run's set.
func isPerLayer(name string) bool { return strings.Contains(name, ".") }

// report accumulates one run's outcome.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	digest    string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) {
	if _, ok := metricUnits[name]; !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	r.values[name] = v
}

// fail counts one failed operation and remembers why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// finishLayers reports zero for every per-layer metric of a layer the
// workload does not cross (the serve layer on steady, for example), so the
// traced run always carries the full set.
func (r *report) finishLayers() {
	for name := range metricUnits {
		if _, ok := r.values[name]; !ok && isPerLayer(name) {
			r.values[name] = 0
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one human-readable line per metric, then the result object.
// The object carries the end-to-end metrics, or with traced set the
// per-layer ones.
func (r *report) print(w io.Writer, traced bool) error {
	if r.attempted > 0 {
		r.values["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "stats_digest=%s\n", r.digest)
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]jsonMetric{}
	for _, n := range names {
		v := r.values[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
		fmt.Fprintf(w, "metric %-34s %16.6f %s\n", n, v, metricUnits[n])
		if isPerLayer(n) == traced && (traced || isEndToEnd(n)) {
			out[n] = jsonMetric{Value: v, Unit: metricUnits[n]}
		}
	}
	fmt.Fprintf(w, "attempted=%d failed=%d failed_frac=%g\n", r.attempted, r.failed, r.values["failed_frac"])
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func isEndToEnd(name string) bool {
	for _, n := range endToEnd {
		if n == name {
			return true
		}
	}
	return false
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// nproc is the simulation parallelism of the Runner-based workloads.
func nproc() int { return runtime.GOMAXPROCS(0) }
