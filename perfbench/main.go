// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public API from a single process, checks
// every output against an oracle, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer split instead (spans around
// every public call, a CPU profile bucketed by package, and layer probes).
// See README.md for the workloads, the metrics and how they relate.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scratch receives job state directories, span dumps and CPU profiles.
	scratch string
	// scale multiplies every cell's workload scale; the self-test shrinks
	// runs with it.
	scale float64
	// corrupt flips one expected summary after set-up, so the oracles must
	// report failures (the self-test's negative check).
	corrupt bool
	stdout  io.Writer
}

func main() {
	o := options{scale: 1, stdout: os.Stdout}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; equal seeds give equal inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	flag.StringVar(&o.scratch, "scratch", ".bench_build/perfbench", "directory for job state, span dumps and CPU profiles")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_instr_per_cpu_s", "instr/s"},
	{"cpu_ms_per_op", "ms"},
	{"sim_cycles", "cycles"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"loop.op_ms_p50", "ms"},
	{"loop.op_ms_p90", "ms"},
	{"loop.ops_per_s", "1/s"},
	{"host.steal_share", "share"},
	{"workload.build_ms", "ms"},
	{"core.new_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.run_ns_per_msg", "ns"},
	{"core.commits", "count"},
	{"core.violations", "count"},
	{"core.commit_ratio", "ratio"},
	{"core.breakdown.useful", "share"},
	{"core.breakdown.cache_miss", "share"},
	{"core.breakdown.idle", "share"},
	{"core.breakdown.commit", "share"},
	{"core.breakdown.violation", "share"},
	{"core.stalled_loads", "count"},
	{"core.dir_cache_misses", "count"},
	{"core.forwards", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.miss_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.spills", "count"},
	{"cache.invalidations", "count"},
	{"mesh.msgs", "count"},
	{"mesh.bytes", "bytes"},
	{"mesh.bytes_per_instr", "bytes/instr"},
	{"mesh.hops", "count"},
	{"sim.shard_overhead", "ratio"},
	{"verify.ms", "ms"},
	{"verify.share", "share"},
	{"obs.event_bytes", "bytes"},
	{"obs.stream_overhead", "ratio"},
	{"snapshot.count", "count"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.marshal_ms", "ms"},
	{"snapshot.unmarshal_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"snapshot.run_overhead", "ratio"},
	{"runner.submit_ms", "ms"},
	{"runner.queue_wait_ms_p50", "ms"},
	{"runner.exec_ms_p50", "ms"},
	{"runner.result_ms", "ms"},
	{"runner.sse_bytes", "bytes"},
	{"runner.refused", "count"},
	{"runner.http_overhead_ms_p50", "ms"},
	{"runner.fork_ms_p50", "ms"},
	{"tl2.run_ms", "ms"},
	{"tl2.allocs_per_run", "count"},
	{"tl2.commit_ratio", "ratio"},
	{"eager.run_ms", "ms"},
	{"eager.allocs_per_run", "count"},
	{"eager.commit_ratio", "ratio"},
	{"baseline.run_ms", "ms"},
	{"baseline.allocs_per_run", "count"},
	{"baseline.commit_ratio", "ratio"},
	{"host.alloc_mb", "MB"},
	{"host.allocs", "count"},
	{"host.gc_pause_ms", "ms"},
	{"prof.sim", "share"},
	{"prof.mesh", "share"},
	{"prof.cache", "share"},
	{"prof.mem", "share"},
	{"prof.core", "share"},
	{"prof.workload", "share"},
	{"prof.obs", "share"},
	{"prof.verify", "share"},
	{"prof.runner", "share"},
	{"prof.tl2", "share"},
	{"prof.eager", "share"},
	{"prof.baseline", "share"},
	{"prof.json", "share"},
	{"prof.gc", "share"},
	{"prof.net", "share"},
	{"prof.syscall", "share"},
	{"prof.other", "share"},
	{"trace.overhead", "ratio"},
	{"error_rate", "ratio"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the host metadata, the sample counts, one human-readable line
// per metric, and the final JSON report. Every name in defs must have a
// value.
func emit(o options, b *bench, defs []metricDef, values map[string]float64) error {
	rep := report{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	rep.Correct = b.failed == 0 && b.attempted > 0
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	host, err := json.Marshal(hostInfo(o))
	if err != nil {
		return err
	}
	samples, err := json.Marshal(b.sampleCounts())
	if err != nil {
		return err
	}
	fmt.Fprintf(o.stdout, "# host %s\n", host)
	fmt.Fprintf(o.stdout, "# samples %s\n", samples)
	for _, d := range defs {
		fmt.Fprintf(o.stdout, "# %-30s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(o.stdout, "%s\n", line)
	return err
}

// run executes one benchmark invocation: set-up (repeated, median
// reported), the timed closed loop, and — traced runs only — the traced
// phase and the layer probes.
func run(o options) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	b := newBench(o)
	env, setups, err := setUp(b, w)
	if err != nil {
		return err
	}
	defer env.close()
	if o.corrupt {
		env.corrupt()
	}

	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		ph := b.phase(func() { env.loop(b, d) })
		values := map[string]float64{
			"setup_s":             median(setups),
			"sim_instr_per_cpu_s": float64(ph.instr) / ph.cpu.Seconds(),
			"cpu_ms_per_op":       ms(ph.cpu) / float64(max(1, len(ph.opMs))),
			"sim_cycles":          float64(env.cycles()),
			"peak_rss_mb":         peakRSSMB(),
		}
		return emit(o, b, endToEnd, values)
	}
	values, err := traced(b, env, d)
	if err != nil {
		return err
	}
	return emit(o, b, perLayer, values)
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 3

// setUp builds the workload's environment setupRepeats times, checks that
// every repeat computes the same references, and keeps the last one. It
// returns the CPU seconds each set-up used.
func setUp(b *bench, w workload) (env, []float64, error) {
	var keep env
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		c0 := cpuTime()
		e, err := w.setup(b)
		times = append(times, (cpuTime() - c0).Seconds())
		if err != nil {
			if keep != nil {
				keep.close()
			}
			return nil, nil, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		if keep != nil {
			b.check(slices.EqualFunc(keep.refs(), e.refs(), bytes.Equal), "set-up %d computed different reference summaries", i)
			keep.close()
		}
		keep = e
	}
	return keep, times, nil
}

// median returns the middle value (mean of the two middle values for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
