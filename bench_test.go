// Package scalabletcc's root benchmarks regenerate every table and figure
// of the paper's evaluation in miniature (scaled workloads), one bench per
// artifact, plus the ablation benches DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports paper-relevant custom metrics (speedup,
// bytes/instr, violations) alongside the usual ns/op, so `-bench` output
// doubles as a quick reproduction report. cmd/tccbench runs the full-size
// versions.
package scalabletcc

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"scalabletcc/internal/experiments"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/stats"
	"scalabletcc/tcc"
)

// benchOpts returns experiment options scaled for benchmark iteration.
// Parallel is pinned to 1 so per-op timings stay comparable across hosts;
// BenchmarkFig7Parallel measures the fan-out win separately.
func benchOpts() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Scale = 0.1
	opts.MaxProcs = 16
	opts.Procs = []int{1, 4, 16}
	opts.Apps = []string{"barnes", "equake", "SPECjbb2000", "volrend"}
	opts.Parallel = 1
	return opts
}

// BenchmarkTable3 regenerates the application-characterization table.
func BenchmarkTable3(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(opts.Apps) {
			b.Fatalf("got %d rows", len(rows))
		}
		if i == 0 {
			for _, r := range rows {
				if r.App == "barnes" {
					b.ReportMetric(float64(r.TxInstrP90), "barnes-txsize-p90")
					b.ReportMetric(float64(r.DirsPerCommitP90), "barnes-dirs/commit-p90")
				}
			}
		}
	}
}

// BenchmarkFig6 regenerates the single-processor breakdown.
func BenchmarkFig6(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var worst float64
			for _, r := range rows {
				if r.CommitFraction > worst {
					worst = r.CommitFraction
				}
			}
			b.ReportMetric(100*worst, "worst-commit-%-1cpu")
		}
	}
}

// BenchmarkFig7 regenerates the scaling study.
func BenchmarkFig7(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig7(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cells {
				if c.App == "SPECjbb2000" && c.Procs == 16 {
					b.ReportMetric(c.Speedup, "jbb-speedup-16p")
				}
				if c.App == "equake" && c.Procs == 16 {
					b.ReportMetric(c.Speedup, "equake-speedup-16p")
				}
			}
		}
	}
}

// BenchmarkFig7Parallel runs the same scaling study with the sweep fanned
// across all available cores — compare ns/op against BenchmarkFig7 for the
// harness's wall-clock win (on an N-core host expect up to ~min(N, jobs)x).
func BenchmarkFig7Parallel(b *testing.B) {
	opts := benchOpts()
	opts.Parallel = runtime.GOMAXPROCS(0)
	b.ReportMetric(float64(opts.Parallel), "workers")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the latency-sensitivity sweep.
func BenchmarkFig8(b *testing.B) {
	opts := benchOpts()
	opts.Apps = []string{"equake", "SPECjbb2000"}
	opts.HopLatencies = []int{1, 8}
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig8(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cells {
				if c.HopCycles == 8 {
					switch c.App {
					case "equake":
						b.ReportMetric(c.SlowdownVsHop1, "equake-slowdown-8cyc")
					case "SPECjbb2000":
						b.ReportMetric(c.SlowdownVsHop1, "jbb-slowdown-8cyc")
					}
				}
			}
		}
	}
}

// BenchmarkFig9 regenerates the traffic decomposition.
func BenchmarkFig9(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.App == "barnes" {
					b.ReportMetric(r.Total, "barnes-bytes/instr")
				}
			}
		}
	}
}

// BenchmarkBaselineVsScalable regenerates the A1 ablation: parallel commit
// vs the bus-serialized small-scale TCC.
func BenchmarkBaselineVsScalable(b *testing.B) {
	opts := benchOpts()
	opts.Apps = []string{"commitbound"}
	opts.Procs = []int{1, 16}
	for i := 0; i < b.N; i++ {
		cells, err := experiments.BaselineComparison(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cells {
				if c.Procs == 16 {
					b.ReportMetric(c.ScalableSpeedup, "scalable-speedup-16p")
					b.ReportMetric(c.BaselineSpeedup, "bus-speedup-16p")
				}
			}
		}
	}
}

// BenchmarkProtocols times each registry machine model on the contended
// hotspot workload through the unified RunProtocol API — one sub-benchmark
// per protocol, so the bench gate can hold per-protocol baselines. Simulated
// cycles and violations ride along as custom metrics: a simulator speedup
// that changes either moved behaviour, not just time.
func BenchmarkProtocols(b *testing.B) {
	for _, info := range tcc.Protocols() {
		b.Run(info.Name, func(b *testing.B) {
			cfg := tcc.DefaultConfig(8)
			cfg.Seed = 1
			prog := tcc.MustProfile("hotspot").Scale(0.25).Build(cfg.Procs, cfg.Seed)
			b.ReportAllocs()
			b.ResetTimer()
			var last *tcc.ProtocolResults
			for i := 0; i < b.N; i++ {
				res, err := tcc.RunProtocol(info.Name, cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Summary.Cycles), "sim-cycles")
			b.ReportMetric(float64(last.Summary.Violations), "violations")
		})
	}
}

// BenchmarkGranularity regenerates the A2 ablation: word- vs line-level
// conflict detection under false sharing.
func BenchmarkGranularity(b *testing.B) {
	opts := benchOpts()
	opts.Apps = []string{"falseshare"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Granularity(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(float64(rows[0].WordViolations), "word-violations")
			b.ReportMetric(float64(rows[0].LineViolations), "line-violations")
		}
	}
}

// BenchmarkProbes regenerates the A3 ablation: deferred probe responses vs
// repeated probing.
func BenchmarkProbes(b *testing.B) {
	opts := benchOpts()
	opts.Apps = []string{"commitbound"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Probes(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(rows[0].RepeatedSlowdown, "repeated-probing-slowdown")
		}
	}
}

// BenchmarkWriteBackCommit regenerates the A4 ablation: write-back vs
// write-through commit traffic.
func BenchmarkWriteBackCommit(b *testing.B) {
	opts := benchOpts()
	opts.Apps = []string{"swim", "radix"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WriteBack(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(rows[0].TrafficAmplification, "writethrough-traffic-x")
		}
	}
}

// BenchmarkShardedKernel measures the epoch kernel against the sequential
// engine on a 64-processor hotspot run (the workload the sharding work
// targets: one contended directory, every commit crossing the mesh). "seq"
// is the sequential kernel (Shards = 0); the shardsN variants run the same
// program on the epoch engine with Shards = N (the name avoids a trailing
// -N, which bench-output parsers read as the GOMAXPROCS suffix). Every
// shardsN variant must report the same sim-cycles — shard-count
// independence is the engine's contract — and, since every window runs on
// one goroutine, the same cost; the interesting spread is ns/op, the epoch
// machinery's overhead over the sequential kernel.
func BenchmarkShardedKernel(b *testing.B) {
	prof := tcc.MustProfile("hotspot").Scale(0.1)
	for _, sh := range []int{0, 1, 4} {
		name := "seq"
		if sh > 0 {
			name = fmt.Sprintf("shards%d", sh)
		}
		b.Run(name, func(b *testing.B) {
			cfg := tcc.DefaultConfig(64)
			cfg.Seed = 3
			cfg.Shards = sh
			prog := prof.Build(cfg.Procs, cfg.Seed)
			b.ReportAllocs()
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := tcc.Run(cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per wall-clock second on a 16-processor barnes run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof := tcc.MustProfile("barnes").Scale(0.1)
	cfg := tcc.DefaultConfig(16)
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := tcc.Run(cfg, prof.Build(16, uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		cycles += uint64(res.Cycles)
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

// BenchmarkPaperScaleCell is one pair of the paper-scale cells every
// tccbench sweep and the perfbench paper-mix workload pay: swim and radix at
// 32 processors, scale 0.05, commit log on and verified. At this size a run
// is mostly warm-up, so B/op and allocs/op show what building and growing
// the per-run tables (transaction buffers, read sets, memory banks, cache
// tag tables, sharer sets) costs.
func BenchmarkPaperScaleCell(b *testing.B) {
	cfg := tcc.DefaultConfig(32)
	cfg.CollectCommitLog = true
	apps := []tcc.Profile{tcc.MustProfile("swim").Scale(0.05), tcc.MustProfile("radix").Scale(0.05)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, prof := range apps {
			res, err := tcc.Run(cfg, prof.Build(32, cfg.Seed))
			if err != nil {
				b.Fatal(err)
			}
			if v := tcc.Verify(res); len(v) != 0 {
				b.Fatalf("%s: %d serializability violations", prof.Name, len(v))
			}
		}
	}
}

// paperScaleCellBytes is BenchmarkPaperScaleCell's B/op as measured with
// Go 1.24 on linux/amd64 after the per-home line ids of DESIGN §36. The
// runtime's own allocations (map layout, growth steps) differ between Go
// releases, so CI runs this test on the same Go release; a toolchain
// upgrade re-measures the constant.
const paperScaleCellBytes = 61_770_000

// TestPaperScaleCellAllocBudget fails when BenchmarkPaperScaleCell
// allocates more than 2% over paperScaleCellBytes per op. A run is
// deterministic, so its allocation is too: unlike ns/op, B/op measures the
// change and not the host.
func TestPaperScaleCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs BenchmarkPaperScaleCell for about a second")
	}
	r := testing.Benchmark(BenchmarkPaperScaleCell)
	if r.N == 0 {
		t.Fatal("BenchmarkPaperScaleCell failed")
	}
	budget := int64(paperScaleCellBytes) * 102 / 100
	if got := r.AllocedBytesPerOp(); got > budget {
		t.Fatalf("BenchmarkPaperScaleCell allocates %d B/op, over the budget of %d (%d + 2%%)",
			got, budget, paperScaleCellBytes)
	}
}

// BenchmarkObserverOff measures the simulator with no observer attached —
// the baseline for the zero-overhead claim: disabled observation must cost
// only a nil check on the emit paths. Compare sim-cycles/op and ns/op with
// BenchmarkObserverCounting.
func BenchmarkObserverOff(b *testing.B) {
	prof := tcc.MustProfile("barnes").Scale(0.1)
	cfg := tcc.DefaultConfig(16)
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		sys, err := tcc.NewSystem(cfg, prof.Build(16, uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += uint64(res.Cycles)
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

// BenchmarkObserverCounting measures the same run with the cheapest real
// sink attached (per-kind counters), bounding the cost of enabling
// observation.
func BenchmarkObserverCounting(b *testing.B) {
	prof := tcc.MustProfile("barnes").Scale(0.1)
	cfg := tcc.DefaultConfig(16)
	b.ReportAllocs()
	var cycles, events uint64
	for i := 0; i < b.N; i++ {
		sys, err := tcc.NewSystem(cfg, prof.Build(16, uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		c := tcc.NewCountingObserver()
		sys.Observe(c)
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += uint64(res.Cycles)
		events += c.Total()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkObserverJSONL measures the same run streaming every event as
// JSON Lines to a file, the -trace-json path. writes/op counts the stream's
// writes to the file: whole-line blocks of 64 KiB, plus the final flush.
func BenchmarkObserverJSONL(b *testing.B) {
	prof := tcc.MustProfile("barnes").Scale(0.1)
	cfg := tcc.DefaultConfig(16)
	f, err := os.Create(filepath.Join(b.TempDir(), "events.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	w := &lineCountingWriter{w: f}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := tcc.NewSystem(cfg, prof.Build(16, uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		jw := tcc.NewJSONLObserver(w)
		sys.Observe(jw)
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		if err := jw.Flush(); err != nil {
			b.Fatal(err)
		}
		w.lines-- // the schema header
	}
	b.ReportMetric(float64(w.lines)/float64(b.N), "events/op")
	b.ReportMetric(float64(w.writes)/float64(b.N), "writes/op")
}

// lineCountingWriter counts the writes and lines passing through to w.
type lineCountingWriter struct {
	w             io.Writer
	writes, lines int
}

func (c *lineCountingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.lines += bytes.Count(p, []byte("\n"))
	return c.w.Write(p)
}

// BenchmarkCommitLatency isolates the commit path: a tiny-transaction
// workload where validation+commit dominates, reporting mean commit-phase
// cycles per transaction.
func BenchmarkCommitLatency(b *testing.B) {
	prof := tcc.MustProfile("commitbound").Scale(0.1)
	cfg := tcc.DefaultConfig(16)
	for i := 0; i < b.N; i++ {
		res, err := tcc.Run(cfg, prof.Build(16, 1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && res.Commits > 0 {
			var commitCycles uint64
			for _, p := range res.PerProc {
				commitCycles += p.Breakdown[stats.Commit]
			}
			b.ReportMetric(float64(commitCycles)/float64(res.Commits), "commit-cycles/tx")
		}
	}
}

// BenchmarkAbortPath isolates the abort path: a contended-hotspot workload
// in which most transaction attempts violate and roll back, so the cache's
// arena-snapshot abort (tracked-list gang-clear plus O(1) overflow wipe) and
// the directory's retirement bookkeeping dominate. Reports violations per
// run so a change that accidentally suppresses aborts — making the numbers
// incomparable — is visible in the output.
func BenchmarkAbortPath(b *testing.B) {
	prof := tcc.MustProfile("hotspot").Scale(0.1)
	cfg := tcc.DefaultConfig(16)
	cfg.Seed = 7
	b.ReportAllocs()
	var viol uint64
	for i := 0; i < b.N; i++ {
		res, err := tcc.Run(cfg, prof.Build(16, cfg.Seed))
		if err != nil {
			b.Fatal(err)
		}
		viol += res.Violations
	}
	b.ReportMetric(float64(viol)/float64(b.N), "violations/op")
}

// BenchmarkMeshThroughput measures the interconnect substrate alone.
func BenchmarkMeshThroughput(b *testing.B) {
	res, err := tcc.Run(tcc.DefaultConfig(16), tcc.MustProfile("radix").Scale(0.1).Build(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	bpi := res.ClassBytesPerInstr(mesh.ClassCommit)
	b.ReportMetric(bpi, "commit-bytes/instr")
	for i := 0; i < b.N; i++ {
		if _, err := tcc.Run(tcc.DefaultConfig(16), tcc.MustProfile("radix").Scale(0.1).Build(16, 1)); err != nil {
			b.Fatal(err)
		}
	}
}
