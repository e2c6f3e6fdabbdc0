// Command tccbench regenerates the tables and figures of "A Scalable,
// Non-blocking Approach to Transactional Memory" (HPCA 2007), plus the
// ablations described in DESIGN.md. Independent simulation runs are fanned
// across worker goroutines (-parallel, default GOMAXPROCS); output is
// byte-identical whatever the worker count.
//
// The flags are adapters over the versioned job API: tccbench builds a
// scalabletcc/job v1 sweep spec and executes it through tcc.RunJob — the
// same path the tccd daemon uses, where the identical spec additionally
// checkpoints per cell and resumes across restarts.
//
// Usage:
//
//	tccbench -exp fig7 -scale 0.25 -procs 1,4,16,64
//	tccbench -exp fig7 -parallel 8 -json -out BENCH_sweep.json
//	tccbench -exp all -verify
//
// Experiments: table1 table2 table3 fig6 fig7 fig8 fig9 protocols baseline
// granularity probes writeback dircache all
//
// Every experiment is a function of simulated cycles, so the tables and the
// report are a pure function of the flags; only the report header's
// "parallel" field records the worker count. Host time is measured by the
// Go benchmarks and perfbench, not here (DESIGN.md §32).
//
// The protocols experiment runs the head-to-head sweep across the protocol
// registry (TCC, bus baseline, TL2 STM, eager HTM); -protocol narrows the
// set, and -protocol list prints the registry.
//
// -timeout bounds each simulation's wall-clock time.
//
// With -json (implied by -out) the run also emits a versioned
// machine-readable report — one cell per (app, procs, config) simulation —
// to -out FILE, or to stdout (suppressing the tables) when no -out is
// given. The schema is documented in EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"scalabletcc/internal/cliflag"
	"scalabletcc/internal/experiments"
	"scalabletcc/tcc"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), "|")+"|all")
		apps     = flag.String("apps", "", "comma-separated app names (default: per-experiment set)")
		procs    = flag.String("procs", "", "comma-separated processor counts for sweeps (default 1,2,4,8,16,32,64)")
		max      = flag.Int("maxprocs", 0, "machine size for table3/fig8/fig9/ablations (default 64; table3 default 32)")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (0.1 = ten times fewer transactions)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		verify   = flag.Bool("verify", false, "run the serializability oracle on every run")
		protos   = flag.String("protocol", "", "comma-separated protocols for the head-to-head sweep (default: full registry; list prints it)")
		hops     = flag.String("hops", "", "comma-separated cycles/hop for fig8 (default 1,2,4,8)")
		parallel = flag.Int("parallel", 0, "worker goroutines for independent runs (0 = GOMAXPROCS)")
		jsonFlag = flag.Bool("json", false, "emit the machine-readable report (JSON)")
		outFile  = flag.String("out", "", "write the JSON report to FILE (implies -json)")
		timeout  = flag.Duration("timeout", 0, "per-run wall-clock timeout, e.g. 10m (0 = none)")
		progress = flag.Bool("progress", false, "print per-experiment run progress to stderr")
		events   = flag.Bool("events", false, "count protocol events per run and add them to the JSON report cells")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to FILE (analyze with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile to FILE at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // flush unreachable objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	if *protos == cliflag.ProtocolListArg {
		cliflag.ListProtocols(os.Stdout)
		return
	}
	if *parallel < 0 {
		fatal(fmt.Errorf("-parallel %d is invalid (0 = GOMAXPROCS, or a positive worker count)", *parallel))
	}
	// The wire spec reads a zero scale as "the default"; the CLI's zero is an
	// explicit (invalid) input, refused with the historical message.
	if *scale <= 0 {
		fatal(fmt.Errorf("experiments: Scale %v is invalid (must be > 0)", *scale))
	}

	wantJSON := *jsonFlag || *outFile != ""
	wantTables := !(wantJSON && *outFile == "") // stdout carries the JSON document otherwise

	spec := tcc.NewJobSpec(tcc.JobKindSweep)
	sw := &tcc.SweepSpec{
		Apps:        cliflag.SplitList(*apps),
		Protocols:   cliflag.SplitList(*protos),
		MaxProcs:    *max,
		Scale:       *scale,
		Seed:        *seed,
		Verify:      *verify,
		CountEvents: *events,
		Parallel:    *parallel,
		Tables:      wantTables,
	}
	if *exp != "all" {
		sw.Experiments = []string{*exp}
	}
	var err error
	if sw.Procs, err = cliflag.ParseInts(*procs); err != nil {
		fatal(err)
	}
	if sw.Hops, err = cliflag.ParseInts(*hops); err != nil {
		fatal(err)
	}
	if *timeout > 0 {
		// The wire spec carries milliseconds; round a sub-millisecond guard
		// up rather than silently dropping it.
		sw.TimeoutMS = int64((*timeout + time.Millisecond - 1) / time.Millisecond)
	}
	spec.Sweep = sw

	opts := &tcc.RunJobOptions{}
	if *progress {
		opts.Progress = progressPrinter()
	}

	out, err := tcc.RunJob(context.Background(), spec, opts)
	if err != nil {
		fatal(err)
	}
	if wantTables {
		fmt.Print(out.Result.Tables)
	}

	if wantJSON {
		if *outFile != "" {
			f, err := os.Create(*outFile)
			if err != nil {
				fatal(err)
			}
			if _, err := f.Write(out.Result.Report); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "tccbench: wrote %d cells to %s\n", out.Result.Cells, *outFile)
		} else if _, err := os.Stdout.Write(out.Result.Report); err != nil {
			fatal(err)
		}
	}
}

// progressPrinter adapts the job Progress callback to the historical
// one-updating-status-line-per-experiment format on stderr.
func progressPrinter() func(stage string, done, total int) {
	return func(stage string, done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d", stage, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tccbench:", err)
	os.Exit(1)
}
