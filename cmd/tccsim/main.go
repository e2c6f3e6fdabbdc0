// Command tccsim runs one workload on one Scalable TCC machine
// configuration and prints the execution-time breakdown, protocol counters,
// and traffic decomposition — the single-run view of the simulator.
//
// The flags are adapters over the versioned job API: tccsim builds a
// scalabletcc/job v1 run spec and executes it through tcc.RunJob — the
// same path the tccd daemon uses — so a CLI run and a daemon job with the
// same spec and seed produce byte-identical event streams.
//
// Usage:
//
//	tccsim -app barnes -procs 32
//	tccsim -app hotspot -procs 16 -granularity line -verify
//	tccsim -app swim -procs 64 -hop 8 -scale 0.5
//	tccsim -app barnes -procs 32 -checkpoint run.ckpt -checkpoint-every 100000
//
// With -checkpoint/-checkpoint-every the run snapshots its full simulator
// state into a crash-safe manifest every N cycles; rerunning the same
// command after an interruption resumes from the latest snapshot and
// produces byte-identical output to an uninterrupted run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"scalabletcc/internal/cliflag"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/stats"
	"scalabletcc/tcc"
)

func main() {
	var (
		app      = flag.String("app", "barnes", "workload profile (see -list)")
		list     = flag.Bool("list", false, "list available workload profiles and exit")
		protocol = flag.String("protocol", "tcc", "machine model to run (list prints the registry)")
		procs    = flag.Int("procs", 16, "processor count")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		hop      = flag.Int("hop", 3, "mesh link latency, cycles per hop")
		gran     = flag.String("granularity", "word", "conflict detection granularity: word|line")
		retain   = flag.Int("retain", 8, "violations before TID retention (0 disables)")
		wt       = flag.Bool("writethrough", false, "ship data with commit marks instead of write-back")
		shards   = flag.Int("shards", 0, "run the sharded epoch kernel with N shards (0 = sequential; results are shard-count independent)")
		verify   = flag.Bool("verify", false, "check serializability of the commit log")
		tape     = flag.Bool("tape", false, "profile conflicts (TAPE): print the most damaging lines")
		traceOut = flag.String("trace-json", "", "write every protocol event as JSON Lines to this file (- for stdout)")
		sample   = flag.Uint64("sample", 0, "with -trace-json: emit a machine-occupancy sample every N cycles")
		ckpt     = flag.String("checkpoint", "", "checkpoint manifest path: snapshot into it as the run progresses, resume from it when rerun")
		ckptN    = flag.Uint64("checkpoint-every", 0, "with -checkpoint: snapshot the full simulator state every N cycles")
	)
	flag.Parse()

	if *protocol == cliflag.ProtocolListArg {
		cliflag.ListProtocols(os.Stdout)
		return
	}
	if *list {
		cliflag.ListProfiles(os.Stdout)
		return
	}

	prof, err := tcc.ProfileByNameErr(*app)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tccsim: %v (try -list)\n", err)
		os.Exit(1)
	}

	sink, closeSink := openSink(*traceOut)
	defer closeSink()

	// An explicit -scale <= 0 historically ran the minimum workload (Profile
	// scaling clamps at one transaction per phase), but the wire spec reads
	// zero as "the default 1.0" and refuses negatives; a scale small enough
	// to hit the same clamp on every profile preserves the old behaviour.
	effScale := *scale
	if effScale <= 0 {
		effScale = 1e-12
	}

	r := *retain
	spec := tcc.NewJobSpec(tcc.JobKindRun)
	spec.Run = &tcc.RunSpec{
		App:      *app,
		Protocol: *protocol,
		Procs:    *procs,
		Scale:    effScale,
		Seed:     *seed,
		Verify:   *verify,
		Machine: &tcc.MachineSpec{
			HopLatency:      *hop,
			LineGranularity: *gran == "line",
			StarveRetain:    &r,
			WriteThrough:    *wt,
			Shards:          *shards,
		},
	}
	opts := &tcc.RunJobOptions{EventWriter: sink}

	scalable := *protocol == "tcc"
	if (*ckpt != "") != (*ckptN > 0) {
		exitOn(fmt.Errorf("-checkpoint and -checkpoint-every go together"))
	}
	if *ckptN > 0 {
		if !scalable {
			exitOn(fmt.Errorf("-checkpoint requires the scalable machine (protocol tcc)"))
		}
		spec.Run.CheckpointEvery = *ckptN
		opts.CheckpointPath = *ckpt
	}
	if scalable {
		// -tape and -sample apply to the scalable machine only; registry
		// protocols ignore them, as the pre-job CLI always has.
		opts.ConflictProfile = *tape
		if *sample > 0 {
			if sink == nil {
				exitOn(fmt.Errorf("-sample requires -trace-json"))
			}
			spec.Run.SampleEvery = *sample
		}
	}

	out, err := tcc.RunJob(context.Background(), spec, opts)
	exitOn(err)

	if !scalable {
		printRegistry(*protocol, prof, *procs, out, *verify)
		return
	}
	res := out.Proto.Scalable
	fmt.Printf("Scalable TCC: %s on %d procs (%s granularity)\n", prof.Name, *procs, *gran)
	fmt.Printf("  cycles        %d\n", res.Cycles)
	fmt.Printf("  commits       %d, violations %d, committed instr %d\n",
		res.Commits, res.Violations, res.Instr)
	printBreakdown(res.Breakdown)
	fmt.Printf("  tx fingerprint (p90): %d instr, rd %d B, wr %d B, %d dirs/commit\n",
		res.TxInstrP90, res.RdSetBytesP90, res.WrSetBytesP90, res.DirsPerCommitP90)
	fmt.Printf("  directories   occupancy p90 %d cycles, working set p90 %d entries\n",
		res.DirOccupancyP90, res.DirWorkingSetP90)
	fmt.Printf("  traffic       %.4f B/instr (commit %.4f, miss %.4f, wb %.4f, shared %.4f)\n",
		res.BytesPerInstr(),
		res.ClassBytesPerInstr(mesh.ClassCommit),
		res.ClassBytesPerInstr(mesh.ClassMiss),
		res.ClassBytesPerInstr(mesh.ClassWriteBack),
		res.ClassBytesPerInstr(mesh.ClassShared))
	fmt.Printf("  cache         %d misses, %d evictions, %d spills, %d invalidations\n",
		res.CacheStats.Misses, res.CacheStats.Evictions, res.CacheStats.Spills,
		res.CacheStats.Invalidations)
	fmt.Printf("  protocol      %d stalled loads, %d owner forwards, %d dropped write-backs\n",
		res.StalledLoads, res.Forwards, res.DroppedWBs)
	if profiler := out.Profiler; profiler != nil {
		fmt.Printf("  TAPE          %d violations, %d wasted cycles\n",
			profiler.TotalViolations(), profiler.WastedCycles())
		for _, r := range profiler.Top(10) {
			fmt.Printf("    %s\n", r)
		}
		if starved := profiler.Starved(uint64(*retain)); *retain > 0 && len(starved) > 0 {
			for _, sr := range starved {
				fmt.Printf("    starvation: proc %d hit a streak of %d retries\n", sr.Proc, sr.WorstStreak)
			}
		}
	}
	if *verify {
		reportVerify(out.Result.Violations)
	}
}

// printRegistry prints a non-default protocol's digest: the shared summary
// plus model-specific counters.
func printRegistry(name string, prof tcc.Profile, procs int, out *tcc.JobOutput, verify bool) {
	res := out.Proto
	info, _ := tcc.ProtocolByNameErr(name)
	fmt.Printf("%s (%s detection): %s on %d procs\n", name, info.Detection, prof.Name, procs)
	fmt.Printf("  cycles        %d\n", res.Summary.Cycles)
	fmt.Printf("  commits       %d, violations %d, committed instr %d\n",
		res.Summary.Commits, res.Summary.Violations, res.Summary.Instructions)
	printBreakdown(res.Summary.Breakdown)
	switch {
	case res.TL2 != nil:
		fmt.Printf("  version clock %d reads, %d advances (node 0 round trips)\n",
			res.TL2.ClockReads, res.TL2.ClockAdvances)
		fmt.Printf("  traffic       %d bytes over the mesh\n", res.TL2.Traffic.TotalBytes())
	case res.Eager != nil:
		fmt.Printf("  NACK aborts   %d on read, %d on write (requester loses)\n",
			res.Eager.NacksRead, res.Eager.NacksWrite)
		fmt.Printf("  traffic       %d bytes over the mesh\n", res.Eager.Traffic.TotalBytes())
	case res.Baseline != nil:
		fmt.Printf("  bus           %d bytes, busy %d cycles (%.1f%%)\n",
			res.Baseline.BusBytes, res.Baseline.BusBusy,
			100*float64(res.Baseline.BusBusy)/float64(res.Baseline.Cycles))
	}
	if verify {
		reportVerify(out.Result.Violations)
	}
}

// openSink opens the -trace-json sink: nil for "", stdout for "-", a
// created file otherwise. The returned closer is safe to call always.
func openSink(path string) (io.Writer, func()) {
	switch path {
	case "":
		return nil, func() {}
	case "-":
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	exitOn(err)
	return f, func() { f.Close() }
}

func printBreakdown(b stats.Breakdown) {
	total := b.Total()
	fmt.Printf("  breakdown     ")
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		fmt.Printf("%s %.1f%%  ", c, 100*float64(b[c])/float64(total))
	}
	fmt.Println()
}

func reportVerify(violations int) {
	if violations == 0 {
		fmt.Println("  serializability: OK (every committed read matches the TID-serial order)")
		return
	}
	fmt.Printf("  serializability: %d VIOLATIONS\n", violations)
	os.Exit(1)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tccsim:", err)
		os.Exit(1)
	}
}
