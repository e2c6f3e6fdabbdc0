// The sweep job kind: the experiments package as a job-runner executor.
// Importing this package registers "sweep" with the tcc job registry, so
// the daemon and tccbench both execute sweeps through tcc.RunJob.
//
// A sweep job is checkpointable: when the runner provides a checkpoint
// path, every completed matrix cell is appended to the manifest the moment
// it finishes, and a restarted job resumes from the manifest instead of
// recomputing. A fresh and a resumed sweep build the report the same way:
// from the per-cell entries OnCell produces, collected in memory as they
// finish and, on a resume, pre-loaded from the manifest. Entries carry each
// cell's components as raw JSON (the Summary wire form is lossy to decode,
// so it is never round-tripped through structs), and the series-relative
// speedups are computed from the entries' cycle counts.

package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"scalabletcc/internal/runner"
	"scalabletcc/tcc"
)

func init() {
	tcc.RegisterJobKind(runner.KindSweep, executeSweep, validateSweepSpec)
}

// retired names the experiments that timed the host instead of simulating
// the paper, with where each measurement lives now (DESIGN.md §32). A spec
// that still asks for one is refused by name rather than as unknown.
var retired = map[string]string{
	"scaling": "the epoch engine's cost is measured by BenchmarkShardedKernel (gated by scripts/bench_gate.py) and perfbench's sim.shard_overhead, and shard-count independence is pinned by testdata/golden_shard.json",
	"hotpath": "its gate benches (BenchmarkSimulatorThroughput, BenchmarkAbortPath, BenchmarkKernelPostStep, BenchmarkMeshSendEvent) run under go test -bench, gated against the base revision by scripts/bench_gate.py",
}

// sweepNames resolves the spec's experiment list: empty (or the single
// entry "all") means the full registry, in registry order.
func sweepNames(sw *runner.SweepSpec) ([]string, error) {
	names := sw.Experiments
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		return Names(), nil
	}
	for _, n := range names {
		if why, ok := retired[n]; ok {
			return nil, fmt.Errorf("experiments: experiment %q was removed (DESIGN.md §32): %s", n, why)
		}
		if _, ok := ByName(n); !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %s, all)",
				n, strings.Join(Names(), ", "))
		}
	}
	return names, nil
}

// validateSweepSpec is the registry validator: every name the spec mentions
// must resolve, and numeric fields must be in range — the same loud-failure
// contract DecodeJobSpec applies to the envelope.
func validateSweepSpec(spec *runner.JobSpec) error {
	sw := spec.Sweep
	if _, err := sweepNames(sw); err != nil {
		return err
	}
	for _, app := range sw.Apps {
		if _, err := tcc.ProfileByNameErr(app); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	for _, p := range sw.Protocols {
		if _, err := tcc.ProtocolByNameErr(p); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	for _, p := range sw.Procs {
		if p < 1 {
			return fmt.Errorf("experiments: processor count %d is invalid", p)
		}
	}
	for _, h := range sw.Hops {
		if h < 1 {
			return fmt.Errorf("experiments: hop latency %d is invalid", h)
		}
	}
	if len(sw.Shards) > 0 {
		return fmt.Errorf("experiments: sweep field shards was the axis of the scaling experiment, which was removed (DESIGN.md §32): %s", retired["scaling"])
	}
	if sw.MaxProcs < 0 || sw.Scale < 0 || sw.Parallel < 0 || sw.TimeoutMS < 0 {
		return fmt.Errorf("experiments: sweep spec numeric fields must be non-negative")
	}
	return nil
}

// sweepOptions maps the wire spec onto Options, zero values taking the
// tccbench defaults (scale 1.0, seed 1, GOMAXPROCS workers).
func sweepOptions(sw *runner.SweepSpec) Options {
	o := DefaultOptions()
	o.Apps = sw.Apps
	o.Protocols = sw.Protocols
	o.Procs = append([]int(nil), sw.Procs...)
	o.HopLatencies = append([]int(nil), sw.Hops...)
	if sw.MaxProcs > 0 {
		o.MaxProcs = sw.MaxProcs
	}
	if sw.Scale > 0 {
		o.Scale = sw.Scale
	}
	if sw.Seed > 0 {
		o.Seed = sw.Seed
	}
	o.Verify = sw.Verify
	o.CountEvents = sw.CountEvents
	if sw.Parallel > 0 {
		o.Parallel = sw.Parallel
	}
	if sw.TimeoutMS > 0 {
		o.JobTimeout = time.Duration(sw.TimeoutMS) * time.Millisecond
	}
	return o
}

// executeSweep is the "sweep" job executor: tccbench's experiment loop in
// job form, with optional checkpointing when the runner provides a path.
// Every experiment runs its missing cells through the one runner — on a
// fresh sweep, all of them — and the report is assembled from the entries.
// Tables need the whole matrix's results, so a resumed sweep (one that
// found entries in its manifest) has Resumed set and no Tables.
func executeSweep(ctx context.Context, spec *runner.JobSpec, jc *runner.JobContext) (*runner.JobResult, error) {
	sw := spec.Sweep
	names, err := sweepNames(sw)
	if err != nil {
		return nil, err
	}
	progress := jc.Progress
	if progress == nil {
		progress = func(string, int, int) {}
	}
	base := sweepOptions(sw)

	var done entries
	var cw *runner.CheckpointWriter
	resumed := false
	if jc.CheckpointPath != "" {
		hash, err := spec.Hash()
		if err != nil {
			return nil, err
		}
		var lines [][]byte
		if lines, cw, err = runner.OpenCheckpoint(jc.CheckpointPath, jc.ID, hash); err != nil {
			return nil, err
		}
		defer cw.Close()
		for _, line := range lines {
			var e entry
			if json.Unmarshal(line, &e) != nil {
				continue // the spec-hash header vouched for the file; skip a bad line, don't trust it
			}
			done.put(e, nil)
		}
		resumed = len(lines) > 0
	}

	var cells []Cell
	var tables bytes.Buffer
	for _, name := range names {
		e, _ := ByName(name)
		o := base
		if e.maxProcs != 0 && sw.MaxProcs == 0 {
			o.MaxProcs = e.maxProcs
		}
		o, jobs, err := e.prepare(o)
		if err != nil {
			return nil, err
		}
		var todo []int
		for i := range jobs {
			if !done.has(name, i) {
				todo = append(todo, i)
			}
		}
		skipped := len(jobs) - len(todo)
		o.Ctx = ctx
		o.Progress = func(d, _ int) { progress(name, skipped+d, len(jobs)) }
		o.OnCell = func(experiment string, i int, j Job, out RunResult) {
			ent, err := newEntry(experiment, i, j, out)
			done.put(ent, err)
			if err == nil && cw != nil {
				_ = cw.Append(ent) // a lost entry only makes a resume rerun the cell
			}
		}
		if len(todo) == 0 && len(jobs) > 0 {
			progress(name, len(jobs), len(jobs))
		}
		outs, err := o.runMatrix(name, jobs, todo)
		if err != nil {
			return nil, err
		}
		if !resumed {
			fmt.Fprintf(&tables, "== %s ==\n", name)
			if err := e.print(o, jobs, outs, &tables); err != nil {
				return nil, err
			}
			fmt.Fprintln(&tables)
		}
		c, err := done.cells(name, len(jobs))
		if err != nil {
			return nil, err
		}
		cells = append(cells, c...)
	}
	rep := &Report{
		Schema:   ReportSchema,
		Version:  ReportVersion,
		Seed:     base.Seed,
		Scale:    base.Scale,
		Parallel: base.Parallel,
		Cells:    cells,
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		return nil, err
	}
	res := &runner.JobResult{Kind: runner.KindSweep, Report: buf.Bytes(), Cells: len(cells), Resumed: resumed}
	if sw.Tables && !resumed {
		res.Tables = tables.String()
	}
	return res, nil
}
