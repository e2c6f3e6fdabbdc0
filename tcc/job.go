// The job layer: every way of running the simulator — the tccsim/tccbench/
// tccfuzz CLIs and the tccd daemon — goes through one entry point, RunJob,
// driven by a versioned runner.JobSpec. The runner package owns the wire
// schema and the queue; this file owns execution: the built-in "run" kind
// (one simulation of any registered protocol), and a job-kind registry the
// experiments and fuzz packages plug "sweep" and "fuzz" into (from their
// init functions, database/sql-driver style, which keeps this package free
// of an import cycle with them).
package tcc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"scalabletcc/internal/obs"
	"scalabletcc/internal/runner"
)

// JobSpec aliases re-export the runner wire schema so CLI and library
// callers need only this package.
type (
	JobSpec     = runner.JobSpec
	RunSpec     = runner.RunSpec
	MachineSpec = runner.MachineSpec
	SweepSpec   = runner.SweepSpec
	FuzzSpec    = runner.FuzzSpec
	JobResult   = runner.JobResult
	JobContext  = runner.JobContext
)

// Job kinds, re-exported from the runner schema.
const (
	JobKindRun   = runner.KindRun
	JobKindSweep = runner.KindSweep
	JobKindFuzz  = runner.KindFuzz
)

// NewJobSpec returns an empty spec of the given kind with the schema
// envelope filled in.
func NewJobSpec(kind string) *JobSpec { return runner.NewJobSpec(kind) }

// DecodeJobSpec parses and strictly validates a scalabletcc/job document.
func DecodeJobSpec(data []byte) (*JobSpec, error) { return runner.DecodeJobSpec(data) }

// ---------------------------------------------------------------------------
// Job-kind registry.

type jobKind struct {
	exec     runner.Executor
	validate func(*JobSpec) error
}

var jobKinds = map[string]jobKind{}

// RegisterJobKind installs the executor (and optional spec validator) for a
// job kind. The experiments package registers "sweep" and the fuzz package
// registers "fuzz" from their init functions; importing them for side
// effects (as the CLIs and the daemon do) is what makes those kinds
// runnable. Registering a duplicate kind panics — it is a wiring bug.
func RegisterJobKind(kind string, exec runner.Executor, validate func(*JobSpec) error) {
	if kind == JobKindRun {
		panic("tcc: job kind \"run\" is built in")
	}
	if _, dup := jobKinds[kind]; dup {
		panic(fmt.Sprintf("tcc: job kind %q registered twice", kind))
	}
	jobKinds[kind] = jobKind{exec: exec, validate: validate}
}

// registeredKinds returns every runnable kind, sorted, for error messages.
func registeredKinds() []string {
	kinds := []string{JobKindRun}
	for k := range jobKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// ValidateJobSpec fully validates a spec: the envelope (schema, version,
// payload shape) plus name resolution against the live registries — workload
// profiles, protocols, and whatever the registered kind's validator checks.
// The daemon runs this at admission so a bad spec is a 400, not a failed job.
func ValidateJobSpec(spec *JobSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	switch spec.Kind {
	case JobKindRun:
		return validateRunSpec(spec.Run)
	default:
		jk, ok := jobKinds[spec.Kind]
		if !ok {
			return fmt.Errorf("tcc: job kind %q is not runnable in this build (runnable: %s)",
				spec.Kind, strings.Join(registeredKinds(), ", "))
		}
		if jk.validate != nil {
			return jk.validate(spec)
		}
		return nil
	}
}

func validateRunSpec(r *RunSpec) error {
	if _, err := ProfileByNameErr(r.App); err != nil {
		return err
	}
	protocol := r.Protocol
	if protocol == "" {
		protocol = "tcc"
	}
	if _, err := ProtocolByNameErr(protocol); err != nil {
		return err
	}
	if r.CheckpointEvery > 0 {
		if protocol != "tcc" {
			return fmt.Errorf("tcc: checkpointing requires the scalable machine (protocol %q has no snapshot support)", protocol)
		}
		if r.SampleEvery > 0 {
			return fmt.Errorf("tcc: checkpointing and sampling are mutually exclusive (the sampler's phase is not part of the snapshot)")
		}
	}
	if r.SampleEvery > 0 {
		if protocol != "tcc" {
			return fmt.Errorf("tcc: sampling requires the scalable machine (protocol %q has no sampler)", protocol)
		}
		if r.Machine != nil && r.Machine.Shards > 0 {
			return fmt.Errorf("tcc: sampling requires the sequential engine (shards 0); the epoch engine (shards %d) has no sampler",
				r.Machine.Shards)
		}
	}
	_, err := runConfig(r).compile(protocol)
	return err
}

// ExecuteJob is the canonical runner.Executor: it dispatches on the spec's
// kind — "run" built in, everything else through the registry. cmd/tccd
// hands it to the queue; RunJob wraps it for direct CLI use.
func ExecuteJob(ctx context.Context, spec *JobSpec, jc *JobContext) (*JobResult, error) {
	if jc == nil {
		jc = runner.NewJobContext()
	}
	if err := ValidateJobSpec(spec); err != nil {
		return nil, err
	}
	if spec.Kind != JobKindRun {
		return jobKinds[spec.Kind].exec(ctx, spec, jc)
	}
	out, err := executeRun(ctx, spec, jc, nil)
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// ---------------------------------------------------------------------------
// RunJob: the CLI-facing entry point.

// RunJobOptions carries the per-invocation hooks a CLI attaches to a job.
// All fields are optional.
type RunJobOptions struct {
	// EventWriter receives the scalabletcc/events v1 JSONL stream (run
	// jobs). When nil, events stream to the JobContext's StreamLog if one is
	// attached, else observation is off.
	EventWriter io.Writer
	// Observer is an extra event observer teed ahead of the JSONL stream.
	Observer Observer
	// ConflictProfile attaches the TAPE conflict profiler (run jobs on the
	// scalable machine).
	ConflictProfile bool
	// Progress receives coarse completion callbacks (sweep jobs).
	Progress func(stage string, done, total int)
	// Logf receives human-readable progress lines (fuzz jobs).
	Logf func(format string, args ...any)
	// CheckpointPath points sweep jobs — and run jobs with a non-zero
	// CheckpointEvery — at a checkpoint file to create or resume from. It
	// holds one entry, replaced atomically at each write: every cell a
	// sweep has finished, or a run's newest snapshot. Run jobs keep an
	// event-stream sidecar next to it so a resumed stream is byte-identical
	// to an uninterrupted one.
	CheckpointPath string
}

// JobOutput is RunJob's return value: the wire-form result every path
// shares, plus the typed views a CLI needs for rich printing (nil for kinds
// that do not produce them).
type JobOutput struct {
	Result *JobResult
	// Proto is the run's full protocol result (run jobs).
	Proto *ProtocolResults
	// Profiler is the attached TAPE profiler when ConflictProfile was set.
	Profiler *ConflictProfiler
}

// RunJob validates and executes one job in-process — the same execution
// path the daemon drives through its queue, minus the queue. The three CLIs
// are thin adapters over this call.
func RunJob(ctx context.Context, spec *JobSpec, opts *RunJobOptions) (*JobOutput, error) {
	if opts == nil {
		opts = &RunJobOptions{}
	}
	if err := ValidateJobSpec(spec); err != nil {
		return nil, err
	}
	jc := runner.NewJobContext()
	if opts.Progress != nil {
		jc.Progress = opts.Progress
	}
	if opts.Logf != nil {
		jc.Logf = opts.Logf
	}
	jc.CheckpointPath = opts.CheckpointPath
	if spec.Kind == JobKindRun {
		return executeRun(ctx, spec, jc, opts)
	}
	res, err := jobKinds[spec.Kind].exec(ctx, spec, jc)
	if err != nil {
		return nil, err
	}
	return &JobOutput{Result: res}, nil
}

// ---------------------------------------------------------------------------
// The built-in "run" kind.

// runConfig expands a RunSpec into the machine Config: Table 2 defaults,
// then the spec's non-zero overrides.
func runConfig(r *RunSpec) Config {
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	c := DefaultConfig(r.Procs)
	c.Seed = seed
	c.MaxCycles = r.MaxCycles
	c.CollectCommitLog = r.Verify
	if m := r.Machine; m != nil {
		if m.LineSize != 0 {
			c.LineSize = m.LineSize
		}
		if m.L1Size != 0 {
			c.L1Size = m.L1Size
		}
		if m.L1Ways != 0 {
			c.L1Ways = m.L1Ways
		}
		if m.L2Size != 0 {
			c.L2Size = m.L2Size
		}
		if m.L2Ways != 0 {
			c.L2Ways = m.L2Ways
		}
		if m.HopLatency != 0 {
			c.HopLatency = m.HopLatency
		}
		if m.LinkBytesPerCycle != 0 {
			c.LinkBytesPerCycle = m.LinkBytesPerCycle
		}
		if m.MemLatency != 0 {
			c.MemLatency = m.MemLatency
		}
		if m.DirLatency != 0 {
			c.DirLatency = m.DirLatency
		}
		if m.DirCacheEntries != 0 {
			c.DirCacheEntries = m.DirCacheEntries
		}
		if m.StarveRetain != nil {
			c.StarveRetainAfter = *m.StarveRetain
		}
		if m.Shards != 0 {
			c.Shards = m.Shards
		}
		c.Torus = m.Torus
		c.LineGranularity = m.LineGranularity
		c.RepeatedProbing = m.RepeatedProbing
		c.WriteThroughCommit = m.WriteThrough
	}
	return c
}

// executeRun runs one simulation cell. opts is nil on the daemon path (the
// JobContext carries the stream); the CLI path passes its writer/observer.
func executeRun(ctx context.Context, spec *JobSpec, jc *JobContext, opts *RunJobOptions) (*JobOutput, error) {
	r := spec.Run
	protocol := r.Protocol
	if protocol == "" {
		protocol = "tcc"
	}
	scale := r.Scale
	if scale == 0 {
		scale = 1.0
	}
	prof, err := ProfileByNameErr(r.App)
	if err != nil {
		return nil, err
	}
	prof = prof.Scale(scale)
	cfg := runConfig(r)
	prog := prof.Build(r.Procs, cfg.Seed)

	var sink io.Writer
	if opts != nil && opts.EventWriter != nil {
		sink = opts.EventWriter
	} else if jc.Log != nil {
		sink = jc.Log
	}

	var rc *runCheckpointer
	if r.CheckpointEvery > 0 {
		if opts != nil && opts.ConflictProfile {
			return nil, fmt.Errorf("tcc: checkpointing and conflict profiling are mutually exclusive (the profiler's tallies are not part of the snapshot)")
		}
		if jc.CheckpointPath == "" {
			return nil, fmt.Errorf("tcc: checkpoint_every requires a checkpoint file path (daemon -state, or tccsim -checkpoint)")
		}
		var err error
		rc, err = newRunCheckpointer(spec, cfg, prog, jc, sink != nil)
		if err != nil {
			return nil, err
		}
		defer rc.close()
	}

	// scal is the scalable machine (nil for a rival protocol): sampling,
	// conflict profiling and checkpointing run on it directly.
	var scal *System
	var sys ProtocolSystem
	switch {
	case rc != nil && rc.sys != nil:
		scal = rc.sys
	case protocol == "tcc":
		scal, err = NewSystem(cfg, prog)
	default:
		sys, err = NewSystemFor(protocol, cfg, prog)
	}
	if err != nil {
		return nil, err
	}
	if scal != nil {
		sys = &protoScalable{sys: scal}
	}

	var stream *obs.JSONLStream
	var observers []Observer
	if opts != nil && opts.Observer != nil {
		observers = append(observers, opts.Observer)
	}
	if sink != nil {
		if rc != nil {
			if stream, err = rc.stream(sink); err != nil {
				return nil, err
			}
		} else {
			stream = obs.NewJSONLStream(sink)
		}
		observers = append(observers, stream)
	}
	if o := TeeObservers(observers...); o != nil {
		sys.Observe(o)
	}

	if r.SampleEvery > 0 {
		if stream == nil {
			return nil, fmt.Errorf("tcc: sampling requires an event stream to write samples to")
		}
		if err := scal.EnableSampler(r.SampleEvery); err != nil {
			return nil, err
		}
	}
	var profiler *ConflictProfiler
	if opts != nil && opts.ConflictProfile {
		if scal == nil {
			return nil, fmt.Errorf("tcc: conflict profiling requires the scalable machine (protocol %q has no profiler)", protocol)
		}
		profiler = scal.EnableConflictProfiler()
	}

	run := sys.Run
	if rc != nil {
		run = func() (*ProtocolResults, error) {
			return scalableResults(scal.RunCheckpointed(rc.every, rc.save))
		}
	}
	res, err := RunCancelable(ctx, sys, run)
	// A failed or interrupted run keeps its stream up to the cut it
	// stopped at.
	if stream != nil {
		if ferr := stream.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("tcc: event stream: %w", ferr)
		}
	}
	if err != nil {
		return nil, err
	}

	result := &JobResult{Kind: JobKindRun, Protocol: protocol, Resumed: rc != nil && rc.resumed}
	sum, err := json.Marshal(res.Summary)
	if err != nil {
		return nil, fmt.Errorf("tcc: encode summary: %w", err)
	}
	result.Summary = sum
	if r.Verify {
		violations := len(res.Verify())
		ok := violations == 0
		result.Serializable = &ok
		result.Violations = violations
	}
	return &JobOutput{Result: result, Proto: res, Profiler: profiler}, nil
}

// RunCancelable calls run, a Run of sys, and interrupts sys once ctx is
// done, so the run stops at its next cycle boundary. A run the interrupt
// stopped, or never started because ctx was already done, reports
// ctx.Err(); a run that ended first keeps its own result or error. Under a
// context that is never done it is just run().
func RunCancelable[T any](ctx context.Context, sys interface{ Interrupt() }, run func() (T, error)) (T, error) {
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	stop := context.AfterFunc(ctx, sys.Interrupt)
	defer stop()
	res, err := run()
	if errors.Is(err, ErrInterrupted) && ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, err
}
