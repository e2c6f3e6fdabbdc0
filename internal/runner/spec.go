// Package runner is the shared job layer under the tccd daemon and the
// three CLIs: a versioned JobSpec wire schema, typed job status/results, a
// bounded job queue with admission control and per-job cancellation, an
// append-only event stream log for SSE subscribers, and crash-safe
// checkpoint manifests for resumable sweep jobs.
//
// The package is deliberately a leaf: it never imports the tcc package or
// the simulation stack. Job execution is injected as an Executor — the tcc
// package provides the canonical one (tcc.ExecuteJob), dispatching on
// JobSpec.Kind through a producer registry ("run" built in; the experiments
// and fuzz packages register "sweep" and "fuzz"). That keeps the wire
// schema, queueing, and serving concerns decoupled from what a job does.
package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// Wire-schema constants. The JobSpec field set below is frozen at v1: any
// change of meaning or removal bumps JobVersion (additions keep it), and
// DecodeJobSpec rejects unknown versions and unknown fields loudly — the
// same pinned-bytes treatment as the bench-sweep and repro schemas.
const (
	// JobSchema identifies the document type.
	JobSchema = "scalabletcc/job"
	// JobVersion is the current wire-format version.
	JobVersion = 1
)

// Job kinds. The runner routes on the kind string; what each kind means is
// owned by the executor registered for it.
const (
	// KindRun is one simulation: a (protocol, app, procs, machine, seed)
	// cell with optional event streaming. Executed by tcc.RunJob.
	KindRun = "run"
	// KindSweep is an experiment sweep (one or more registry experiments'
	// job matrices). Executed by the experiments package; checkpointable.
	KindSweep = "sweep"
	// KindFuzz is a fuzz campaign. Executed by the fuzz package.
	KindFuzz = "fuzz"
)

// JobSpec is the versioned description of one job (`scalabletcc/job` v1):
// the submit body of the daemon's POST /v1/jobs, and the value the CLIs
// construct from their flags. Exactly one of Run/Sweep/Fuzz is set,
// matching Kind.
type JobSpec struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// Name is an optional human-readable label echoed in job status.
	Name string `json:"name,omitempty"`

	Run   *RunSpec   `json:"run,omitempty"`
	Sweep *SweepSpec `json:"sweep,omitempty"`
	Fuzz  *FuzzSpec  `json:"fuzz,omitempty"`
}

// RunSpec describes one simulation. Zero values mean "the default": scale
// 1.0, seed 1, protocol "tcc", and the paper's Table 2 machine.
type RunSpec struct {
	// Protocol is a tcc protocol-registry name ("tcc", "baseline", "tl2",
	// "eager"). Empty runs the scalable design.
	Protocol string `json:"protocol,omitempty"`
	// App is a workload profile name (required).
	App string `json:"app"`
	// Procs is the processor count (required, >= 1).
	Procs int `json:"procs"`
	// Scale is the workload scale factor (0 = 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives every pseudo-random choice (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Machine overrides individual Table 2 machine parameters; nil (or a
	// zero field) keeps the default.
	Machine *MachineSpec `json:"machine,omitempty"`
	// Verify collects the commit log and runs the serializability oracle;
	// the result reports the violation count.
	Verify bool `json:"verify,omitempty"`
	// SampleEvery emits a machine-occupancy sample into the event stream
	// every N cycles (scalable machine only; requires an event sink). A
	// run's cycle count may round up to the final sampling tick.
	SampleEvery uint64 `json:"sample_every,omitempty"`
	// MaxCycles aborts a run that exceeds it (deadlock watchdog; 0 = off).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// CheckpointEvery snapshots the full simulator state into the job's
	// checkpoint manifest every N cycles (scalable machine only; 0 = off).
	// An interrupted job resumes from its latest snapshot instead of
	// recomputing, replaying to byte-identical results, and a finished or
	// running job can be forked from its latest snapshot with edited knobs.
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
}

// MachineSpec is the wire form of the machine configuration: every field
// mirrors a tcc.Config knob, and a zero value means "the Table 2 default".
// StarveRetain is a pointer because zero is meaningful there (it disables
// TID retention, while absent means the default of 8).
type MachineSpec struct {
	LineSize          int  `json:"line_size,omitempty"`
	L1Size            int  `json:"l1_size,omitempty"`
	L1Ways            int  `json:"l1_ways,omitempty"`
	L2Size            int  `json:"l2_size,omitempty"`
	L2Ways            int  `json:"l2_ways,omitempty"`
	HopLatency        int  `json:"hop_latency,omitempty"`
	LinkBytesPerCycle int  `json:"link_bytes_per_cycle,omitempty"`
	Torus             bool `json:"torus,omitempty"`
	MemLatency        int  `json:"mem_latency,omitempty"`
	DirLatency        int  `json:"dir_latency,omitempty"`
	DirCacheEntries   int  `json:"dir_cache_entries,omitempty"`
	LineGranularity   bool `json:"line_granularity,omitempty"`
	StarveRetain      *int `json:"starve_retain,omitempty"`
	RepeatedProbing   bool `json:"repeated_probing,omitempty"`
	WriteThrough      bool `json:"write_through,omitempty"`
	// Shards selects the epoch execution engine (tcc protocol only; 0 = the
	// sequential kernel). It runs on the same one kernel whatever the value,
	// and results are independent of it. It excludes sample_every.
	Shards int `json:"shards,omitempty"`
}

// SweepSpec describes an experiment-sweep job: the same axes tccbench's
// flags expose, in wire form.
type SweepSpec struct {
	// Experiments is the ordered list of experiment-registry names; empty
	// (or the single entry "all") runs the full registry.
	Experiments []string `json:"experiments,omitempty"`
	Apps        []string `json:"apps,omitempty"`
	Protocols   []string `json:"protocols,omitempty"`
	Procs       []int    `json:"procs,omitempty"`
	// Hops is the Figure 8 cycles-per-hop sweep list.
	Hops []int `json:"hops,omitempty"`
	// Shards was the shard-count axis of the retired scaling experiment.
	// It stays on the wire so strict decoding and existing spec hashes
	// keep working; sweep admission refuses a non-empty value.
	Shards []int `json:"shards,omitempty"`
	// MaxProcs is the machine size for table3/fig8/fig9/ablations; 0 keeps
	// the per-experiment default (64; table3 reports at 32).
	MaxProcs int     `json:"max_procs,omitempty"`
	Scale    float64 `json:"scale,omitempty"` // 0 = 1.0
	Seed     uint64  `json:"seed,omitempty"`  // 0 = 1
	Verify   bool    `json:"verify,omitempty"`
	// CountEvents adds per-kind protocol-event totals to every report cell.
	CountEvents bool `json:"count_events,omitempty"`
	// Parallel is the worker count independent cells fan across
	// (0 = GOMAXPROCS). Output is byte-identical whatever the value.
	Parallel int `json:"parallel,omitempty"`
	// TimeoutMS bounds each cell's wall-clock time in milliseconds (0 =
	// none). Milliseconds, not seconds: sub-second guards are how the
	// harness timeout path is exercised.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tables renders the experiment tables into the result alongside the
	// machine-readable report (what tccbench prints). A resumed job skips
	// table rendering: checkpoints carry report cells, not table rows.
	Tables bool `json:"tables,omitempty"`
}

// FuzzSpec describes a fuzz-campaign job, mirroring fuzz.Options.
type FuzzSpec struct {
	DurationSec    int      `json:"duration_sec"`
	Seed           uint64   `json:"seed,omitempty"` // 0 = 1
	Jobs           int      `json:"jobs,omitempty"`
	CaseTimeoutSec int      `json:"case_timeout_sec,omitempty"`
	ShrinkBudget   int      `json:"shrink_budget,omitempty"`
	MaxFailures    int      `json:"max_failures,omitempty"`
	Protocols      []string `json:"protocols,omitempty"`
	// OutDir receives repro tapes; relative paths resolve against the
	// daemon's state directory when run as a service. "" writes no tapes.
	OutDir string `json:"out_dir,omitempty"`
}

// NewJobSpec returns an empty spec of the given kind with the envelope
// filled in.
func NewJobSpec(kind string) *JobSpec {
	return &JobSpec{Schema: JobSchema, Version: JobVersion, Kind: kind}
}

// Validate checks the envelope and that exactly the payload matching Kind
// is present. Name resolution (profiles, protocols, experiments) is the
// executors' concern — see tcc.ValidateJobSpec for the full check.
func (s *JobSpec) Validate() error {
	if s.Schema != JobSchema {
		return fmt.Errorf("runner: job schema %q, want %q", s.Schema, JobSchema)
	}
	if s.Version != JobVersion {
		return fmt.Errorf("runner: unsupported job version %d (want %d)", s.Version, JobVersion)
	}
	payloads := map[string]bool{
		KindRun:   s.Run != nil,
		KindSweep: s.Sweep != nil,
		KindFuzz:  s.Fuzz != nil,
	}
	own, known := payloads[s.Kind]
	if !known {
		return fmt.Errorf("runner: unknown job kind %q (valid: %s, %s, %s)",
			s.Kind, KindRun, KindSweep, KindFuzz)
	}
	present := 0
	for _, p := range payloads {
		if p {
			present++
		}
	}
	if !own || present != 1 {
		return fmt.Errorf("runner: job kind %q requires exactly the matching payload field", s.Kind)
	}
	if s.Kind == KindRun {
		if s.Run.App == "" {
			return fmt.Errorf("runner: run job needs an app")
		}
		if s.Run.Procs < 1 {
			return fmt.Errorf("runner: run job procs %d is invalid (must be >= 1)", s.Run.Procs)
		}
		if s.Run.Scale < 0 {
			return fmt.Errorf("runner: run job scale %v is invalid (must be >= 0; 0 means 1.0)", s.Run.Scale)
		}
	}
	if s.Kind == KindFuzz && s.Fuzz.DurationSec < 1 {
		return fmt.Errorf("runner: fuzz job duration_sec %d is invalid (must be >= 1)", s.Fuzz.DurationSec)
	}
	return nil
}

// DecodeJobSpec parses a job document strictly: the version is gated first
// (so a v2 document fails with a version error, not a field error), then
// the full document is decoded rejecting unknown fields, then Validate
// runs. Loud rejection is the contract: a typo'd field name or a spec from
// a newer build never half-applies.
func DecodeJobSpec(data []byte) (*JobSpec, error) {
	var env struct {
		Schema  string `json:"schema"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("runner: decode job spec: %w", err)
	}
	if env.Schema != JobSchema {
		return nil, fmt.Errorf("runner: job schema %q, want %q", env.Schema, JobSchema)
	}
	if env.Version != JobVersion {
		return nil, fmt.Errorf("runner: unsupported job version %d (want %d)", env.Version, JobVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("runner: decode job spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode renders the spec as indented JSON (the on-disk and over-the-wire
// form).
func (s *JobSpec) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runner: encode job spec: %w", err)
	}
	return append(data, '\n'), nil
}

// Hash is a stable fingerprint of the spec's compact JSON form, used to
// guard checkpoint manifests against being replayed under a different spec.
func (s *JobSpec) Hash() (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("runner: hash job spec: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
