// Package tcc is the public API of the Scalable TCC simulator — an
// implementation of "A Scalable, Non-blocking Approach to Transactional
// Memory" (HPCA 2007).
//
// A System models a directory-based distributed-shared-memory machine whose
// coherence and consistency protocol is Scalable TCC: continuous
// transactions, lazy versioning in private caches, commit-time conflict
// detection with parallel two-phase commits across directories, write-back
// data movement, and livelock-free forward progress without user-level
// contention managers.
//
// Quick start:
//
//	cfg := tcc.DefaultConfig(16)
//	prog := tcc.MustProfile("barnes").Build(cfg.Procs, cfg.Seed)
//	res, err := tcc.Run(cfg, prog)
//	fmt.Println(res.Cycles, res.Commits)
//
// Workloads are deterministic transactional programs; the eleven profiles
// of the paper's Table 3 ship with the package (Profiles), and custom
// fingerprints can be built with Profile.
//
// Scalable TCC is one of four machine models sharing the simulation stack:
// the bus-based small-scale TCC baseline, a TL2-style lazy STM, and an
// eager-detection HTM are registered alongside it (Protocols), and any of
// them runs through the unified constructor:
//
//	res, err := tcc.RunProtocol("tl2", cfg, prog)
//	fmt.Println(res.Summary.Protocol, res.Summary.Cycles)
package tcc

import (
	"fmt"
	"io"

	"scalabletcc/internal/baseline"
	"scalabletcc/internal/core"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/tape"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// Profile is a synthetic application fingerprint (transaction size,
// read/write-set sizes, locality, conflict behaviour, barrier structure).
type Profile = workload.Profile

// Program is a deterministic transactional parallel program.
type Program = workload.Program

// Results summarizes a Scalable TCC run: cycle count, the five-way
// execution-time breakdown, violation/commit counts, per-class network
// traffic, and the Table 3 fingerprint percentiles.
type Results = core.Results

// BaselineResults holds the counters only a bus-based small-scale TCC run
// keeps: bus bytes and occupancy.
type BaselineResults = baseline.Results

// Summary is the machine-independent digest of one run — cycles, committed
// instructions/transactions, violations, and the execution-time breakdown.
// Its MarshalJSON emits a stable, versioned field set (breakdown as
// fractions), which the tccbench JSON sink builds on.
type Summary = stats.Summary

// SerializabilityViolation is a failure found by the commit-log oracle.
type SerializabilityViolation = verify.Violation

// Config parameterizes the simulated machine. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// Procs is the number of processors; the machine has one node (and one
	// directory) per processor, arranged in a near-square 2-D mesh.
	Procs int

	// LineSize is the cache-line size in bytes (default 32, Table 2).
	LineSize int

	// L1Size/L1Ways and L2Size/L2Ways shape the private cache hierarchy
	// (defaults: 32 KB 4-way 1-cycle L1; 512 KB 8-way 6-cycle L2).
	L1Size, L1Ways int
	L2Size, L2Ways int

	// HopLatency is the mesh link latency in cycles per hop (Figure 8's
	// knob; default 3). LinkBytesPerCycle is per-link bandwidth (default 8).
	HopLatency        int
	LinkBytesPerCycle int

	// Torus adds wraparound links to the 2-D grid, halving worst-case hop
	// counts (a topology study the paper's Table 2 invites).
	Torus bool

	// MemLatency and DirLatency are the main-memory and directory-cache
	// access latencies in cycles (Table 2: 100 and 10).
	MemLatency int
	DirLatency int

	// DirCacheEntries bounds each node's directory cache (0 = unbounded).
	// Entry accesses that miss pay MemLatency to reach the DRAM-backed full
	// directory; Table 3's working-set claim can be tested with this knob.
	DirCacheEntries int

	// LineGranularity switches conflict detection from word-level to
	// line-level tracking (§3.1 design option; exposes false sharing).
	LineGranularity bool

	// StarveRetainAfter is the violation count after which a transaction
	// retains its TID across restarts (§3.3 forward-progress guarantee).
	// Zero disables retention. Default 8.
	StarveRetainAfter int

	// RepeatedProbing disables the deferred-probe optimization: directories
	// answer probes immediately with their current NSTID and processors
	// re-probe (the paper's unoptimized alternative).
	RepeatedProbing bool

	// WriteThroughCommit ships data with commit marks instead of using the
	// write-back protocol (traffic ablation).
	WriteThroughCommit bool

	// Shards selects the execution engine. Zero (the default) runs the
	// sequential kernel. A positive value runs the epoch engine: the machine
	// advances on the same one timing wheel in windows of HopLatency cycles,
	// and cross-node effects merge deterministically at window boundaries,
	// so its timing differs slightly from the sequential kernel's. Results
	// depend only on the window structure — every Shards >= 1 value is
	// byte-identical at the same cost; nothing is split by the value. It
	// must divide Procs evenly. Epoch runs do not support EnableSampler,
	// EnableConflictProfiler, or AuditFinalMemory.
	Shards int

	// Seed drives every pseudo-random choice; equal seeds give bit-identical
	// runs.
	Seed uint64

	// MaxCycles aborts a run that exceeds it (deadlock watchdog; 0 = off).
	MaxCycles uint64

	// CollectCommitLog records every committed transaction's read/write
	// footprint for Verify. Memory-heavy; off by default.
	CollectCommitLog bool
}

// DefaultConfig returns the paper's Table 2 machine for procs processors.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:             procs,
		LineSize:          32,
		L1Size:            32 << 10,
		L1Ways:            4,
		L2Size:            512 << 10,
		L2Ways:            8,
		HopLatency:        3,
		LinkBytesPerCycle: 8,
		MemLatency:        100,
		DirLatency:        10,
		StarveRetainAfter: 8,
		Seed:              1,
		MaxCycles:         0,
	}
}

// compile converts the public configuration to the core form — the one
// machine every protocol is built from — and validates it for the named
// protocol. Validation and construction share this single conversion, so
// the config a builder gets is, by construction, the config Validate
// checked.
func (c Config) compile(protocol string) (core.Config, error) {
	if protocol != "tcc" && c.Shards != 0 {
		return core.Config{}, fmt.Errorf("%s: Config.Shards is only supported by the tcc protocol, got %d",
			protocol, c.Shards)
	}
	cc := core.DefaultConfig(c.Procs)
	cc.Geometry = mem.Geometry{LineSize: c.LineSize, WordSize: 4, PageSize: 4096}
	cc.L1Size, cc.L1Ways = c.L1Size, c.L1Ways
	cc.L2Size, cc.L2Ways = c.L2Size, c.L2Ways
	cc.Mesh = mesh.DefaultConfig(c.Procs)
	cc.Mesh.HopLatency = sim.Time(c.HopLatency)
	cc.Mesh.LinkBytes = c.LinkBytesPerCycle
	cc.Mesh.Torus = c.Torus
	cc.MemLatency = sim.Time(c.MemLatency)
	cc.DirLatency = sim.Time(c.DirLatency)
	cc.DirCacheEntries = c.DirCacheEntries
	cc.LineGranularity = c.LineGranularity
	cc.StarveRetainAfter = c.StarveRetainAfter
	cc.DeferredProbes = !c.RepeatedProbing
	cc.WriteThroughCommit = c.WriteThroughCommit
	cc.Shards = c.Shards
	cc.Seed = c.Seed
	cc.MaxCycles = sim.Time(c.MaxCycles)
	if err := cc.ValidateFor(protocol); err != nil {
		return core.Config{}, err
	}
	return cc, nil
}

// Validate reports whether the configuration is a well-formed scalable
// machine.
func (c Config) Validate() error {
	_, err := c.compile("tcc")
	return err
}

// System is an assembled Scalable TCC machine ready to run one program.
type System struct {
	inner *core.System
}

// NewSystem builds a machine running prog under cfg.
func NewSystem(cfg Config, prog Program) (*System, error) {
	cc, err := cfg.compile("tcc")
	if err != nil {
		return nil, err
	}
	return newSystem(cc, prog, cfg.CollectCommitLog)
}

// newSystem builds the scalable machine from a compiled config.
func newSystem(cc core.Config, prog Program, collectLog bool) (*System, error) {
	s, err := core.NewSystem(cc, prog)
	if err != nil {
		return nil, err
	}
	s.CollectCommitLog(collectLog)
	return &System{inner: s}, nil
}

// Run executes the program to completion.
func (s *System) Run() (*Results, error) { return s.inner.Run() }

// Interrupt stops a run in progress at its next cycle boundary, the
// quiescent cut between two cycles; Run then returns an error wrapping
// ErrInterrupted. It is safe to call from any goroutine. RunCancelable
// wires it to a context.
func (s *System) Interrupt() { s.inner.Interrupt() }

// ErrInterrupted is wrapped by the error of a run that Interrupt stopped.
var ErrInterrupted = sim.ErrInterrupted

// Checkpoint is a versioned snapshot of the full simulator state
// (scalabletcc/kernel-checkpoint v2), taken at a quiescent cut: pending
// kernel events, cache tags and line bodies, directory and NSTID state, the
// memory image, per-processor transaction state, and workload cursors. A
// Checkpoint round-trips through JSON and restores (RestoreSystem) into a
// machine that replays the remainder of the run byte-identically.
type Checkpoint = core.Checkpoint

// Snapshot captures the machine's full state. It fails on a machine with
// the conflict profiler, auditor, or sampler attached (their state lives
// outside the snapshot), and mid-cycle (snapshots are taken between cycles;
// use RunCheckpointed for cuts inside a run).
func (s *System) Snapshot() (*Checkpoint, error) { return s.inner.Snapshot() }

// RunCheckpointed runs the program to completion, handing fn a Snapshot at
// the first quiescent cut at or after each multiple of every cycles.
// Checkpointing is invisible to the run: results and event streams are
// byte-identical to a plain Run. An error from fn aborts the run.
func (s *System) RunCheckpointed(every uint64, fn func(*Checkpoint) error) (*Results, error) {
	return s.inner.RunCheckpointed(sim.Time(every), fn)
}

// RestoreSystem rebuilds a machine from a Checkpoint and resumes it on the
// next Run. cfg must describe the same machine shape (processor count,
// geometry, execution engine); timing knobs (hop/memory/directory latency,
// link bandwidth, MaxCycles, starvation retention, shard count) may
// differ — they apply from the cut onward, which is what job forking edits.
func RestoreSystem(cfg Config, prog Program, ck *Checkpoint) (*System, error) {
	cc, err := cfg.compile("tcc")
	if err != nil {
		return nil, err
	}
	s, err := core.RestoreSystem(cc, prog, ck)
	if err != nil {
		return nil, err
	}
	return &System{inner: s}, nil
}

// ConflictProfiler is the TAPE-style profiler: it attributes violations and
// wasted cycles to the cache lines (and committing transactions) that
// caused them, and tracks per-processor retry streaks for starvation
// detection.
type ConflictProfiler = tape.Profiler

// ConflictLine is one row of the conflict profile.
type ConflictLine = tape.LineReport

// EnableConflictProfiler attaches a TAPE profiler (call before Run) and
// returns it for querying afterwards.
func (s *System) EnableConflictProfiler() *ConflictProfiler { return s.inner.EnableTape() }

// Observe attaches a typed protocol-event observer (nil detaches). Every
// protocol action — loads and fills, skips, probes, marks, commits,
// invalidations, aborts, violations, write-backs, flushes, TID grants,
// overflows, barriers — is delivered as one Event. Call before Run;
// observation is passive and never changes simulated behaviour. With no
// observer attached the hot path reduces to a nil check.
func (s *System) Observe(o Observer) { s.inner.Observe(o) }

// EnableSampler schedules a periodic read-only sample of machine occupancy
// (NSTID lag, outstanding marks, directory-cache occupancy, per-link mesh
// utilization) every `every` cycles. The attached observer must implement
// SampleObserver (JSONLObserver does); call Observe first. Sampling is
// passive with one caveat: a run's reported cycle count may round up to the
// final sampling tick.
func (s *System) EnableSampler(every uint64) error {
	return s.inner.EnableSampler(sim.Time(every))
}

// AuditFinalMemory cross-checks the machine's final memory state (memory
// banks plus owned cache lines) against the TID-serial replay of the commit
// log; requires CollectCommitLog.
func (s *System) AuditFinalMemory() error { return s.inner.AuditFinalMemory() }

// Run is the one-shot helper: build a system and run prog under cfg.
func Run(cfg Config, prog Program) (*Results, error) {
	s, err := NewSystem(cfg, prog)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Verify replays a run's commit log in TID order and returns every
// serializability violation (nil means the execution was serializable).
// The run must have been configured with CollectCommitLog.
func Verify(r *Results) []SerializabilityViolation {
	return verify.Check(r.CommitLog)
}

// Profiles returns the paper's eleven Table 3 application profiles.
func Profiles() []Profile { return workload.Profiles() }

// StressProfiles returns the adversarial profiles used by ablations
// (falseshare, hotspot, commitbound).
func StressProfiles() []Profile { return workload.StressProfiles() }

// ProfileByName looks up a profile from Profiles or StressProfiles.
func ProfileByName(name string) (Profile, bool) { return workload.ByName(name) }

// ProfileByNameErr looks up a profile from Profiles or StressProfiles,
// reporting an unknown name as an error. Library code should prefer this
// over MustProfile so bad names propagate instead of panicking.
func ProfileByNameErr(name string) (Profile, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return Profile{}, fmt.Errorf("tcc: unknown profile %q", name)
	}
	return p, nil
}

// MustProfile is ProfileByNameErr that panics on unknown names. It is kept
// for examples and CLI wiring where a typo should abort immediately;
// library callers should use ProfileByNameErr.
func MustProfile(name string) Profile {
	p, err := ProfileByNameErr(name)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// Observer receives one Event per protocol action. Implementations must be
// fast and must not mutate shared state; they run synchronously inside the
// simulation loop. The package ships three sinks — NewJSONLObserver,
// NewRingObserver, NewCountingObserver — plus TeeObservers to combine them
// and FuncObserver to wrap a plain function.
type Observer = obs.Observer

// SampleObserver is an Observer that additionally receives periodic
// machine-occupancy samples (see System.EnableSampler).
type SampleObserver = obs.SampleObserver

// Event is one typed protocol event: the Table 1 message vocabulary plus
// lifecycle events, each stamped with cycle, node, TID, address and word
// mask as applicable.
type Event = obs.Event

// EventKind discriminates Event payloads.
type EventKind = obs.Kind

// Sample is one periodic occupancy snapshot (NSTID window, outstanding
// marks, directory occupancy, per-link mesh utilization).
type Sample = obs.Sample

// FuncObserver adapts a plain function to the Observer interface.
type FuncObserver = obs.FuncObserver

// Event kinds, re-exported so callers can filter without importing the
// internal package.
const (
	EvLoad       = obs.KLoad
	EvForward    = obs.KForward
	EvFill       = obs.KFill
	EvSkip       = obs.KSkip
	EvProbe      = obs.KProbe
	EvProbeResp  = obs.KProbeResp
	EvMark       = obs.KMark
	EvCommit     = obs.KCommit
	EvCommitLine = obs.KCommitLine
	EvCommitDone = obs.KCommitDone
	EvInv        = obs.KInv
	EvInvAck     = obs.KInvAck
	EvAbort      = obs.KAbort
	EvViolation  = obs.KViolation
	EvWriteBack  = obs.KWriteBack
	EvFlush      = obs.KFlush
	EvFlushResp  = obs.KFlushResp
	EvFlushInv   = obs.KFlushInv
	EvTIDGrant   = obs.KTIDGrant
	EvRead       = obs.KRead
	EvOverflow   = obs.KOverflow
	EvBarrier    = obs.KBarrier

	// NumEventKinds is the number of distinct event kinds.
	NumEventKinds = obs.NumKinds
)

// JSONLObserver streams events (and samples) as JSON Lines with a versioned
// schema header. It hands w whole lines in blocks of about 64 KiB, so call
// Flush when the run finishes, whether or not Run returned an error; Flush
// reports the first write error.
type JSONLObserver = obs.JSONLStream

// NewJSONLObserver returns an observer writing one JSON object per line to
// w, preceded by a schema header. Call Flush when the run finishes.
func NewJSONLObserver(w io.Writer) *JSONLObserver { return obs.NewJSONLStream(w) }

// RingObserver keeps the last N events in memory (flight-recorder style).
type RingObserver = obs.RingBuffer

// NewRingObserver returns a bounded in-memory event buffer holding the most
// recent n events.
func NewRingObserver(n int) *RingObserver { return obs.NewRing(n) }

// CountingObserver tallies events by kind with no per-event allocation.
type CountingObserver = obs.Counter

// NewCountingObserver returns a per-kind event counter.
func NewCountingObserver() *CountingObserver { return obs.NewCounter() }

// TeeObservers fans events out to several observers in order; nils are
// skipped. Samples reach the members that implement SampleObserver.
func TeeObservers(list ...Observer) Observer { return obs.Tee(list...) }
