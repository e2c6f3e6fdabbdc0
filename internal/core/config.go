// Package core implements the paper's contribution: the Scalable TCC
// protocol — a directory-based, non-blocking, livelock-free hardware
// transactional memory for distributed shared memory machines.
//
// A System (system.go) assembles one node per processor: a TCC processor
// with its private cache hierarchy (proc.go), a directory controller slice
// with its local memory bank (directory.go), all connected by a 2-D mesh.
// Node 0 additionally hosts the global TID vendor. The protocol messages
// are catalogued in msg.go (the paper's Table 1).
package core

import (
	"fmt"

	"scalabletcc/internal/cache"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/sim"
)

// Config parameterizes a simulated machine. DefaultConfig reproduces the
// paper's Table 2.
type Config struct {
	Procs int // processors == nodes == directories

	Geometry mem.Geometry

	// Caches (Table 2: 32 KB 4-way 1-cycle L1; 512 KB 8-way 6-cycle L2).
	L1Size, L1Ways int
	L1Latency      sim.Time
	L2Size, L2Ways int
	L2Latency      sim.Time

	Mesh mesh.Config

	MemLatency sim.Time // main memory access (Table 2: 100 cycles)
	DirLatency sim.Time // directory cache access / message occupancy (10 cycles)

	// DirCacheEntries bounds the directory cache: line-state accesses beyond
	// the hottest DirCacheEntries entries pay MemLatency to reach the
	// DRAM-backed full directory. Zero models an unbounded directory cache.
	// The paper's Table 3 shows per-app working sets "fit comfortably in a
	// 2 MB directory cache"; this knob lets that claim be tested.
	DirCacheEntries int

	// LineGranularity switches conflict detection from per-word SR/SM
	// tracking to per-line (the §3.1 design option; enables the
	// false-sharing ablation).
	LineGranularity bool

	// StarveRetainAfter is the number of consecutive violations after which
	// a transaction retains its TID across restarts, guaranteeing it
	// eventually holds the lowest TID in the system (§3.3 forward-progress).
	// Zero disables retention.
	StarveRetainAfter int

	// DeferredProbes enables the paper's probe optimization: directories
	// hold probe responses until the probing TID's condition is met.
	// Disabling it models repeated probing (the A3 ablation): directories
	// answer immediately with the current NSTID and processors re-probe.
	DeferredProbes bool

	// ReprobeDelay is the processor back-off between repeated probes when
	// DeferredProbes is false.
	ReprobeDelay sim.Time

	// WriteThroughCommit ships line data with Mark messages and updates
	// memory at commit (the design the paper's write-back protocol
	// replaces); used for the traffic ablation.
	WriteThroughCommit bool

	// ViolationRestartCost models the checkpoint-restore latency on abort.
	// Lazy versioning makes this small (the write buffer is just dropped).
	ViolationRestartCost sim.Time

	Seed uint64

	// MaxCycles aborts the run if the simulated clock passes it (deadlock
	// watchdog); zero means no limit.
	MaxCycles sim.Time

	// Shards selects the execution engine. Zero (the default) runs the
	// whole machine on one global timing wheel — the legacy sequential
	// kernel, bit-identical to every previous release. A positive value
	// runs the sharded epoch kernel: each node owns a timing wheel, nodes
	// advance in lockstep windows of HopLatency cycles, and cross-node
	// effects merge deterministically at window boundaries. The simulated
	// outcome depends only on the window structure, so every Shards >= 1
	// value produces byte-identical results at the same cost: the windows
	// are too small to pay for worker goroutines (see sim.ShardExec), so
	// they all run on the calling one. Shards must tile the mesh: it is
	// rejected unless it divides Procs evenly. Sharded runs do not support
	// the sampler, TAPE profiling, or the invariant auditor.
	Shards int
}

// DefaultConfig returns the paper's Table 2 machine for the given processor
// count.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:                procs,
		Geometry:             mem.DefaultGeometry(),
		L1Size:               32 << 10,
		L1Ways:               4,
		L1Latency:            1,
		L2Size:               512 << 10,
		L2Ways:               8,
		L2Latency:            6,
		Mesh:                 mesh.DefaultConfig(procs),
		MemLatency:           100,
		DirLatency:           10,
		DeferredProbes:       true,
		ReprobeDelay:         20,
		StarveRetainAfter:    8,
		ViolationRestartCost: 5,
		Seed:                 1,
	}
}

// Validate checks the configuration invariants of the scalable machine.
func (c Config) Validate() error { return c.ValidateFor("tcc") }

// ValidateFor checks the configuration invariants for the named machine
// model, which prefixes every Config error. Every protocol runs on this
// one machine description, so every model validates through here.
func (c Config) ValidateFor(model string) error {
	if c.Procs <= 0 {
		return fmt.Errorf("%s: Config.Procs must be positive, got %d", model, c.Procs)
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Mesh.Width*c.Mesh.Height < c.Procs {
		return fmt.Errorf("%s: Config.Mesh %dx%d smaller than %d procs", model,
			c.Mesh.Width, c.Mesh.Height, c.Procs)
	}
	if c.Mesh.LinkBytes <= 0 {
		return fmt.Errorf("%s: Config.Mesh.LinkBytes must be positive, got %d", model, c.Mesh.LinkBytes)
	}
	if err := cache.CheckShape(c.Geometry, c.L1Size, c.L1Ways); err != nil {
		return fmt.Errorf("%s: Config.L1Size/L1Ways: %w", model, err)
	}
	if err := cache.CheckShape(c.Geometry, c.L2Size, c.L2Ways); err != nil {
		return fmt.Errorf("%s: Config.L2Size/L2Ways: %w", model, err)
	}
	// None may be negative. The latencies are unsigned, so a negative knob
	// arrives wrapped and would schedule events in the past.
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Mesh.HopLatency", int64(c.Mesh.HopLatency)},
		{"MemLatency", int64(c.MemLatency)},
		{"DirLatency", int64(c.DirLatency)},
		{"DirCacheEntries", int64(c.DirCacheEntries)},
		{"StarveRetainAfter", int64(c.StarveRetainAfter)},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s: Config.%s must be non-negative, got %d", model, f.name, f.v)
		}
	}
	if !c.DeferredProbes && c.ReprobeDelay == 0 {
		return fmt.Errorf("%s: Config.ReprobeDelay must be positive with repeated probing, got %d", model,
			c.ReprobeDelay)
	}
	if c.Shards < 0 {
		return fmt.Errorf("%s: Config.Shards must be >= 0, got %d", model, c.Shards)
	}
	if c.Shards > 0 {
		if c.Shards > c.Procs {
			return fmt.Errorf("%s: Config.Shards %d exceeds %d procs", model, c.Shards, c.Procs)
		}
		if c.Procs%c.Shards != 0 {
			return fmt.Errorf("%s: Config.Shards %d does not tile the %d-node mesh (non-divisible region split)", model,
				c.Shards, c.Procs)
		}
		if c.Mesh.HopLatency < 1 {
			return fmt.Errorf("%s: Config.Shards requires Mesh.HopLatency >= 1 (the lookahead window), got %d", model,
				c.Mesh.HopLatency)
		}
	}
	return nil
}
