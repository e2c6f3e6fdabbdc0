// Job forking: a new run job continuing a parent job's latest kernel
// checkpoint under an edited spec. A snapshot pins everything the machine
// has already decided — program, seed, processor count, cache geometry,
// conflict-detection granularity, execution engine — so only knobs that
// apply from the cut onward may change. Everything else is rejected at
// admission rather than silently producing a run that never matches any
// uninterrupted machine.

package tcc

import (
	"fmt"
	"reflect"

	"scalabletcc/internal/core"
	"scalabletcc/internal/runner"
)

// PrepareForkJob is the canonical runner.Config.ForkPrep hook: it validates
// that child's edits keep the parent's snapshot valid and seeds the child's
// checkpoint file with that snapshot. The child inherits the parent's
// checkpoint cadence when it does not set its own; its event stream starts
// at the fork point (the parent's prefix is not replayed into it). Forking a
// running parent is legal — it forks from the most recent durable snapshot,
// which the parent replaces atomically, so the fork copies a whole one.
func PrepareForkJob(parent, child *JobSpec, parentCk, childCk, childID string) error {
	if parent.Kind != JobKindRun || child.Kind != JobKindRun {
		return fmt.Errorf("tcc: only run jobs fork (parent kind %q, child kind %q)", parent.Kind, child.Kind)
	}
	if parent.Run.CheckpointEvery == 0 {
		return fmt.Errorf("tcc: parent job was not checkpointed (checkpoint_every is zero)")
	}
	if child.Run.CheckpointEvery == 0 {
		child.Run.CheckpointEvery = parent.Run.CheckpointEvery
	}
	if err := validateForkEdits(parent.Run, child.Run); err != nil {
		return err
	}

	parentHash, err := parent.Hash()
	if err != nil {
		return err
	}
	entry, err := runner.ReadSnapshot(parentCk, parentHash)
	if err != nil {
		return err
	}
	if entry == nil {
		return fmt.Errorf("tcc: parent job has no checkpoint snapshot to fork from yet")
	}
	cycle, _, raw, err := readEntry(entry)
	if err != nil {
		return fmt.Errorf("tcc: parent checkpoint entry is not a kernel snapshot")
	}
	if err := core.CheckVersion(raw); err != nil {
		return fmt.Errorf("tcc: parent checkpoint cannot be forked: %w", err)
	}

	childHash, err := child.Hash()
	if err != nil {
		return err
	}
	// The parent's snapshot bytes are copied, not decoded; the child's stream
	// starts at the fork point, so its event_bytes is 0.
	return runner.WriteSnapshot(childCk, childID, childHash, appendEntryHead(nil, cycle, 0), raw, closeBrace)
}

// validateForkEdits enforces the legal-edit whitelist: timing and
// forward-progress knobs that apply strictly after the cut — max_cycles,
// checkpoint_every, hop_latency, link_bytes_per_cycle, mem_latency,
// dir_latency, starve_retain, and shards within the same execution engine.
// Anything the snapshot bakes in (app, seed, procs, scale, protocol, cache
// geometry, granularity, probing/commit policy, verify) must be unchanged.
func validateForkEdits(parent, child *RunSpec) error {
	p, c := *parent, *child
	var pm, cm MachineSpec
	if p.Machine != nil {
		pm = *p.Machine
	}
	if c.Machine != nil {
		cm = *c.Machine
	}
	if (pm.Shards == 0) != (cm.Shards == 0) {
		return fmt.Errorf("tcc: fork cannot switch execution engines (parent shards %d, child shards %d)",
			pm.Shards, cm.Shards)
	}
	// Clear the legal edits on both sides; what remains must match exactly.
	p.MaxCycles, c.MaxCycles = 0, 0
	p.CheckpointEvery, c.CheckpointEvery = 0, 0
	p.Machine, c.Machine = nil, nil
	pm.HopLatency, cm.HopLatency = 0, 0
	pm.LinkBytesPerCycle, cm.LinkBytesPerCycle = 0, 0
	pm.MemLatency, cm.MemLatency = 0, 0
	pm.DirLatency, cm.DirLatency = 0, 0
	pm.StarveRetain, cm.StarveRetain = nil, nil
	pm.Shards, cm.Shards = 0, 0
	if !reflect.DeepEqual(p, c) || !reflect.DeepEqual(pm, cm) {
		return fmt.Errorf("tcc: fork edits are limited to max_cycles, checkpoint_every, hop_latency, " +
			"link_bytes_per_cycle, mem_latency, dir_latency, starve_retain, and shards (same engine); " +
			"the forked spec changes state the snapshot has baked in")
	}
	return nil
}
