package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// eventLog is an in-memory observer that records the full event stream.
type eventLog struct {
	evs []obs.Event
}

func (l *eventLog) Event(e obs.Event) { l.evs = append(l.evs, e) }

// ckRun executes prof on a fresh system configured by mutate, collecting the
// commit log and event stream, checkpointing every `every` cycles (0 = plain
// Run). It returns the results, the event stream, and every checkpoint taken
// (after a JSON round-trip, so serialization is part of what the determinism
// assertions cover) together with the event-stream length at each cut.
func ckRun(t *testing.T, prof workload.Profile, procs int, mutate func(*Config),
	every sim.Time) (*Results, []obs.Event, []*Checkpoint, []int) {
	t.Helper()
	cfg := DefaultConfig(procs)
	cfg.MaxCycles = 2_000_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	prog := prof.Build(procs, cfg.Seed)
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sys.CollectCommitLog(true)
	log := &eventLog{}
	sys.Observe(log)

	var (
		cks  []*Checkpoint
		cuts []int
	)
	var res *Results
	if every > 0 {
		res, err = sys.RunCheckpointed(every, func(ck *Checkpoint) error {
			raw, err := json.Marshal(ck)
			if err != nil {
				return err
			}
			var back Checkpoint
			if err := json.Unmarshal(raw, &back); err != nil {
				return err
			}
			cks = append(cks, &back)
			cuts = append(cuts, len(log.evs))
			return nil
		})
	} else {
		res, err = sys.Run()
	}
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, log.evs, cks, cuts
}

// resumeRun restores ck into a fresh system and runs it to completion,
// returning the results and the suffix event stream.
func resumeRun(t *testing.T, prof workload.Profile, procs int, mutate func(*Config),
	ck *Checkpoint) (*Results, []obs.Event) {
	t.Helper()
	cfg := DefaultConfig(procs)
	cfg.MaxCycles = 2_000_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	prog := prof.Build(procs, cfg.Seed)
	sys, err := RestoreSystem(cfg, prog, ck)
	if err != nil {
		t.Fatalf("RestoreSystem: %v", err)
	}
	log := &eventLog{}
	sys.Observe(log)
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return res, log.evs
}

func requireSameResults(t *testing.T, what string, want, got *Results) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results diverged\nwant: cycles=%d commits=%d violations=%d traffic=%d breakdown=%v\ngot:  cycles=%d commits=%d violations=%d traffic=%d breakdown=%v",
			what,
			want.Cycles, want.Commits, want.Violations, want.Traffic.TotalBytes(), want.Breakdown,
			got.Cycles, got.Commits, got.Violations, got.Traffic.TotalBytes(), got.Breakdown)
	}
}

func requireSameEvents(t *testing.T, what string, want, got []obs.Event) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: event stream length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: event %d diverged\nwant %+v\ngot  %+v", what, i, want[i], got[i])
		}
	}
}

// testCheckpointResume is the core determinism guarantee: a run interrupted
// at an arbitrary checkpoint and resumed from the (JSON round-tripped)
// snapshot must reproduce the uninterrupted run's results, commit log, and
// event stream byte-for-byte.
func testCheckpointResume(t *testing.T, mutate func(*Config)) {
	prof := workload.Hotspot().Scale(0.25)
	const procs = 8

	ref, refEvents, _, _ := ckRun(t, prof, procs, mutate, 0)
	if v := verify.Check(ref.CommitLog); len(v) != 0 {
		t.Fatalf("reference run not serializable: %v", v[0])
	}
	every := ref.Cycles / 4
	if every < 1 {
		t.Fatalf("reference run too short (%d cycles) for a checkpoint interval", ref.Cycles)
	}

	ckRes, ckEvents, cks, cuts := ckRun(t, prof, procs, mutate, every)
	if len(cks) < 2 {
		t.Fatalf("expected at least 2 checkpoints, got %d", len(cks))
	}
	// Checkpointing must be invisible to the run itself.
	requireSameResults(t, "checkpointed vs reference", ref, ckRes)
	requireSameEvents(t, "checkpointed vs reference", refEvents, ckEvents)

	for i, ck := range cks {
		res, suffix := resumeRun(t, prof, procs, mutate, ck)
		requireSameResults(t, "resumed vs reference", ref, res)
		prefix := refEvents[:cuts[i]]
		requireSameEvents(t, "resumed event suffix", refEvents[len(prefix):], suffix)
		if v := verify.Check(res.CommitLog); len(v) != 0 {
			t.Fatalf("resumed run not serializable: %v", v[0])
		}
	}
}

func TestCheckpointResumeSequential(t *testing.T) {
	testCheckpointResume(t, nil)
}

func TestCheckpointResumeSharded(t *testing.T) {
	testCheckpointResume(t, func(c *Config) { c.Shards = 4 })
}

func TestCheckpointResumeDirCacheBounded(t *testing.T) {
	testCheckpointResume(t, func(c *Config) { c.DirCacheEntries = 64 })
}

func TestCheckpointResumeWriteThrough(t *testing.T) {
	testCheckpointResume(t, func(c *Config) { c.WriteThroughCommit = true })
}

func TestCheckpointResumeSmallCache(t *testing.T) {
	// Tiny caches force evictions, overflow lines, write-backs, and owner
	// flushes through the snapshot.
	testCheckpointResume(t, func(c *Config) {
		c.L2Size = 4 << 10
		c.L1Size = 1 << 10
	})
}

// TestCheckpointForkEditedKnobs is the fork semantics: a snapshot restored
// under edited timing knobs must still run to completion, stay serializable,
// and commit exactly the program's transactions — while an unchanged restore
// stays byte-identical (covered above).
func TestCheckpointForkEditedKnobs(t *testing.T) {
	prof := workload.Hotspot().Scale(0.25)
	const procs = 8

	ref, _, _, _ := ckRun(t, prof, procs, nil, 0)
	every := ref.Cycles / 3
	if every < 1 {
		t.Fatalf("reference run too short: %d cycles", ref.Cycles)
	}
	_, _, cks, _ := ckRun(t, prof, procs, nil, every)
	if len(cks) == 0 {
		t.Fatal("no checkpoints taken")
	}

	res, _ := resumeRun(t, prof, procs, func(c *Config) {
		c.MemLatency = 180
		c.DirLatency = 16
		c.Mesh.HopLatency = 5
	}, cks[0])
	if v := verify.Check(res.CommitLog); len(v) != 0 {
		t.Fatalf("forked run not serializable: %v", v[0])
	}
	if res.Commits != ref.Commits {
		t.Fatalf("forked run committed %d transactions, reference committed %d", res.Commits, ref.Commits)
	}
	if res.Cycles == ref.Cycles {
		t.Fatal("edited latencies produced an identical cycle count (edits had no effect?)")
	}
}

// TestCheckpointGating: features whose state lives outside the snapshot must
// be rejected, and mismatched restores must fail loudly.
func TestCheckpointGating(t *testing.T) {
	prof := workload.Hotspot().Scale(0.1)
	cfg := DefaultConfig(4)
	cfg.MaxCycles = 2_000_000_000
	prog := prof.Build(4, cfg.Seed)

	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTape()
	if _, err := sys.Snapshot(); err == nil {
		t.Fatal("Snapshot with TAPE attached did not fail")
	}
	if _, err := sys.RunCheckpointed(1000, func(*Checkpoint) error { return nil }); err == nil {
		t.Fatal("RunCheckpointed with TAPE attached did not fail")
	}

	sys2, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sys2.EnableAuditor()
	if _, err := sys2.Snapshot(); err == nil {
		t.Fatal("Snapshot with the auditor attached did not fail")
	}

	// A checkpoint from a 4-proc machine must not restore into an 8-proc one.
	sys3, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sys3.Snapshot()
	if err != nil {
		t.Fatalf("pre-run snapshot: %v", err)
	}
	cfg8 := DefaultConfig(8)
	cfg8.MaxCycles = 2_000_000_000
	if _, err := RestoreSystem(cfg8, prof.Build(8, cfg8.Seed), ck); err == nil {
		t.Fatal("restore into a different machine size did not fail")
	}
	cfgSharded := cfg
	cfgSharded.Shards = 2
	if _, err := RestoreSystem(cfgSharded, prog, ck); err == nil {
		t.Fatal("restore across engine modes did not fail")
	}
}

// TestCheckpointRefusesPerNodeLayout: a checkpoint written by the retired
// per-node layout of the epoch engine — one kernel clock per node, per-port
// statistics under port_state — is refused with an error naming the
// change, not restored with its per-port statistics silently dropped. The
// checkpoints are doctored from a current sharded one.
func TestCheckpointRefusesPerNodeLayout(t *testing.T) {
	prof := workload.Hotspot().Scale(0.1)
	const procs = 4
	sharded := func(c *Config) { c.Shards = 2 }
	ref, _, _, _ := ckRun(t, prof, procs, sharded, 0)
	_, _, cks, _ := ckRun(t, prof, procs, sharded, ref.Cycles/3)
	if len(cks) == 0 {
		t.Fatal("no checkpoints taken")
	}
	raw, err := json.Marshal(cks[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(procs)
	cfg.MaxCycles = 2_000_000_000
	sharded(&cfg)
	prog := prof.Build(procs, cfg.Seed)
	if _, err := RestoreSystem(cfg, prog, cks[0]); err != nil {
		t.Fatalf("undoctored checkpoint: %v", err)
	}

	for name, doctor := range map[string]func(map[string]any){
		"kernel per node": func(m map[string]any) {
			ks := m["kernels"].([]any)
			for len(ks) < procs {
				ks = append(ks, ks[0])
			}
			m["kernels"] = ks
		},
		"port_state": func(m map[string]any) {
			m["port_state"] = []any{map[string]any{"commits": 1, "done": 0}}
		},
	} {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		doctor(m)
		doc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var ck Checkpoint
		if err := json.Unmarshal(doc, &ck); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err = RestoreSystem(cfg, prog, &ck)
		if err == nil || !strings.Contains(err.Error(), "retired per-node layout") {
			t.Errorf("%s: RestoreSystem = %v, want the per-node layout refusal", name, err)
		}
	}
}

// TestCheckpointPreRun documents the contract that only cuts taken inside
// Run (via RunCheckpointed) are resumable: a snapshot of a never-started
// system holds no program-start events and zero running procs, so the
// restored system completes immediately and empty rather than re-posting
// the program starts.
func TestCheckpointPreRun(t *testing.T) {
	prof := workload.Hotspot().Scale(0.1)
	const procs = 4
	cfg := DefaultConfig(procs)
	cfg.MaxCycles = 2_000_000_000
	prog := prof.Build(procs, cfg.Seed)
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSystem(cfg, prog, ck)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Run()
	if err != nil {
		t.Fatalf("restored pre-run system: %v", err)
	}
	if res.Commits != 0 || res.Cycles != 0 {
		t.Fatalf("pre-run snapshot replayed work: %d commits over %d cycles", res.Commits, res.Cycles)
	}
}
