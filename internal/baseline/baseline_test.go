package baseline

import (
	"testing"

	"scalabletcc/internal/core"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// outcome is one finished run: the shared digest and the bus counters.
type outcome struct {
	stats.Summary
	*Results
}

func run(t *testing.T, prof workload.Profile, procs int) outcome {
	t.Helper()
	cfg := core.DefaultConfig(procs)
	cfg.MaxCycles = 2_000_000_000
	prog := prof.Build(procs, cfg.Seed)
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sys.CollectCommitLog(true)
	if err := sys.Simulate(); err != nil {
		t.Fatalf("Simulate(%s, %d): %v", prof.Name, procs, err)
	}
	if viols := verify.Check(sys.CommitLog); len(viols) != 0 {
		t.Fatalf("%s on %d procs: %d serializability violations, first: %v",
			prof.Name, procs, len(viols), viols[0])
	}
	return outcome{sys.Summary(), sys.Results()}
}

func TestBaselineSingleProc(t *testing.T) {
	res := run(t, workload.Equake().Scale(0.05), 1)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if res.Violations != 0 {
		t.Fatalf("violations on one processor: %d", res.Violations)
	}
}

func TestBaselineParallel(t *testing.T) {
	res := run(t, workload.Equake().Scale(0.05), 4)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	t.Logf("4 procs: %d cycles, %d commits, %d violations, bus busy %d",
		res.Cycles, res.Commits, res.Violations, res.BusBusy)
}

func TestBaselineHotspotSerializable(t *testing.T) {
	res := run(t, workload.Hotspot().Scale(0.25), 8)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	t.Logf("hotspot: %d commits, %d violations", res.Commits, res.Violations)
}

func TestBaselineSpeedsUpModeratelyThenSaturates(t *testing.T) {
	// The point of the baseline: commit serialization bounds scaling for
	// commit-heavy workloads. Check that the bus occupancy becomes a large
	// fraction of execution time at higher processor counts.
	prof := workload.CommitBound().Scale(0.25)
	r1 := run(t, prof, 1)
	r8 := run(t, prof, 8)
	if r8.Cycles >= r1.Cycles {
		t.Fatalf("no speedup at all: %d -> %d cycles", r1.Cycles, r8.Cycles)
	}
	busFrac := float64(r8.BusBusy) / float64(r8.Cycles)
	if busFrac < 0.5 {
		t.Fatalf("bus busy only %.2f of execution for a commit-bound workload at 8 procs", busFrac)
	}
}

func TestBaselineDeterminism(t *testing.T) {
	a := run(t, workload.WaterNSquared().Scale(0.05), 4)
	b := run(t, workload.WaterNSquared().Scale(0.05), 4)
	if a.Cycles != b.Cycles || a.Commits != b.Commits || a.Violations != b.Violations {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)",
			a.Cycles, a.Commits, a.Violations, b.Cycles, b.Commits, b.Violations)
	}
}

func TestBaselineConfigValidation(t *testing.T) {
	if _, err := NewSystem(core.DefaultConfig(0), workload.Barnes().Build(2, 1)); err == nil {
		t.Fatal("zero procs validated")
	}
	cfg := core.DefaultConfig(2)
	cfg.Mesh.LinkBytes = 0 // the bus is two links wide
	if _, err := NewSystem(cfg, workload.Barnes().Build(2, 1)); err == nil {
		t.Fatal("zero bandwidth validated")
	}
	prog := workload.Barnes().Build(4, 1)
	if _, err := NewSystem(core.DefaultConfig(2), prog); err == nil {
		t.Fatal("proc-count mismatch accepted")
	}
}

func TestBaselineSnoopFalseSharing(t *testing.T) {
	// Word-level snooping on the bus design must also avoid false-sharing
	// violations, and line-level must suffer them — the same §3.1 contrast
	// as the scalable design.
	word := core.DefaultConfig(8)
	line := core.DefaultConfig(8)
	line.LineGranularity = true
	prof := workload.FalseSharing().Scale(0.25)
	wsys, err := NewSystem(word, prof.Build(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := wsys.Simulate(); err != nil {
		t.Fatal(err)
	}
	lsys, err := NewSystem(line, prof.Build(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := lsys.Simulate(); err != nil {
		t.Fatal(err)
	}
	if n := wsys.Summary().Violations; n != 0 {
		t.Fatalf("word-level bus snooping violated %d times on disjoint words", n)
	}
	if lsys.Summary().Violations == 0 {
		t.Fatal("line-level bus snooping saw no false-sharing violations")
	}
}

func TestBaselineBusBytesAccounted(t *testing.T) {
	res := run(t, workload.SPECjbb().Scale(0.02), 4)
	if res.BusBytes == 0 || res.BusBusy == 0 {
		t.Fatal("bus accounting empty")
	}
	if res.Instructions == 0 {
		t.Fatal("no committed instructions")
	}
}
