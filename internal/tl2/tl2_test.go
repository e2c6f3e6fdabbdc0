package tl2

import (
	"testing"

	"scalabletcc/internal/core"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// outcome is one finished run: the shared digest and the TL2 counters.
type outcome struct {
	stats.Summary
	*Results
}

// runProfile runs a (possibly scaled) profile on procs processors and checks
// the serializability and final-memory oracles.
func runProfile(t *testing.T, prof workload.Profile, procs int, mutate func(*core.Config)) outcome {
	t.Helper()
	cfg := core.DefaultConfig(procs)
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
	if err := sys.Simulate(); err != nil {
		t.Fatalf("Simulate(%s, %d procs): %v", prof.Name, procs, err)
	}
	if viols := verify.Check(sys.CommitLog); len(viols) != 0 {
		t.Fatalf("%s on %d procs: %d serializability violations (first %v)",
			prof.Name, procs, len(viols), viols[0])
	}
	if err := sys.AuditFinalMemory(); err != nil {
		t.Fatalf("%s on %d procs: %v", prof.Name, procs, err)
	}
	return outcome{sys.Summary(), sys.Results()}
}

func TestSmokeSingleProc(t *testing.T) {
	res := runProfile(t, workload.Equake().Scale(0.05), 1, nil)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if res.Violations != 0 {
		t.Fatalf("violations on a single processor: %d", res.Violations)
	}
}

func TestSerializabilitySweep(t *testing.T) {
	profiles := []workload.Profile{
		workload.Hotspot().Scale(0.25),
		workload.FalseSharing().Scale(0.25),
		workload.Equake().Scale(0.03),
	}
	for _, prof := range profiles {
		for _, procs := range []int{2, 5, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				s := seed
				runProfile(t, prof, procs, func(c *core.Config) { c.Seed = s })
			}
		}
	}
}

// TestEveryTransactionCommits: bounded randomized backoff must preserve
// forward progress on an all-conflict workload.
func TestEveryTransactionCommits(t *testing.T) {
	prof := workload.Hotspot().Scale(0.5)
	for _, procs := range []int{4, 12} {
		prog := prof.Build(procs, 2)
		want := 0
		for pr := 0; pr < procs; pr++ {
			for ph := 0; ph < prog.Phases(); ph++ {
				want += prog.TxCount(pr, ph)
			}
		}
		res := runProfile(t, prof, procs, func(c *core.Config) { c.Seed = 2 })
		if res.Commits != uint64(want) {
			t.Fatalf("procs=%d: %d commits, want %d", procs, res.Commits, want)
		}
	}
}

// TestClockAccounting: TL2 reads the clock once per attempt, and every
// commit advances it (read-only transactions included, so every TID is
// unique); attempts that abort during validation also consumed a wv, so
// advances can exceed commits but never the attempt count.
func TestClockAccounting(t *testing.T) {
	res := runProfile(t, workload.Hotspot().Scale(0.25), 8, nil)
	attempts := res.Commits + res.Violations
	if res.ClockAdvances < res.Commits || res.ClockAdvances > attempts {
		t.Fatalf("clock advanced %d times for %d commits / %d attempts",
			res.ClockAdvances, res.Commits, attempts)
	}
	if res.ClockReads != attempts {
		t.Fatalf("clock read %d times for %d attempts", res.ClockReads, attempts)
	}
}

// TestDeterminism: identical configuration and seed must give bit-identical
// results; a different seed must not.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) outcome {
		return runProfile(t, workload.Hotspot().Scale(0.25), 8, func(c *core.Config) { c.Seed = seed })
	}
	a, b, c := run(3), run(3), run(4)
	if a.Cycles != b.Cycles || a.Commits != b.Commits || a.Violations != b.Violations ||
		a.Traffic.TotalBytes() != b.Traffic.TotalBytes() {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Cycles == c.Cycles && a.Traffic.TotalBytes() == c.Traffic.TotalBytes() {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// TestSmallCachePressure: evictions of fetched lines must force refetches,
// not corrupt the read-set or wedge the machine.
func TestSmallCachePressure(t *testing.T) {
	res := runProfile(t, workload.Barnes().Scale(0.05), 4, func(c *core.Config) {
		c.L2Size = 4 << 10
		c.L1Size = 1 << 10
	})
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
}

// TestConfigValidation: NewSystem refuses a machine the shared validator
// rejects.
func TestConfigValidation(t *testing.T) {
	prog := workload.Barnes().Build(8, 1)
	if _, err := NewSystem(core.DefaultConfig(8), prog); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*core.Config){
		func(c *core.Config) { c.Procs = 0 },
		func(c *core.Config) { c.Geometry.LineSize = 48 },
		func(c *core.Config) { c.Mesh.LinkBytes = 0 },
		func(c *core.Config) { c.L2Ways = 3 },
		func(c *core.Config) { c.Mesh.HopLatency = ^sim.Time(0) },
	}
	for i, mutate := range bad {
		cfg := core.DefaultConfig(8)
		mutate(&cfg)
		if _, err := NewSystem(cfg, prog); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestSystemRejectsProcMismatch(t *testing.T) {
	prog := workload.Barnes().Build(4, 1)
	if _, err := NewSystem(core.DefaultConfig(8), prog); err == nil {
		t.Fatal("proc-count mismatch accepted")
	}
}

func TestWatchdog(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.MaxCycles = 100
	sys, err := NewSystem(cfg, workload.Equake().Scale(0.01).Build(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Simulate(); err == nil {
		t.Fatal("watchdog did not fire")
	}
}
