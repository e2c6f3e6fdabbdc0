package core

import (
	"testing"

	"scalabletcc/internal/sim"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// runProfile runs a (possibly scaled) profile on procs processors and checks
// the serializability oracle.
func runProfile(t *testing.T, prof workload.Profile, procs int, mutate func(*Config)) *Results {
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
	sys.EnableAuditor()
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("Run(%s, %d procs): %v", prof.Name, procs, err)
	}
	if viols := verify.Check(res.CommitLog); len(viols) != 0 {
		for i, v := range viols {
			if i >= 5 {
				t.Errorf("... and %d more", len(viols)-5)
				break
			}
			t.Errorf("serializability: %v", v)
		}
		t.Fatalf("%s on %d procs: %d serializability violations", prof.Name, procs, len(viols))
	}
	return res
}

func TestSmokeSingleProc(t *testing.T) {
	prof := workload.Equake().Scale(0.05)
	res := runProfile(t, prof, 1, nil)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if res.Violations != 0 {
		t.Fatalf("violations on a single processor: %d", res.Violations)
	}
	t.Logf("1 proc: %d cycles, %d commits, breakdown %v", res.Cycles, res.Commits, res.Breakdown)
}

func TestSmokeFourProcs(t *testing.T) {
	prof := workload.Equake().Scale(0.05)
	res := runProfile(t, prof, 4, nil)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	t.Logf("4 procs: %d cycles, %d commits, %d violations", res.Cycles, res.Commits, res.Violations)
}

func TestSmokeHotspot(t *testing.T) {
	prof := workload.Hotspot().Scale(0.25)
	res := runProfile(t, prof, 8, nil)
	t.Logf("hotspot 8 procs: %d commits, %d violations, maxRetries=%d",
		res.Commits, res.Violations, maxRetries(res))
}

func maxRetries(r *Results) uint64 {
	var m uint64
	for _, p := range r.PerProc {
		if p.MaxRetries > m {
			m = p.MaxRetries
		}
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Procs = 0 },
		func(c *Config) { c.Geometry.LineSize = 48 },
		func(c *Config) { c.Mesh.Width = 1; c.Mesh.Height = 1 },
		func(c *Config) { c.L2Size = 8 },
		func(c *Config) { c.DeferredProbes = false; c.ReprobeDelay = 0 },
		func(c *Config) { c.L2Ways = 3 },                     // 5461.33 sets
		func(c *Config) { c.L1Size = 100 },                   // not a whole line
		func(c *Config) { c.L1Size = 32<<10 + 4*32 },         // 257 sets
		func(c *Config) { c.L1Ways = 0 },                     // no ways
		func(c *Config) { c.Mesh.LinkBytes = -1 },            // mesh.New panics
		func(c *Config) { c.Mesh.HopLatency = ^sim.Time(0) }, // -1, wrapped
		func(c *Config) { c.MemLatency = ^sim.Time(0) },
		func(c *Config) { c.DirLatency = ^sim.Time(0) },
		func(c *Config) { c.DirCacheEntries = -1 },
		func(c *Config) { c.StarveRetainAfter = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(8)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestSystemRejectsProcMismatch(t *testing.T) {
	prog := workload.Barnes().Build(4, 1)
	if _, err := NewSystem(DefaultConfig(8), prog); err == nil {
		t.Fatal("proc-count mismatch accepted")
	}
}

func TestWatchdog(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 100 // far too few cycles to finish
	sys, err := NewSystem(cfg, workload.Equake().Scale(0.01).Build(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("watchdog did not fire")
	}
}
