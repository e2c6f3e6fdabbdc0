package core

import (
	"testing"

	"scalabletcc/internal/mesh"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// TestSerializabilitySweep is the protocol's main correctness gauntlet:
// conflict-heavy workloads across processor counts, seeds, and granularities
// must always produce TID-serializable executions.
func TestSerializabilitySweep(t *testing.T) {
	profiles := []workload.Profile{
		workload.Hotspot().Scale(0.25),
		workload.FalseSharing().Scale(0.25),
		workload.Equake().Scale(0.03),
		workload.Volrend().Scale(0.03),
	}
	for _, prof := range profiles {
		for _, procs := range []int{2, 5, 8, 16} {
			for _, lineGran := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := DefaultConfig(procs)
					cfg.Seed = seed
					cfg.LineGranularity = lineGran
					cfg.MaxCycles = 2_000_000_000
					prog := prof.Build(procs, seed)
					sys, err := NewSystem(cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					sys.CollectCommitLog(true)
					res, err := sys.Run()
					if err != nil {
						t.Fatalf("%s procs=%d line=%v seed=%d: %v",
							prof.Name, procs, lineGran, seed, err)
					}
					if v := verify.Check(res.CommitLog); len(v) != 0 {
						t.Fatalf("%s procs=%d line=%v seed=%d: %d serializability violations (first %v)",
							prof.Name, procs, lineGran, seed, len(v), v[0])
					}
				}
			}
		}
	}
}

// TestWriteThroughSerializable exercises the write-through-commit ablation
// mode under contention.
func TestWriteThroughSerializable(t *testing.T) {
	res := runProfile(t, workload.Hotspot().Scale(0.25), 8, func(c *Config) {
		c.WriteThroughCommit = true
	})
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
}

// TestRepeatedProbingSerializable exercises the unoptimized probing mode.
func TestRepeatedProbingSerializable(t *testing.T) {
	res := runProfile(t, workload.Hotspot().Scale(0.25), 8, func(c *Config) {
		c.DeferredProbes = false
	})
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
}

// TestRepeatedProbingSlower: the deferred-probe optimization must not be
// slower than naive re-probing on a commit-bound workload.
func TestRepeatedProbingSlower(t *testing.T) {
	prof := workload.CommitBound().Scale(0.1)
	deferred := runProfile(t, prof, 8, nil)
	repeated := runProfile(t, prof, 8, func(c *Config) {
		c.DeferredProbes = false
	})
	// Cycle counts can tie on small runs; the robust invariant is message
	// volume: re-probing must send at least as many commit-class messages.
	defMsgs := deferred.Traffic.MsgsByClass[mesh.ClassCommit]
	repMsgs := repeated.Traffic.MsgsByClass[mesh.ClassCommit]
	if repMsgs < defMsgs {
		t.Fatalf("repeated probing sent fewer commit messages (%d) than deferred (%d)",
			repMsgs, defMsgs)
	}
	if float64(repeated.Cycles) < 0.95*float64(deferred.Cycles) {
		t.Fatalf("repeated probing (%d cycles) substantially beat deferred responses (%d cycles)",
			repeated.Cycles, deferred.Cycles)
	}
}

// TestLivelockFreedom: with an all-conflict workload every transaction must
// eventually commit — the total committed count must equal the program's
// transaction count, with no external intervention.
func TestLivelockFreedom(t *testing.T) {
	prof := workload.Hotspot().Scale(0.5)
	for _, procs := range []int{4, 12} {
		prog := prof.Build(procs, 2)
		want := 0
		for pr := 0; pr < procs; pr++ {
			for ph := 0; ph < prog.Phases(); ph++ {
				want += prog.TxCount(pr, ph)
			}
		}
		cfg := DefaultConfig(procs)
		cfg.Seed = 2
		cfg.MaxCycles = 2_000_000_000
		sys, err := NewSystem(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits != uint64(want) {
			t.Fatalf("procs=%d: %d commits, want %d", procs, res.Commits, want)
		}
	}
}

// TestStarvationRetention: under an all-conflict workload, TID retention
// must preserve forward progress and serializability at any threshold. The
// paper promises forward progress, not fewer retries ("limited starvation
// is possible ... the programmer is still guaranteed correct execution"),
// so the retry counts are informational and only grossly pathological
// regressions fail.
func TestStarvationRetention(t *testing.T) {
	prof := workload.Hotspot().Scale(0.5)
	worst := func(retain int) uint64 {
		res := runProfile(t, prof, 16, func(c *Config) { c.StarveRetainAfter = retain })
		return maxRetries(res)
	}
	without := worst(0)
	aggressive := worst(1)
	moderate := worst(4)
	t.Logf("worst-case retries: off=%d retain-after-1=%d retain-after-4=%d",
		without, aggressive, moderate)
	if moderate > 3*without+20 || aggressive > 3*without+20 {
		t.Fatalf("retention pathologically worsened starvation: off=%d on=%d/%d",
			without, aggressive, moderate)
	}
}

// TestRetainedTIDCommits: force heavy conflicts and verify that at least one
// transaction goes through the retention path and still commits (vendor
// bookkeeping catches a retained TID that is never retired).
func TestRetainedTIDCommits(t *testing.T) {
	res := runProfile(t, workload.Hotspot().Scale(0.5), 16, func(c *Config) {
		c.StarveRetainAfter = 2
	})
	if maxRetries(res) < 2 {
		t.Skip("workload did not generate enough conflicts to trigger retention")
	}
	// Run() already verifies vendor.Outstanding() == 0.
}

// TestDeterminism: identical configuration and seed must give bit-identical
// results; a different seed must not.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) *Results {
		return runProfile(t, workload.WaterNSquared().Scale(0.05), 8, func(c *Config) {
			c.Seed = seed
		})
	}
	a, b, c := run(3), run(3), run(4)
	if a.Cycles != b.Cycles || a.Commits != b.Commits || a.Violations != b.Violations ||
		a.Traffic.TotalBytes() != b.Traffic.TotalBytes() {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Breakdown, b.Breakdown)
	}
	if a.Cycles == c.Cycles && a.Traffic.TotalBytes() == c.Traffic.TotalBytes() {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// TestSingleProcNoViolationsAllApps: on one processor no transaction can
// conflict; violations must be zero and commit overhead small for every
// application (the paper's Figure 6 claim).
func TestSingleProcNoViolationsAllApps(t *testing.T) {
	for _, prof := range workload.Profiles() {
		res := runProfile(t, prof.Scale(0.02), 1, nil)
		if res.Violations != 0 {
			t.Errorf("%s: violations on a uniprocessor: %d", prof.Name, res.Violations)
		}
		if f := res.Breakdown.Fraction(4); f != 0 { // Violation component
			t.Errorf("%s: violation time on a uniprocessor", prof.Name)
		}
	}
}

// TestNetworkJitterWriteBackRace injects random extra delivery delay into
// the mesh, breaking per-pair FIFO ordering on the data-return paths, and
// checks the TID-tag/monotonic write-back race fix keeps memory consistent.
func TestNetworkJitterWriteBackRace(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := DefaultConfig(4)
		cfg.Seed = seed
		cfg.MaxCycles = 2_000_000_000
		// Small cache forces evictions and write-backs; jitter reorders
		// them against later commits and flushes.
		cfg.L2Size = 8 << 10
		rng := sim.NewRNG(seed * 977)
		cfg.Mesh.Jitter = func(src, dst, bytes int) sim.Time {
			// Only jitter data-return-sized messages (write-backs, flushes)
			// to stress the race fix without breaking the protocol's
			// request-channel ordering assumptions.
			if bytes >= cfg.Geometry.LineSize {
				return sim.Time(rng.Intn(200))
			}
			return 0
		}
		prog := workload.Hotspot().Scale(0.1).Build(4, seed)
		sys, err := NewSystem(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		sys.CollectCommitLog(true)
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v := verify.Check(res.CommitLog); len(v) != 0 {
			t.Fatalf("seed %d: jittered run not serializable: %v", seed, v[0])
		}
	}
}

// TestSmallCacheEvictionPressure: a tiny cache must still be correct (heavy
// eviction, write-back, and refetch traffic) and must count overflow spills
// rather than wedging.
func TestSmallCacheEvictionPressure(t *testing.T) {
	res := runProfile(t, workload.Barnes().Scale(0.05), 4, func(c *Config) {
		c.L2Size = 4 << 10
		c.L1Size = 1 << 10
	})
	if res.CacheStats.Evictions == 0 {
		t.Fatal("tiny cache produced no evictions")
	}
	t.Logf("evictions=%d spills=%d droppedWBs=%d",
		res.CacheStats.Evictions, res.CacheStats.Spills, res.DroppedWBs)
}

// TestVendorRetiresEverything is implicit in System.Run, but assert the
// counters line up: every commit consumed exactly one TID, plus one per
// disposed violation-with-TID.
func TestVendorAccounting(t *testing.T) {
	prof := workload.Hotspot().Scale(0.25)
	cfg := DefaultConfig(8)
	cfg.MaxCycles = 2_000_000_000
	prog := prof.Build(8, 1)
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	issued := sys.vendor.Issued()
	if issued < res.Commits {
		t.Fatalf("issued %d TIDs < %d commits", issued, res.Commits)
	}
	if issued > res.Commits+res.Violations {
		t.Fatalf("issued %d TIDs > commits+violations = %d", issued, res.Commits+res.Violations)
	}
}

// TestResultsDerivedMetrics sanity-checks the derived result accessors.
func TestResultsDerivedMetrics(t *testing.T) {
	res := runProfile(t, workload.SPECjbb().Scale(0.05), 4, nil)
	if res.BytesPerInstr() <= 0 {
		t.Fatal("BytesPerInstr not positive")
	}
	var sum float64
	for c := 0; c < 4; c++ {
		sum += res.ClassBytesPerInstr(mesh.Class(c))
	}
	if diff := sum - res.BytesPerInstr(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("class traffic (%.6f) does not sum to total (%.6f)", sum, res.BytesPerInstr())
	}
	if res.Speedup(res) != 1.0 {
		t.Fatal("self-speedup != 1")
	}
}

// TestTapeAttribution: the conflict profiler must attribute hotspot
// violations to the hot region's lines.
func TestTapeAttribution(t *testing.T) {
	prof := workload.Hotspot().Scale(0.25)
	cfg := DefaultConfig(8)
	cfg.MaxCycles = 2_000_000_000
	sys, err := NewSystem(cfg, prof.Build(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	profiler := sys.EnableTape()
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Skip("no violations this run")
	}
	if profiler.TotalViolations() != res.Violations {
		t.Fatalf("TAPE recorded %d violations, system counted %d",
			profiler.TotalViolations(), res.Violations)
	}
	top := profiler.Top(1)
	if len(top) == 0 {
		t.Fatal("no profile rows")
	}
	// The hot region lives at 1<<44; the worst line must be inside it.
	if top[0].Line < 1<<44 {
		t.Fatalf("worst conflict line %#x is not in the hot region", top[0].Line)
	}
	if profiler.WastedCycles() == 0 {
		t.Fatal("no wasted cycles recorded")
	}
}
