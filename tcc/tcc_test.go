package tcc

import (
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 16, 64} {
		if err := DefaultConfig(procs).Validate(); err != nil {
			t.Errorf("DefaultConfig(%d) invalid: %v", procs, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Procs = 0
	if cfg.Validate() == nil {
		t.Fatal("zero procs validated")
	}
	cfg = DefaultConfig(4)
	cfg.LineSize = 48 // not a power of two
	if cfg.Validate() == nil {
		t.Fatal("bad line size validated")
	}
}

func TestRunEndToEnd(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.CollectCommitLog = true
	prof := MustProfile("water-spatial").Scale(0.05)
	res, err := Run(cfg, prof.Build(4, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 || res.Cycles == 0 {
		t.Fatal("empty results")
	}
	if v := Verify(res); len(v) != 0 {
		t.Fatalf("not serializable: %v", v[0])
	}
}

func TestVerifyRequiresLog(t *testing.T) {
	cfg := DefaultConfig(2)
	res, err := Run(cfg, MustProfile("hotspot").Scale(0.05).Build(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CommitLog) != 0 {
		t.Fatal("commit log collected without opt-in")
	}
	if v := Verify(res); v != nil {
		t.Fatal("Verify on empty log reported violations")
	}
}

func TestProfilesExported(t *testing.T) {
	if len(Profiles()) != 11 {
		t.Fatalf("Profiles() = %d entries, want the paper's 11", len(Profiles()))
	}
	if len(StressProfiles()) < 3 {
		t.Fatal("missing stress profiles")
	}
	if _, ok := ProfileByName("radix"); !ok {
		t.Fatal("ProfileByName(radix) failed")
	}
	if _, ok := ProfileByName("bogus"); ok {
		t.Fatal("ProfileByName accepted garbage")
	}
}

func TestMustProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustProfile did not panic on unknown name")
		}
	}()
	MustProfile("not-an-app")
}

func TestRunBaselineEndToEnd(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.CollectCommitLog = true
	prof := MustProfile("equake").Scale(0.02)
	res, err := RunProtocol("baseline", cfg, prof.Build(4, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Commits == 0 {
		t.Fatal("baseline made no commits")
	}
	if len(res.CommitLog) == 0 {
		t.Fatal("baseline collected no commit log")
	}
	if v := res.Verify(); len(v) != 0 {
		t.Fatalf("baseline not serializable: %v", v[0])
	}
}

func TestConfigKnobsReachCore(t *testing.T) {
	// Line granularity must change observable behaviour on the
	// false-sharing stress profile.
	prof := MustProfile("falseshare").Scale(0.25)
	word := DefaultConfig(8)
	line := DefaultConfig(8)
	line.LineGranularity = true
	wres, err := Run(word, prof.Build(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	lres, err := Run(line, prof.Build(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if wres.Violations != 0 {
		t.Fatalf("word-level tracking violated %d times on disjoint-word sharing", wres.Violations)
	}
	if lres.Violations == 0 {
		t.Fatal("line-level tracking saw no false-sharing violations")
	}
}

// customProgram checks that user-defined Programs work through the public
// API (the histogram example's pattern).
type customProgram struct{ procs int }

func (c *customProgram) Name() string                { return "custom" }
func (c *customProgram) Procs() int                  { return c.procs }
func (c *customProgram) Phases() int                 { return 1 }
func (c *customProgram) TxCount(proc, phase int) int { return 4 }
func (c *customProgram) Tx(proc, phase, idx int) Tx {
	shared := Addr(1 << 36)
	return Tx{Ops: []Op{
		{Kind: Compute, Cycles: 50},
		{Kind: Load, Addr: shared},
		{Kind: Store, Addr: shared},
	}}
}
func (c *customProgram) PreMap(m *AddrMap) { m.Home(1<<36, 0) }

func TestCustomProgram(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.CollectCommitLog = true
	res, err := Run(cfg, &customProgram{procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 16 {
		t.Fatalf("commits = %d, want 16", res.Commits)
	}
	if res.Violations == 0 {
		t.Fatal("fully-conflicting custom program never violated")
	}
	if v := Verify(res); len(v) != 0 {
		t.Fatalf("custom program not serializable: %v", v[0])
	}
}

func TestHopLatencyKnob(t *testing.T) {
	prof := MustProfile("equake").Scale(0.05)
	fast := DefaultConfig(16)
	fast.HopLatency = 1
	slow := DefaultConfig(16)
	slow.HopLatency = 8
	fres, err := Run(fast, prof.Build(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(slow, prof.Build(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sres.Cycles <= fres.Cycles {
		t.Fatalf("8 cycles/hop (%d) not slower than 1 (%d)", sres.Cycles, fres.Cycles)
	}
}

func TestTorusTopology(t *testing.T) {
	prof := MustProfile("equake").Scale(0.05)
	grid := DefaultConfig(16)
	torus := DefaultConfig(16)
	torus.Torus = true
	gres, err := Run(grid, prof.Build(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	tres, err := Run(torus, prof.Build(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Shorter average distances must not slow the run down.
	if float64(tres.Cycles) > 1.02*float64(gres.Cycles) {
		t.Fatalf("torus (%d cycles) slower than grid (%d)", tres.Cycles, gres.Cycles)
	}
	if tres.Traffic.TotalHops >= gres.Traffic.TotalHops {
		t.Fatalf("torus hops %d not below grid hops %d",
			tres.Traffic.TotalHops, gres.Traffic.TotalHops)
	}
}
