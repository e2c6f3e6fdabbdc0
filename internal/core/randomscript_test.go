package core

import (
	"testing"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// randomScript builds a small adversarial program directly (no profile
// machinery): every transaction is a random mix of loads, stores, and tiny
// compute bursts over a handful of shared lines, maximizing protocol-state
// interleavings per simulated cycle.
func randomScript(seed uint64, procs, txPerProc, opsPerTx, lines int) *scriptProgram {
	rng := sim.NewRNG(seed)
	s := &scriptProgram{
		name:   "random",
		homing: map[mem.Addr]int{},
	}
	base := mem.Addr(0x100000)
	for l := 0; l < lines; l++ {
		// All lines on one page would share a home; spread pages round-robin.
		pg := base + mem.Addr(l*4096)
		s.homing[pg] = l % procs
	}
	addr := func(r *sim.RNG) mem.Addr {
		l := r.Intn(lines)
		w := r.Intn(8)
		return base + mem.Addr(l*4096) + mem.Addr(w*4)
	}
	for p := 0; p < procs; p++ {
		var txs []workload.Tx
		for t := 0; t < txPerProc; t++ {
			r := rng.Derive(uint64(p), uint64(t))
			var ops []workload.Op
			for o := 0; o < opsPerTx; o++ {
				switch r.Intn(3) {
				case 0:
					ops = append(ops, workload.Op{Kind: workload.Load, Addr: addr(r)})
				case 1:
					ops = append(ops, workload.Op{Kind: workload.Store, Addr: addr(r)})
				default:
					ops = append(ops, workload.Op{Kind: workload.Compute, Cycles: uint32(1 + r.Intn(40))})
				}
			}
			txs = append(txs, workload.Tx{Ops: ops})
		}
		s.txs = append(s.txs, txs)
	}
	return s
}

// TestRandomScriptGauntlet runs many small random programs under several
// machine variants and requires (a) TID-serializable commit logs and
// (b) a final memory state identical to the TID-serial replay.
func TestRandomScriptGauntlet(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", nil},
		{"line-granularity", func(c *Config) { c.LineGranularity = true }},
		{"write-through", func(c *Config) { c.WriteThroughCommit = true }},
		{"tiny-cache", func(c *Config) { c.L2Size = 2 << 10; c.L1Size = 512 }},
		{"repeated-probes", func(c *Config) { c.DeferredProbes = false; c.ReprobeDelay = 15 }},
		{"fast-net", func(c *Config) { c.Mesh.HopLatency = 1; c.MemLatency = 10; c.DirLatency = 1 }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				procs := 2 + int(seed)%3
				prog := randomScript(seed*131, procs, 10, 14, 5)
				cfg := DefaultConfig(procs)
				cfg.Seed = seed
				cfg.MaxCycles = 500_000_000
				if v.mutate != nil {
					v.mutate(&cfg)
				}
				sys, err := NewSystem(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				sys.CollectCommitLog(true)
				sys.EnableAuditor()
				res, err := sys.Run()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if viols := verify.Check(res.CommitLog); len(viols) != 0 {
					t.Fatalf("seed %d: %v (of %d)", seed, viols[0], len(viols))
				}
				if !cfg.WriteThroughCommit {
					if err := sys.AuditFinalMemory(); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			}
		})
	}
}

// TestAuditCatchesCorruption sanity-checks the auditor itself by corrupting
// one word of memory after a run.
func TestAuditCatchesCorruption(t *testing.T) {
	prog := randomScript(99, 3, 8, 10, 4)
	cfg := DefaultConfig(3)
	cfg.MaxCycles = 500_000_000
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sys.CollectCommitLog(true)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.AuditFinalMemory(); err != nil {
		t.Fatalf("clean run failed audit: %v", err)
	}
	// Corrupt: zero one committed word in some directory's memory.
	for _, d := range sys.dirs {
		for id := range d.lines.Bases() {
			line := d.memLine(int32(id))
			for w := range line {
				if line[w] != 0 {
					line[w] = 999999
					if sys.AuditFinalMemory() == nil {
						t.Fatal("auditor missed corrupted memory")
					}
					return
				}
			}
		}
	}
	t.Skip("no committed word found to corrupt")
}
