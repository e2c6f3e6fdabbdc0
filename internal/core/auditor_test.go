package core

import (
	"errors"
	"testing"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/workload"
)

// A full profile run under the auditor: the hooks must fire (checks > 0) and
// a correct protocol must produce no violations.
func TestAuditorCleanRun(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MaxCycles = 2_000_000_000
	sys, err := NewSystem(cfg, workload.Hotspot().Scale(0.05).Build(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	aud := sys.EnableAuditor()
	if _, err := sys.Run(); err != nil {
		t.Fatalf("clean run failed under auditor: %v", err)
	}
	if aud.Checks() == 0 {
		t.Fatal("auditor hooks never fired")
	}
	if aud.Err() != nil {
		t.Fatalf("violation on a clean run: %v", aud.Err())
	}
}

// An injected Skip-Vector corruption must be caught mid-run, shortly after
// injection, with the stable invariant name the fuzzer's shrinker keys on.
func TestAuditorCatchesInjectedSkipVectorFault(t *testing.T) {
	const faultCycle = 1000
	cfg := DefaultConfig(4)
	cfg.MaxCycles = 2_000_000_000
	sys, err := NewSystem(cfg, workload.Hotspot().Scale(0.05).Build(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableAuditor()
	sys.InjectSkipVectorFault(faultCycle, 0)
	_, err = sys.Run()
	if err == nil {
		t.Fatal("injected fault not caught")
	}
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("fault surfaced as %T, want *AuditError: %v", err, err)
	}
	if ae.Invariant != "skip-vector-bounds" {
		t.Fatalf("wrong invariant: %v", ae)
	}
	if ae.Node != 0 {
		t.Fatalf("fault injected at directory 0, caught at node %d", ae.Node)
	}
	if ae.Cycle < faultCycle || ae.Cycle > faultCycle+100_000 {
		t.Fatalf("detection at cycle %d not shortly after injection at %d", ae.Cycle, faultCycle)
	}
}

// Injection is deterministic: two identical runs catch the fault at the same
// cycle with the same detail.
func TestAuditorFaultDeterministic(t *testing.T) {
	run := func() *AuditError {
		cfg := DefaultConfig(4)
		cfg.MaxCycles = 2_000_000_000
		sys, err := NewSystem(cfg, workload.Hotspot().Scale(0.05).Build(4, 1))
		if err != nil {
			t.Fatal(err)
		}
		sys.EnableAuditor()
		sys.InjectSkipVectorFault(1000, 0)
		_, err = sys.Run()
		var ae *AuditError
		if !errors.As(err, &ae) {
			t.Fatalf("fault not caught: %v", err)
		}
		return ae
	}
	a, b := run(), run()
	if *a != *b {
		t.Fatalf("non-deterministic detection: %+v vs %+v", a, b)
	}
}

// The read set matches the cache's SR bits at every commit point, under
// contention, with lines spilling to the overflow area, and with
// line-granular conflict detection.
func TestAuditorReadSetMatchesSR(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"small-cache", func(c *Config) { c.L1Size, c.L2Size = 512, 1<<10 }},
		{"line-granularity", func(c *Config) { c.LineGranularity = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(8)
			cfg.MaxCycles = 2_000_000_000
			tc.mutate(&cfg)
			sys, err := NewSystem(cfg, workload.Volrend().Scale(0.05).Build(8, 1))
			if err != nil {
				t.Fatal(err)
			}
			aud := sys.EnableAuditor()
			res, err := sys.Run()
			if err != nil {
				t.Fatalf("run failed under auditor: %v", err)
			}
			if res.Commits == 0 || aud.Checks() == 0 {
				t.Fatal("no commit point was audited")
			}
			spills := uint64(0)
			for _, p := range sys.procs {
				spills += p.cache.Stats().Spills
			}
			if tc.name == "small-cache" && spills == 0 {
				t.Fatal("no line spilled to the overflow area")
			}
		})
	}
}

// Unit checks for the structural entry invariants, driven directly.
func TestAuditorEntryInvariants(t *testing.T) {
	newSys := func() *System {
		prog := &scriptProgram{name: "empty", txs: [][]workload.Tx{{}, {}}, homing: map[mem.Addr]int{}}
		sys, err := NewSystem(DefaultConfig(2), prog)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	t.Run("owner-sharer", func(t *testing.T) {
		sys := newSys()
		a := sys.EnableAuditor()
		e := &dirEntry{owner: 1, ownedWords: 1} // owner not on the sharers list
		a.checkEntry(sys.dirs[0], 0x100, e)
		if a.Err() == nil || a.Err().Invariant != "owner-sharer" {
			t.Fatalf("got %v", a.Err())
		}
	})

	t.Run("owner-words", func(t *testing.T) {
		sys := newSys()
		a := sys.EnableAuditor()
		e := &dirEntry{owner: 1} // owner with no owned words
		e.sharers.Set(1)
		a.checkEntry(sys.dirs[0], 0x100, e)
		if a.Err() == nil || a.Err().Invariant != "owner-words" {
			t.Fatalf("got %v", a.Err())
		}
	})

	t.Run("sharer-range", func(t *testing.T) {
		sys := newSys()
		a := sys.EnableAuditor()
		e := &dirEntry{owner: -1}
		e.sharers.Set(7) // only 2 procs exist
		a.checkEntry(sys.dirs[0], 0x100, e)
		if a.Err() == nil || a.Err().Invariant != "sharer-range" {
			t.Fatalf("got %v", a.Err())
		}
	})

	t.Run("pending-count", func(t *testing.T) {
		sys := newSys()
		a := sys.EnableAuditor()
		e := &dirEntry{owner: -1, pendingFrom: []int{1}, pendingData: 2}
		a.checkEntry(sys.dirs[0], 0x100, e)
		if a.Err() == nil || a.Err().Invariant != "pending-count" {
			t.Fatalf("got %v", a.Err())
		}
	})

	t.Run("msg-double-free", func(t *testing.T) {
		sys := newSys()
		a := sys.EnableAuditor()
		a.onMsgFree(3) // never allocated
		if a.Err() == nil || a.Err().Invariant != "msg-double-free" {
			t.Fatalf("got %v", a.Err())
		}
	})

	// The read set against the cache's SR bits: a word marked read with no
	// sample, and a sample taken twice, both fail.
	srLine := func(sys *System, words ...int) *Processor {
		p := sys.procs[0]
		l, _ := p.cache.Insert(0x100, make([]mem.Version, sys.cfg.Geometry.WordsPerLine()))
		for _, w := range words {
			l.SR = l.SR.Set(w)
		}
		p.cache.Track(l)
		return p
	}
	t.Run("read-set-sr", func(t *testing.T) {
		sys := newSys()
		a := sys.EnableAuditor()
		p := srLine(sys, 1, 2)
		p.readSet.Append(0x104, 0)
		p.readSet.Append(0x108, 0)
		a.onCommitPoint(p)
		if a.Err() != nil {
			t.Fatalf("matching read set failed: %v", a.Err())
		}
		sys = newSys()
		a = sys.EnableAuditor()
		p = srLine(sys, 1, 2)
		p.readSet.Append(0x104, 0) // the read of 0x108 went unrecorded
		a.onCommitPoint(p)
		if a.Err() == nil || a.Err().Invariant != "read-set-sr" {
			t.Fatalf("dropped sample: got %v", a.Err())
		}
		sys = newSys()
		a = sys.EnableAuditor()
		p = srLine(sys, 1, 2)
		p.readSet.Append(0x104, 0)
		p.readSet.Append(0x104, 0)
		a.onCommitPoint(p)
		if a.Err() == nil || a.Err().Invariant != "read-set-sr" {
			t.Fatalf("doubled sample: got %v", a.Err())
		}
	})

	t.Run("first-violation-wins", func(t *testing.T) {
		sys := newSys()
		a := sys.EnableAuditor()
		a.onMsgFree(3)
		first := a.Err()
		e := &dirEntry{owner: 1, ownedWords: 1}
		a.checkEntry(sys.dirs[0], 0x100, e)
		if a.Err() != first {
			t.Fatalf("later violation overwrote the first: %v", a.Err())
		}
	})
}

// Regression guard for the tryAdvance/commitBusy interaction: while a commit
// occupies the directory, skips accumulate in the Skip Vector and probes
// defer; once the busy commit completes, NSTID must advance through the
// accumulated skips and the deferred probes must be answered — not stranded.
func TestDeferredProbesAnsweredAfterBusyCommit(t *testing.T) {
	prog := &scriptProgram{name: "empty", txs: [][]workload.Tx{{}, {}}, homing: map[mem.Addr]int{}}
	sys, err := NewSystem(DefaultConfig(2), prog)
	if err != nil {
		t.Fatal(err)
	}
	d := sys.dirs[0]
	if d.nstid != 1 {
		t.Fatalf("initial NSTID %d, want 1", d.nstid)
	}

	// Commit of TID 1 is in flight and holds the directory busy.
	d.commitBusy = true
	d.pendingCommitTID = 1

	// TID 2 skips this directory while the commit is busy: accounted in the
	// Skip Vector but NSTID must not move (tryAdvance returns early).
	d.execSkip(2)
	if d.nstid != 1 {
		t.Fatalf("NSTID advanced to %d during a busy commit", d.nstid)
	}

	// A probe for TID 3 arrives; its condition (NSTID >= 3) is unmet, so it
	// defers.
	d.execProbe(3, false, 1)
	if len(d.probes) != 1 {
		t.Fatalf("probe not deferred: %d pending", len(d.probes))
	}

	// The busy commit completes. noteDone(1) plus the banked skip of TID 2
	// must advance NSTID to 3 and answer the deferred probe.
	d.finishCommit(1)
	if d.commitBusy {
		t.Fatal("commitBusy still set")
	}
	if d.nstid != 3 {
		t.Fatalf("NSTID %d after commit completion, want 3", d.nstid)
	}
	if len(d.probes) != 0 {
		t.Fatalf("%d deferred probes still stranded after the commit completed", len(d.probes))
	}
	if n := sys.msgCounts[MsgProbeResp]; n != 1 {
		t.Fatalf("probe response not sent: %d MsgProbeResp", n)
	}
}
