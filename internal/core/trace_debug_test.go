package core

import (
	"strings"
	"testing"

	"scalabletcc/internal/obs"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// TestTraceHotLine is a debugging aid: it observes protocol events on the
// hot line and dumps them (rendered with obs.Line) when the oracle
// finds a stale read.
func TestTraceHotLine(t *testing.T) {
	prof := workload.Hotspot().Scale(0.25)
	cfg := DefaultConfig(8)
	cfg.MaxCycles = 2_000_000_000
	prog := prof.Build(8, cfg.Seed)
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sys.CollectCommitLog(true)
	var lines []string
	sys.Observe(obs.FuncObserver(func(e obs.Event) {
		s, ok := obs.Line(e)
		if !ok {
			return
		}
		if strings.Contains(s, "0x100000000000") || strings.Contains(s, "COMMIT") ||
			strings.Contains(s, "VIOLATE") || strings.Contains(s, "0x10000000001") || strings.Contains(s, "0x10000000000") {
			lines = append(lines, s)
		}
	}))
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	viols := verify.Check(res.CommitLog)
	if len(viols) == 0 {
		t.Log("no violations this run")
		return
	}
	t.Logf("first violation: %v (total %d)", viols[0], len(viols))
	n := len(lines)
	if n > 300 {
		n = 300
	}
	for _, l := range lines[:n] {
		t.Log(l)
	}
	t.Fail()
}
