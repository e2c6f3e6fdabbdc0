package tcc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"scalabletcc/internal/core"
)

// obsProgram is a small but protocol-rich workload: enough contention to
// exercise commits, violations, probes, marks, write-backs and flushes.
func obsProgram(procs int) Program {
	return MustProfile("hotspot").Scale(0.05).Build(procs, 1)
}

// runWithJSONL runs prog on a fresh system with a JSONL observer (and the
// sampler, when sampleEvery > 0) and returns the raw stream plus results.
func runWithJSONL(t *testing.T, cfg Config, prog Program, sampleEvery uint64) ([]byte, *Results) {
	t.Helper()
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jw := NewJSONLObserver(&buf)
	sys.Observe(jw)
	if sampleEvery > 0 {
		if err := sys.EnableSampler(sampleEvery); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestJSONLDeterministic: equal seeds must give byte-identical event
// streams, sampler included.
func TestJSONLDeterministic(t *testing.T) {
	cfg := DefaultConfig(4)
	prog := obsProgram(4)
	a, _ := runWithJSONL(t, cfg, prog, 500)
	b, _ := runWithJSONL(t, cfg, prog, 500)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed JSONL streams differ")
	}
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
}

// TestJSONLParsesAndSamples: every line is valid JSON; the header carries
// the schema; sampler lines appear with the expected fields.
func TestJSONLParsesAndSamples(t *testing.T) {
	cfg := DefaultConfig(4)
	stream, _ := runWithJSONL(t, cfg, obsProgram(4), 1000)
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n, samples int
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", n, err, sc.Text())
		}
		if n == 0 {
			if m["schema"] != "scalabletcc/events" || m["version"] != float64(1) {
				t.Fatalf("bad header: %s", sc.Text())
			}
		} else if m["k"] == "sample" {
			samples++
			if _, ok := m["tid_next"]; !ok {
				t.Fatalf("sample missing tid_next: %s", sc.Text())
			}
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no sampler output")
	}
}

// TestObserverIsPassive: attaching an observer (even with heavy sinks) must
// not change simulated behaviour.
func TestObserverIsPassive(t *testing.T) {
	cfg := DefaultConfig(4)
	prog := obsProgram(4)

	plain, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sys.Observe(TeeObservers(NewCountingObserver(), NewRingObserver(64)))
	observed, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	if plain.Cycles != observed.Cycles || plain.Commits != observed.Commits ||
		plain.Violations != observed.Violations {
		t.Fatalf("observer changed behaviour: %d/%d/%d vs %d/%d/%d",
			plain.Cycles, plain.Commits, plain.Violations,
			observed.Cycles, observed.Commits, observed.Violations)
	}
}

// TestCounterReconciles: per-kind event counts must reconcile with the
// run's Results counters and message tallies — the observability layer and
// the statistics layer describe the same execution.
func TestCounterReconciles(t *testing.T) {
	cfg := DefaultConfig(4)
	prog := obsProgram(4)
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCountingObserver()
	sys.Observe(c)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"Commit", c.Count(EvCommit), res.Commits},
		{"Violation", c.Count(EvViolation), res.Violations},
		{"Skip", c.Count(EvSkip), res.MsgCounts[core.MsgSkip]},
		{"Probe", c.Count(EvProbe), res.MsgCounts[core.MsgProbe]},
		{"ProbeResp", c.Count(EvProbeResp), res.MsgCounts[core.MsgProbeResp]},
		{"Mark", c.Count(EvMark), res.MsgCounts[core.MsgMark]},
		{"InvAck", c.Count(EvInvAck), res.MsgCounts[core.MsgInvAck]},
		{"WriteBack", c.Count(EvWriteBack), res.MsgCounts[core.MsgWriteBack]},
		{"TIDGrant", c.Count(EvTIDGrant), res.MsgCounts[core.MsgTIDResp]},
		{"Flush", c.Count(EvFlush), res.MsgCounts[core.MsgFlushResp]},
		{"FlushInv", c.Count(EvFlushInv), res.MsgCounts[core.MsgFlushInv]},
		{"Barrier", c.Count(EvBarrier), uint64(4 * prog.Phases())},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s events = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if c.Count(EvCommit) == 0 || c.Count(EvMark) == 0 {
		t.Fatal("workload exercised no commits/marks; test is vacuous")
	}
	if c.Total() == 0 {
		t.Fatal("counter saw nothing")
	}
}

// TestSamplerNeedsSampleObserver: EnableSampler must reject observers that
// cannot receive samples, and a zero interval.
func TestSamplerNeedsSampleObserver(t *testing.T) {
	cfg := DefaultConfig(2)
	sys, err := NewSystem(cfg, obsProgram(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableSampler(100); err == nil {
		t.Fatal("EnableSampler succeeded with no observer")
	}
	sys.Observe(NewCountingObserver())
	if err := sys.EnableSampler(100); err == nil {
		t.Fatal("EnableSampler succeeded with a non-sampling observer")
	}
	sys.Observe(NewJSONLObserver(&bytes.Buffer{}))
	if err := sys.EnableSampler(0); err == nil {
		t.Fatal("EnableSampler accepted a zero interval")
	}
	if err := sys.EnableSampler(100); err != nil {
		t.Fatalf("EnableSampler rejected a JSONL observer: %v", err)
	}
}

// TestBaselineObserve: the registry's baseline machine emits an event
// stream that reconciles with its results, and observing it does not change
// the run.
func TestBaselineObserve(t *testing.T) {
	cfg := DefaultConfig(4)
	prog := obsProgram(4)

	one, err := RunProtocol("baseline", cfg, prog)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystemFor("baseline", cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCountingObserver()
	sys.Observe(c)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	two := res.Baseline

	if one.Baseline.Cycles != two.Cycles || one.Baseline.Commits != two.Commits {
		t.Fatalf("observed baseline run diverges from unobserved: %d/%d vs %d/%d",
			one.Baseline.Cycles, one.Baseline.Commits, two.Cycles, two.Commits)
	}
	if c.Count(EvCommit) != two.Commits {
		t.Errorf("baseline Commit events = %d, want %d", c.Count(EvCommit), two.Commits)
	}
	if c.Count(EvViolation) != two.Violations {
		t.Errorf("baseline Violation events = %d, want %d", c.Count(EvViolation), two.Violations)
	}
	if got, want := c.Count(EvBarrier), uint64(4*prog.Phases()); got != want {
		t.Errorf("baseline Barrier events = %d, want %d", got, want)
	}
}

// TestBaselineConfigValidate: the registry rejects a config that derives a
// malformed bus machine.
func TestBaselineConfigValidate(t *testing.T) {
	if _, err := NewSystemFor("baseline", DefaultConfig(4), obsProgram(4)); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := DefaultConfig(4)
	bad.LinkBytesPerCycle = 0
	if _, err := NewSystemFor("baseline", bad, obsProgram(4)); err == nil {
		t.Fatal("zero-bandwidth baseline config accepted")
	}
}
