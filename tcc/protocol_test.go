package tcc

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/verify"
)

func TestProtocolRegistry(t *testing.T) {
	want := []string{"tcc", "baseline", "tl2", "eager"}
	got := ProtocolNames()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry order %v, want %v", got, want)
		}
	}
	for _, info := range Protocols() {
		if info.Description == "" || (info.Detection != "lazy" && info.Detection != "eager") {
			t.Errorf("incomplete registry entry %+v", info)
		}
		if _, err := ProtocolByNameErr(info.Name); err != nil {
			t.Errorf("registered protocol %q failed lookup: %v", info.Name, err)
		}
	}
}

// TestProtocolByNameErrListsRegistry: unknown-protocol errors must name the
// valid entries, like ProfileByNameErr does for workloads.
func TestProtocolByNameErrListsRegistry(t *testing.T) {
	_, err := ProtocolByNameErr("optimistic9000")
	if err == nil {
		t.Fatal("unknown protocol did not error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown protocol "optimistic9000"`) {
		t.Fatalf("unhelpful error: %v", err)
	}
	for _, name := range ProtocolNames() {
		if !strings.Contains(msg, name) {
			t.Fatalf("error does not list registered protocol %q: %v", name, err)
		}
	}
	if _, err := RunProtocol("optimistic9000", DefaultConfig(2), nil); err == nil {
		t.Fatal("RunProtocol accepted an unknown protocol")
	}
}

// TestCrossProtocolOracle runs the same seeded contended workload through
// all four machine models and requires every one to pass the
// serializability and final-memory oracles with a protocol-tagged summary.
func TestCrossProtocolOracle(t *testing.T) {
	prof := MustProfile("hotspot").Scale(0.25)
	cfg := DefaultConfig(8)
	cfg.Seed = 7
	cfg.MaxCycles = 2_000_000_000
	cfg.CollectCommitLog = true
	for _, info := range Protocols() {
		prog := prof.Build(cfg.Procs, cfg.Seed)
		sys, err := NewSystemFor(info.Name, cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if res.Protocol != info.Name || res.Summary.Protocol != info.Name {
			t.Errorf("%s: results tagged %q / summary %q", info.Name, res.Protocol, res.Summary.Protocol)
		}
		if res.Summary.Commits == 0 {
			t.Errorf("%s: no commits", info.Name)
		}
		if v := res.Verify(); len(v) != 0 {
			t.Errorf("%s: %d serializability violations (first %v)", info.Name, len(v), v[0])
		}
		if err := sys.AuditFinalMemory(); err != nil {
			t.Errorf("%s: %v", info.Name, err)
		}
	}
}

// TestCommitRecordsHoldEachAddressOnce: every protocol logs a word at most
// once per record side, which the flat replay relies on (DESIGN §33), and
// leaves an empty side nil, as a decoded checkpoint has it.
func TestCommitRecordsHoldEachAddressOnce(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Seed = 3
	cfg.CollectCommitLog = true
	for _, app := range []string{"hotspot", "barnes"} {
		prof := MustProfile(app).Scale(0.1)
		for _, info := range Protocols() {
			res, err := RunProtocol(info.Name, cfg, prof.Build(cfg.Procs, cfg.Seed))
			if err != nil {
				t.Fatalf("%s %s: %v", info.Name, app, err)
			}
			var reads, writes int
			for _, r := range res.CommitLog {
				for _, side := range []verify.Words{r.Reads, r.Writes} {
					if side != nil && len(side) == 0 {
						t.Fatalf("%s %s: T%d has an empty non-nil side", info.Name, app, r.TID)
					}
					seen := make(map[mem.Addr]bool, len(side))
					for _, w := range side {
						if seen[w.Addr] {
							t.Fatalf("%s %s: T%d lists %#x twice on one side: %+v", info.Name, app, r.TID, w.Addr, r)
						}
						seen[w.Addr] = true
					}
				}
				reads += len(r.Reads)
				writes += len(r.Writes)
			}
			if reads == 0 || writes == 0 {
				t.Fatalf("%s %s: log has %d reads and %d writes", info.Name, app, reads, writes)
			}
		}
	}
}

// TestProtocolResultsTypedDetail: exactly one typed detail pointer is set,
// matching the protocol.
func TestProtocolResultsTypedDetail(t *testing.T) {
	prof := MustProfile("commitbound").Scale(0.05)
	cfg := DefaultConfig(4)
	for _, info := range Protocols() {
		res, err := RunProtocol(info.Name, cfg, prof.Build(cfg.Procs, cfg.Seed))
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		set := 0
		for name, p := range map[string]bool{
			"tcc":      res.Scalable != nil,
			"baseline": res.Baseline != nil,
			"tl2":      res.TL2 != nil,
			"eager":    res.Eager != nil,
		} {
			if p {
				set++
				if name != info.Name {
					t.Errorf("%s: detail pointer for %q set", info.Name, name)
				}
			}
		}
		if set != 1 {
			t.Errorf("%s: %d detail pointers set", info.Name, set)
		}
	}
}

// TestValidateErrorsConsistent: every registered model reports a bad config
// by protocol name and offending Config field in the same format.
func TestValidateErrorsConsistent(t *testing.T) {
	for _, info := range Protocols() {
		cfg := DefaultConfig(4)
		cfg.Procs = 0
		_, err := NewSystemFor(info.Name, cfg, nil)
		if err == nil {
			t.Fatalf("%s: Procs=0 accepted", info.Name)
		}
		want := fmt.Sprintf("%s: Config.Procs must be positive, got 0", info.Name)
		if err.Error() != want {
			t.Errorf("%s: error %q, want %q", info.Name, err, want)
		}
	}
}

// TestShardsValidation: the sharded-engine knob is validated across the
// whole registry with the `<protocol>: Config.<Field>` error shape — the
// tcc protocol rejects counts that don't tile the mesh, and every other
// model rejects the knob outright rather than silently ignoring it.
func TestShardsValidation(t *testing.T) {
	cases := []struct {
		name     string
		protocol string
		procs    int
		shards   int
		wantErr  string // "" means the config must be accepted
	}{
		{"tcc accepts zero", "tcc", 16, 0, ""},
		{"tcc accepts divisor", "tcc", 16, 4, ""},
		{"tcc accepts one", "tcc", 16, 1, ""},
		{"tcc accepts procs", "tcc", 16, 16, ""},
		{"tcc rejects negative", "tcc", 16, -1,
			"tcc: Config.Shards must be >= 0, got -1"},
		{"tcc rejects non-divisor", "tcc", 16, 3,
			"tcc: Config.Shards 3 does not tile the 16-node mesh (non-divisible region split)"},
		{"tcc rejects oversubscription", "tcc", 16, 32,
			"tcc: Config.Shards 32 exceeds 16 procs"},
		{"baseline rejects shards", "baseline", 16, 4,
			"baseline: Config.Shards is only supported by the tcc protocol, got 4"},
		{"tl2 rejects shards", "tl2", 16, 4,
			"tl2: Config.Shards is only supported by the tcc protocol, got 4"},
		{"eager rejects shards", "eager", 16, 4,
			"eager: Config.Shards is only supported by the tcc protocol, got 4"},
	}
	prog := MustProfile("hotspot").Scale(0.05).Build(16, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.procs)
			cfg.Shards = tc.shards
			_, err := NewSystemFor(tc.protocol, cfg, prog)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("Shards=%d accepted by %s", tc.shards, tc.protocol)
			case tc.wantErr != "" && err.Error() != tc.wantErr:
				t.Fatalf("error %q, want %q", err, tc.wantErr)
			}
		})
	}

	// Every non-tcc registry entry must reject the knob: a protocol added
	// later without a decision to reject the knob (or support it) fails here.
	for _, info := range Protocols() {
		if info.Name == "tcc" {
			continue
		}
		cfg := DefaultConfig(4)
		cfg.Shards = 2
		if _, err := NewSystemFor(info.Name, cfg, prog); err == nil {
			t.Errorf("%s: Config.Shards silently accepted", info.Name)
		}
	}
}

// TestSummaryProtocolJSON pins the wire form with the Protocol field: it is
// emitted when set and absent when empty, so pre-protocol v1 bytes are
// unchanged.
func TestSummaryProtocolJSON(t *testing.T) {
	s := Summary{Protocol: "tl2", Cycles: 10, Instructions: 8, Commits: 2, Violations: 1}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"protocol":"tl2","cycles":10,"instructions":8,"commits":2,"violations":1,` +
		`"breakdown":{"useful":0,"cache_miss":0,"idle":0,"commit":0,"violation":0}}`
	if string(data) != want {
		t.Fatalf("tagged summary wire form changed:\n got %s\nwant %s", data, want)
	}

	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Protocol != "tl2" || back.Cycles != 10 || back.Commits != 2 {
		t.Fatalf("round trip lost fields: %+v", back)
	}

	// Untagged summaries keep the original frozen v1 byte sequence.
	data, err = json.Marshal(Summary{Cycles: 10, Instructions: 8, Commits: 2, Violations: 1})
	if err != nil {
		t.Fatal(err)
	}
	want = `{"v":1,"cycles":10,"instructions":8,"commits":2,"violations":1,` +
		`"breakdown":{"useful":0,"cache_miss":0,"idle":0,"commit":0,"violation":0}}`
	if string(data) != want {
		t.Fatalf("untagged summary wire form changed:\n got %s\nwant %s", data, want)
	}
}

// TestRivalAllocationCeiling pins the rival protocols to allocation-free
// typed event dispatch: on the BenchmarkProtocols workload (hotspot, 8
// procs, scale 0.25, seed 1) each must allocate at least 10x less per run
// than the figure recorded below for it while it scheduled closures.
func TestRivalAllocationCeiling(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Seed = 1
	prog := MustProfile("hotspot").Scale(0.25).Build(cfg.Procs, cfg.Seed)
	for _, c := range []struct {
		protocol string
		recorded float64 // allocs/op with closure dispatch
	}{
		{"tl2", 83290},
		{"eager", 41767},
		{"baseline", 74965},
	} {
		var err error
		allocs := testing.AllocsPerRun(3, func() {
			_, err = RunProtocol(c.protocol, cfg, prog)
		})
		if err != nil {
			t.Fatalf("%s: %v", c.protocol, err)
		}
		if allocs > c.recorded/10 {
			t.Errorf("%s allocates %.0f times per run, ceiling %.0f (a tenth of the closure-dispatch %.0f)",
				c.protocol, allocs, c.recorded/10, c.recorded)
		}
	}
}
