package tcc

import (
	"strings"
	"testing"
)

func TestProfileByNameErr(t *testing.T) {
	p, err := ProfileByNameErr("barnes")
	if err != nil || p.Name != "barnes" {
		t.Fatalf("ProfileByNameErr(barnes) = %v, %v", p.Name, err)
	}
	if _, err := ProfileByNameErr("no-such-app"); err == nil {
		t.Fatal("unknown profile did not error")
	} else if !strings.Contains(err.Error(), `unknown profile "no-such-app"`) {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestProtocolSummaryMatchesResults: every protocol reports the same
// digest shape through ProtocolResults.Summary, with fields matching its
// typed results.
func TestProtocolSummaryMatchesResults(t *testing.T) {
	prof := MustProfile("commitbound").Scale(0.05)
	for _, protocol := range ProtocolNames() {
		pr, err := RunProtocol(protocol, DefaultConfig(4), prof.Build(4, 1))
		if err != nil {
			t.Fatal(err)
		}
		s := pr.Summary
		if s.Protocol != protocol || pr.Protocol != protocol {
			t.Errorf("%s: summary tagged %q, results %q", protocol, s.Protocol, pr.Protocol)
		}
		if s.Cycles == 0 || s.Commits == 0 || s.Instructions == 0 {
			t.Errorf("%s: empty summary %+v", protocol, s)
		}
		if s.Breakdown.Total() == 0 {
			t.Errorf("%s: empty breakdown", protocol)
		}
		var want Summary
		switch {
		case pr.Scalable != nil:
			r := pr.Scalable
			want = Summary{Protocol: "tcc", Cycles: uint64(r.Cycles), Instructions: r.Instr,
				Commits: r.Commits, Violations: r.Violations, Breakdown: r.Breakdown}
		case pr.Baseline != nil:
			r := pr.Baseline
			want = Summary{Protocol: "baseline", Cycles: uint64(r.Cycles), Instructions: r.Instr,
				Commits: r.Commits, Violations: r.Violations, Breakdown: r.Breakdown}
		case pr.TL2 != nil:
			r := pr.TL2
			want = Summary{Protocol: "tl2", Cycles: uint64(r.Cycles), Instructions: r.Instr,
				Commits: r.Commits, Violations: r.Violations, Breakdown: r.Breakdown}
		case pr.Eager != nil:
			r := pr.Eager
			want = Summary{Protocol: "eager", Cycles: uint64(r.Cycles), Instructions: r.Instr,
				Commits: r.Commits, Violations: r.Violations, Breakdown: r.Breakdown}
		default:
			t.Fatalf("%s: no typed result", protocol)
		}
		if s != want {
			t.Errorf("%s: summary %+v does not match results %+v", protocol, s, want)
		}
	}
}
