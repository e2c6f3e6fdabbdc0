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
// digest shape through ProtocolResults.Summary. The scalable digest matches
// its typed results; a rival's typed results carry only its own counters,
// so exactly that protocol's detail is set, with the counters every run
// must move.
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
		set := map[string]bool{
			"tcc":      pr.Scalable != nil,
			"baseline": pr.Baseline != nil,
			"tl2":      pr.TL2 != nil,
			"eager":    pr.Eager != nil,
		}
		for name, ok := range set {
			if ok != (name == protocol) {
				t.Fatalf("%s: %s detail set = %v", protocol, name, ok)
			}
		}
		switch protocol {
		case "tcc":
			r := pr.Scalable
			want := Summary{Protocol: "tcc", Cycles: uint64(r.Cycles), Instructions: r.Instr,
				Commits: r.Commits, Violations: r.Violations, Breakdown: r.Breakdown}
			if s != want {
				t.Errorf("tcc: summary %+v does not match results %+v", s, want)
			}
		case "baseline":
			if pr.Baseline.BusBytes == 0 || pr.Baseline.BusBusy == 0 {
				t.Errorf("baseline: empty bus counters %+v", *pr.Baseline)
			}
		case "tl2":
			if pr.TL2.ClockReads == 0 || pr.TL2.ClockAdvances == 0 || pr.TL2.Traffic.TotalBytes() == 0 {
				t.Errorf("tl2: empty counters %+v", *pr.TL2)
			}
		case "eager":
			if pr.Eager.Traffic.TotalBytes() == 0 {
				t.Errorf("eager: no mesh traffic")
			}
		default:
			t.Fatalf("%s: no detail check", protocol)
		}
	}
}
